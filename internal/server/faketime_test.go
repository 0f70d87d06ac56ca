//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package server

import "testing/synctest"

func init() { bubble = synctest.Run }
