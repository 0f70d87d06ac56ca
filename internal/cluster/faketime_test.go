//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package cluster_test

import "testing/synctest"

func init() { bubble = synctest.Run }
