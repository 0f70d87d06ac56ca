module itag/benchmark

go 1.22

require itag v0.0.0

replace itag => ../
