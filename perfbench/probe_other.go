//go:build !amd64

package main

// probeScan runs the kernel in Go where there is no assembly version;
// there its time depends on the code's placement in the binary.
func probeScan(tags *[64]uint64, steps int) uint64 { return probeScanGo(tags, steps) }
