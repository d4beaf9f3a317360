package main

// probeScan is probeScanGo in assembly (probe_amd64.s).
//
//go:noescape
func probeScan(tags *[64]uint64, steps int) (hits uint64)
