//go:build !linux

package main

import "time"

var epoch = time.Now()

// processCPU falls back to wall time where the CPU clocks are not read.
func processCPU() float64 { return time.Since(epoch).Seconds() }

// threadCPU falls back to wall time where the CPU clocks are not read.
func threadCPU() float64 { return time.Since(epoch).Seconds() }

// workerCPU falls back to wall time where the CPU clocks are not read.
func workerCPU(int) float64 { return time.Since(epoch).Seconds() }
