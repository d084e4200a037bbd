package main

import (
	"syscall"
	"unsafe"
)

// Clock ids of clock_gettime(2).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads a CPU-time clock in seconds. Time the hypervisor takes
// the vCPU away for is not on it, unlike wall time. The call fails only
// for a clock id the kernel does not know, which is a bug here.
func cpuClock(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error())
	}
	return float64(ts.Nano()) / 1e9
}

// processCPU is the CPU time of every thread of the process, seconds.
func processCPU() float64 { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time of the calling OS thread, seconds. It times a
// goroutine only while that goroutine is locked to its thread.
func threadCPU() float64 { return cpuClock(clockThreadCPU) }

// workerCPU is the clock fleet-parallel and serve-mix time on: the CPU
// time of every thread of the process divided by the load goroutines,
// in seconds. With the vCPUs busy it runs at the pace of a wall clock,
// but it stops while the hypervisor or another process holds a vCPU.
func workerCPU(workers int) float64 { return processCPU() / float64(workers) }
