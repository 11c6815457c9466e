package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux clock IDs for clock_gettime(2).
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

// cpuClock reads one of the kernel's CPU-time clocks. CPU time leaves out
// the time a thread waited for a processor, and, on a kernel that
// accounts steal time, the time the hypervisor gave the virtual CPU to
// another guest, so on a shared host it drifts less than wall-clock time.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// threadCPU is the calling OS thread's CPU time; the caller must hold
// runtime.LockOSThread across the interval it measures.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTimeID) }

// processCPU is the CPU time of every thread of the process.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }
