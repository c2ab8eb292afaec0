package main

import (
	"syscall"
	"unsafe"
)

// Linux clock ids for clock_gettime.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func clockNs(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // both clocks exist on every Linux the Go runtime supports
	}
	return ts.Nano()
}

// cpuNow returns the CPU time the process has used, user and system,
// across all its threads, in nanoseconds. On a virtual machine it
// excludes time the hypervisor steals, which wall time does not.
func cpuNow() int64 { return clockNs(clockProcessCPU) }

// threadCPU returns the CPU time of the calling OS thread. It is only
// meaningful between two reads on a goroutine locked to its thread.
func threadCPU() int64 { return clockNs(clockThreadCPU) }
