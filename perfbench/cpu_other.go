//go:build !linux

package main

import "syscall"

// cpuNow returns the CPU time the process has used, user and system,
// across all its threads, in nanoseconds (microsecond resolution).
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// threadCPU falls back to the process clock where no per-thread CPU
// clock is available.
func threadCPU() int64 { return cpuNow() }
