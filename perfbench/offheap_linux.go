package main

import (
	"syscall"
	"unsafe"
)

// offHeap returns a copy of xs in memory mapped outside the Go heap, or
// xs itself if the mapping fails. The garbage collector neither scans
// the copy nor counts it toward the heap size that paces collections,
// so the benchmark's input does not change how often the program's
// garbage is collected. The mapping lives until the process exits.
func offHeap[T uint8 | int32 | uint32](xs []T) []T {
	if len(xs) == 0 {
		return xs
	}
	size := len(xs) * int(unsafe.Sizeof(xs[0]))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return xs
	}
	out := unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), len(xs))
	copy(out, xs)
	return out
}
