//go:build !linux

package main

// offHeap leaves xs on the Go heap where the Linux mapping is not used.
func offHeap[T uint8 | int32 | uint32](xs []T) []T { return xs }
