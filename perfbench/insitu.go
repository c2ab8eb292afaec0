package main

import (
	"context"
	"net/netip"
	"runtime"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
	"sessiondir/internal/storage"
	"sessiondir/internal/transport"
)

// The benchmark's own implementations of the interfaces the program
// accepts. They count every call and, when a tracer is attached, record
// a span around it under the root call that caused it.

// benchTransport sinks every datagram the directory sends: nothing is
// looped back, and no socket is involved.
type benchTransport struct {
	tr           *tracer
	sends, bytes int64
}

func (t *benchTransport) Send(_ context.Context, data []byte, _ mcast.TTL) error {
	s := t.tr.open(stSend, -1)
	t.sends++
	t.bytes += int64(len(data))
	t.tr.close(s)
	return nil
}

func (t *benchTransport) Subscribe(transport.Handler) {}
func (t *benchTransport) LocalAddr() netip.AddrPort   { return netip.AddrPort{} }
func (t *benchTransport) Close() error                { return nil }

// benchFS wraps a MemFS and counts bytes written, syncs and errors.
type benchFS struct {
	mem          *storage.MemFS
	tr           *tracer
	bytes, syncs int64
	errs         int64
}

func (f *benchFS) note(err error) error {
	if err != nil {
		f.errs++
	}
	return err
}

func (f *benchFS) Create(name string) (storage.File, error) {
	s := f.tr.open(stFS, -1)
	defer f.tr.close(s)
	file, err := f.mem.Create(name)
	if err != nil {
		return nil, f.note(err)
	}
	return &benchFile{File: file, fs: f}, nil
}

func (f *benchFS) Open(name string) (storage.File, error) {
	file, err := f.mem.Open(name)
	if err != nil {
		return nil, err // a missing file is part of recovery, not a fault
	}
	return &benchFile{File: file, fs: f}, nil
}

func (f *benchFS) Rename(oldname, newname string) error {
	s := f.tr.open(stFS, -1)
	defer f.tr.close(s)
	return f.note(f.mem.Rename(oldname, newname))
}

func (f *benchFS) Remove(name string) error {
	s := f.tr.open(stFS, -1)
	defer f.tr.close(s)
	return f.mem.Remove(name) // removing an absent file is routine
}

func (f *benchFS) List() ([]string, error) { return f.mem.List() }

func (f *benchFS) SyncRoot() error {
	s := f.tr.open(stFS, -1)
	defer f.tr.close(s)
	f.syncs++
	return f.note(f.mem.SyncRoot())
}

type benchFile struct {
	storage.File
	fs *benchFS
}

func (b *benchFile) Write(p []byte) (int, error) {
	s := b.fs.tr.open(stFS, -1)
	defer b.fs.tr.close(s)
	b.fs.bytes += int64(len(p))
	n, err := b.File.Write(p)
	return n, b.fs.note(err)
}

func (b *benchFile) Sync() error {
	s := b.fs.tr.open(stFS, -1)
	defer b.fs.tr.close(s)
	b.fs.syncs++
	return b.fs.note(b.File.Sync())
}

// benchAlloc wraps the allocator the program is configured with. It logs
// every result (the replay reuses them) and, with stamps set, the wall
// and process CPU time at each Allocate entry and exit and the CPU time
// of the call on the caller's thread (occupancy derives placement
// latency and cost from them). With heapAt set, it also measures the live
// heap when call heapAt enters, while the caller's state is reachable;
// the stamps leave the measurement's time out.
type benchAlloc struct {
	inner       allocator.Allocator
	tr          *tracer
	stamps      bool
	base        time.Time
	enter, exit []int64 // ns since base, when stamps is set
	cpuEnter    []int64 // process CPU ns, when stamps is set
	ownCPU      []int64 // caller-thread CPU ns of the call, when stamps is set
	results     []int64 // allocated address, -1 for a failure
	calls       int64
	failures    int64
	viewLen     int64
	heapAt      int64   // call index, or 0 for none
	heapLive    float64 // live heap bytes at call heapAt
	pauseWall   int64   // ns the heap measurement took, left out of the stamps
	pauseCPU    int64
}

func (a *benchAlloc) Name() string { return a.inner.Name() }
func (a *benchAlloc) Size() uint32 { return a.inner.Size() }

func (a *benchAlloc) Allocate(visible []allocator.SessionInfo, ttl mcast.TTL, rng *stats.RNG) (mcast.Addr, error) {
	if a.stamps && a.heapAt > 0 && a.calls == a.heapAt {
		c0, t0 := cpuNow(), time.Now()
		a.heapLive = liveHeap()
		a.pauseCPU += cpuNow() - c0
		a.pauseWall += int64(time.Since(t0))
	}
	if a.stamps {
		a.cpuEnter = append(a.cpuEnter, cpuNow()-a.pauseCPU)
		a.enter = append(a.enter, int64(time.Since(a.base))-a.pauseWall)
	}
	s := a.tr.open(stAlloc, int32(a.calls))
	var addr mcast.Addr
	var err error
	if a.stamps {
		runtime.LockOSThread()
		own := threadCPU()
		addr, err = a.inner.Allocate(visible, ttl, rng)
		a.ownCPU = append(a.ownCPU, threadCPU()-own)
		runtime.UnlockOSThread()
	} else {
		addr, err = a.inner.Allocate(visible, ttl, rng)
	}
	a.tr.close(s)
	if a.stamps {
		a.exit = append(a.exit, int64(time.Since(a.base))-a.pauseWall)
	}
	a.calls++
	a.viewLen += int64(len(visible))
	if err != nil {
		a.failures++
		a.results = append(a.results, -1)
	} else {
		a.results = append(a.results, int64(addr))
	}
	return addr, err
}

func (a *benchAlloc) AllocateBatch(visible []allocator.SessionInfo, ttl mcast.TTL, k int, dst []mcast.Addr, rng *stats.RNG) ([]mcast.Addr, error) {
	return allocator.AllocateBatchSerial(a, visible, ttl, k, dst, rng)
}
