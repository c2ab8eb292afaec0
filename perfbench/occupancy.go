package main

import (
	"fmt"
	"runtime"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sim"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// occWorld is the occupancy workload's set-up: the synthetic Mbone and
// a reach cache already holding every (origin, TTL) the run can draw.
type occWorld struct {
	g     *topology.Graph
	cache *topology.ReachCache
}

func setupOccupancy(sc scale, seed uint64) (*occWorld, error) {
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: sc.occNodes}, stats.NewRNG(seed))
	if err != nil {
		return nil, fmt.Errorf("generate topology: %w", err)
	}
	cache := topology.NewReachCache(g)
	ttls := mcast.DS4().Support()
	for n := 0; n < g.NumNodes(); n++ {
		for _, ttl := range ttls {
			cache.Reach(topology.NodeID(n), ttl)
		}
	}
	return &occWorld{g: g, cache: cache}, nil
}

func (w *occWorld) config(sc scale, seed uint64, alloc allocator.Allocator) sim.OccupancyConfig {
	return sim.OccupancyConfig{
		Graph:    w.g,
		Cache:    w.cache,
		Alloc:    alloc,
		Dist:     mcast.DS4(),
		Sessions: sc.occSessions,
		Churn:    sc.occChurn,
		Seed:     seed,
	}
}

func occDigest(r sim.OccupancyResult) string {
	return fmt.Sprintf("placed=%d fill_clashes=%d churn_clashes=%d exhausted=%d",
		r.Placed, r.FillClashes, r.ChurnClashes, r.Exhausted)
}

// runOccupancy measures sim.RunOccupancy under AIPR-H, repeated on the
// same seed until the run has lasted seconds and collected minSamples
// churn placements, and at least sc.setups times. Every repetition runs
// on a world set up afresh (each set-up is one setup_s sample), so the
// pooled samples do not all depend on where one set-up's reach sets
// happened to land in memory. Every repetition must reach the same
// outcome.
func runOccupancy(sc scale, seed uint64, seconds float64, traceDir string) (*outcome, error) {
	o := &outcome{}
	setup := func() (*occWorld, error) {
		runtime.GC()
		c0, t0 := cpuNow(), time.Now()
		w, err := setupOccupancy(sc, seed)
		if err != nil {
			return nil, err
		}
		o.setupWall = append(o.setupWall, time.Since(t0).Seconds())
		o.setupCPU = append(o.setupCPU, float64(cpuNow()-c0)/1e9)
		return w, nil
	}
	if traceDir != "" {
		w, err := setup()
		if err != nil {
			return nil, err
		}
		if err := traceOccupancy(w, sc, seed, o, traceDir); err != nil {
			return nil, err
		}
		return o, nil
	}
	alloc := &benchAlloc{stamps: true, base: time.Now()}
	var loopWall time.Duration // loop time, set-ups left out
	iters := 0
	for {
		el := loopWall.Seconds()
		if iters >= sc.setups && el >= seconds && (len(o.opUs) >= sc.minSamples || el >= maxLoopSeconds) {
			break
		}
		w, err := setup()
		if err != nil {
			return nil, err
		}
		alloc.inner = allocator.NewHybrid(sc.occSpace)
		alloc.enter, alloc.exit, alloc.results = alloc.enter[:0], alloc.exit[:0], alloc.results[:0]
		alloc.cpuEnter, alloc.ownCPU = alloc.cpuEnter[:0], alloc.ownCPU[:0]
		// The first repetition measures the world's heap when the fill
		// is done: the live heap as the first churn placement allocates,
		// minus the live heap before the run.
		alloc.heapAt, alloc.calls, alloc.pauseWall, alloc.pauseCPU = 0, 0, 0, 0
		var before float64
		if iters == 0 {
			alloc.heapAt = int64(sc.occSessions)
			before = liveHeap()
		}
		c0, t0 := cpuNow(), time.Now()
		res := sim.RunOccupancy(w.config(sc, seed, alloc))
		d := time.Since(t0) - time.Duration(alloc.pauseWall)
		loopWall += d
		o.loopNs += int64(d)
		o.loopCPU += cpuNow() - c0 - alloc.pauseCPU
		if iters == 0 {
			o.heapMB = (alloc.heapLive - before) / (1 << 20)
		}
		iters++
		placements := int64(sc.occSessions + sc.occChurn)
		o.ops += placements
		o.attempted += placements
		o.failed += int64(res.Exhausted)
		for j := sc.occSessions; j < len(alloc.enter); j++ {
			o.opUs = append(o.opUs, float64(alloc.enter[j]-alloc.enter[j-1])/1e3)
			o.callUs = append(o.callUs, float64(alloc.exit[j]-alloc.enter[j])/1e3)
			o.callCPU = append(o.callCPU, float64(alloc.ownCPU[j])/1e3)
		}
		// The process clock sees the scan workers' CPU time only when
		// they are switched out or at a scheduler tick (4 ms at HZ=250),
		// so one ~0.4 ms placement reads it coarsely. A group of
		// batchDepth placements reads it finely enough; each group counts
		// as one sample of its mean.
		for j := sc.occSessions; j+batchDepth <= len(alloc.enter); j += batchDepth {
			cpu := alloc.cpuEnter[j+batchDepth-1] - alloc.cpuEnter[j-1]
			o.opCPU = append(o.opCPU, float64(cpu)/batchDepth/1e3)
		}
		d2 := occDigest(res)
		switch {
		case o.digest == "":
			o.digest = d2
		case d2 != o.digest:
			o.violations = append(o.violations, fmt.Sprintf("repetition %d reached %q, first reached %q", iters, d2, o.digest))
		}
		if res.Placed != sc.occSessions {
			o.violations = append(o.violations, fmt.Sprintf("placed %d of %d sessions", res.Placed, sc.occSessions))
		}
	}
	o.notes = append(o.notes, fmt.Sprintf("repetitions=%d placements=%d churn samples=%d loop=%.3fs",
		iters, o.ops, len(o.opUs), float64(o.loopNs)/1e9))
	return o, nil
}
