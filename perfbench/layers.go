package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sim"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// perLayer lists every per-layer metric a traced run prints, with its
// unit. A layer a workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"sessiondir.apply_self_us", "us"},
	{"sessiondir.create_self_us", "us"},
	{"sessiondir.step_ms", "ms"},
	{"sessiondir.allocs_per_dgram", "count"},
	{"transport.sends_per_kdgram", "count"},
	{"transport.send_us", "us"},
	{"sap.decode_ns", "ns"},
	{"sap.malformed", "count"},
	{"session.parse_ns", "ns"},
	{"session.parse_allocs", "count"},
	{"session.key_ns", "ns"},
	{"admission.allow_ns", "ns"},
	{"admission.plan_us", "us"},
	{"admission.plan_candidates", "count"},
	{"admission.admit_ratio", "ratio"},
	{"admission.evictions_per_kdgram", "count"},
	{"announce.observe_ns", "ns"},
	{"announce.peek_ns", "ns"},
	{"announce.fresh_ratio", "ratio"},
	{"announce.expire_us", "us"},
	{"clash.observe_us", "us"},
	{"clash.due_us", "us"},
	{"clash.actions_per_kdgram", "count"},
	{"clash.pending_max", "count"},
	{"storage.append_us", "us"},
	{"storage.bytes_per_kdgram", "bytes"},
	{"storage.syncs_per_kdgram", "count"},
	{"storage.checkpoint_ms", "ms"},
	{"storage.errors", "count"},
	{"allocator.alloc_us", "us"},
	{"allocator.view_len", "count"},
	{"allocator.failures", "count"},
	{"sim.visible_us", "us"},
	{"sim.visible_len", "count"},
	{"sim.clashes_us", "us"},
	{"sim.clash_ratio", "ratio"},
	{"sim.world_other_us", "us"},
	{"topology.reach_classes", "count"},
	{"topology.reach_ns", "ns"},
	{"stage.sap_us", "us"},
	{"stage.session_us", "us"},
	{"stage.admission_us", "us"},
	{"stage.announce_us", "us"},
	{"stage.clash_us", "us"},
	{"stage.transport_us", "us"},
	{"stage.storage_us", "us"},
	{"stage.allocator_us", "us"},
	{"stage.sim_us", "us"},
	{"stage.topology_us", "us"},
	{"mix.refresh_share", "ratio"},
	{"mix.newcomer_share", "ratio"},
	{"mix.bump_share", "ratio"},
	{"mix.clash_move_share", "ratio"},
	{"mix.delete_share", "ratio"},
	{"trace.total_us", "us"},
	{"trace.residual_us", "us"},
	{"trace.overhead_us", "us"},
}

func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		out[l.name] = metric{vals[l.name], l.unit}
	}
	return out
}

// stageSum is the decomposition of one root kind: the mean traced total
// per root call, each layer's mean time in it, and the residual left to
// the root's own code. Layers timed in situ (transport, storage,
// allocator) enter with their own spans, the others with the spans the
// replay measured for the same root call. The residual is the total
// minus all of them, so the stages plus the residual equal the total by
// definition; what can fail is the residual's sign: a layer the replay
// times slower than the program runs it drives the residual below zero,
// and the run fails.
type stageSum struct {
	n      int
	total  float64 // ns
	stages map[string]float64
}

func (s *stageSum) add(layer string, ns float64) { s.stages[layer] += ns }

// addRoot adds one root call's traced duration.
func (s *stageSum) addRoot(total float64) {
	s.n++
	s.total += total
}

func (s *stageSum) report(vals map[string]float64) []string {
	if s.n == 0 {
		return []string{"traced window holds no root calls"}
	}
	n := float64(s.n)
	rest := s.total
	for layer, ns := range s.stages {
		vals["stage."+layer+"_us"] = ns / n / 1e3
		rest -= ns
	}
	vals["trace.total_us"] = s.total / n / 1e3
	vals["trace.residual_us"] = rest / n / 1e3
	if rest < 0 {
		return []string{fmt.Sprintf("trace residual %.1f us per root call is negative", rest/n/1e3)}
	}
	return nil
}

func newStageSum() *stageSum { return &stageSum{stages: map[string]float64{}} }

func perK(n, k int64) float64 {
	if k == 0 {
		return 0
	}
	return float64(n) * 1000 / float64(k)
}

func ratio(n, k int64) float64 {
	if k == 0 {
		return 0
	}
	return float64(n) / float64(k)
}

// ingestWindow is what the traced ingest run's two halves leave for
// the replay: where the traced half starts, and the counters as they
// stood then.
type ingestWindow struct {
	tr                    *tracer
	from                  int // first traced round
	dgrams, sends         int64
	fsBytes, fsSyncs      int64
	allocCalls, allocView int64
	untraced              []float64 // batch durations of the untraced half
	allocsPerDgram        float64
}

// traceIngest runs the traced ingest loop: half the time untraced (the
// overhead baseline, and the allocation count), half with the in-situ
// tracer attached.
func traceIngest(h *ingestRun, seconds float64) *ingestWindow {
	h.countAllocs = true
	h.loop(seconds/2, 0, maxLoopSeconds/2)
	h.countAllocs = false
	win := &ingestWindow{
		tr:             newTracer(),
		from:           h.rounds,
		dgrams:         h.dgrams,
		sends:          h.tp.sends,
		allocCalls:     h.alloc.calls,
		allocView:      h.alloc.viewLen,
		untraced:       append([]float64(nil), h.batchUs...),
		allocsPerDgram: ratio(int64(h.batchAllocs), h.dgrams),
	}
	h.tr, h.tp.tr, h.alloc.tr = win.tr, win.tr, win.tr
	if h.fs != nil {
		win.fsBytes, win.fsSyncs = h.fs.bytes, h.fs.syncs
		h.fs.tr = win.tr
	}
	h.loop(seconds/2, len(h.batchUs)+minTracedRounds, maxLoopSeconds/2)
	return win
}

// minTracedRounds is the fewest rounds a traced half covers.
const minTracedRounds = 128

// occParallelMin mirrors the resident-session count from which
// sim.RunOccupancy fans its visibility and clash scans out.
const occParallelMin = 4096

// ingestLayers replays the run and decomposes the traced batches. The
// replay must agree with the program before its layer spans are used.
// It drops the program's Directory first, so the replay runs on a heap
// of the same size the program ran on.
func ingestLayers(h *ingestRun, win *ingestWindow, o *outcome, dir string) error {
	tr := win.tr
	traced := h.batchUs[len(win.untraced):]
	dgrams := h.dgrams - win.dgrams
	end := counters(h.dir.Registry())
	h.dir, h.store = nil, nil
	runtime.GC()
	rec := newTracer()
	m := newMirror(h, rec)
	m.run(h.spec, h.rounds, win.from)
	o.violations = append(o.violations, m.check(end)...)

	vals := map[string]float64{}
	in := tr.sum(stBatch)
	rp := rec.sum(stBatch)
	width := float64(min(runtime.GOMAXPROCS(0), batchDepth))
	st := newStageSum()
	for id, total := range in.roots {
		c, rc := in.child[id], rp.child[id]
		if c == nil {
			c = new([numStages]int64)
		}
		if rc == nil {
			o.violations = append(o.violations, fmt.Sprintf("replay has no spans for batch %d", id))
			continue
		}
		// The parse phase fans out over GOMAXPROCS workers in situ but
		// runs serially in the replay, so it counts at 1/width.
		st.addRoot(float64(total))
		st.add("sap", float64(rc[stDecode])/width)
		st.add("session", float64(rc[stParse])/width+float64(rc[stKey]))
		st.add("admission", float64(rc[stAllow]+rc[stPlan]))
		st.add("announce", float64(rc[stPeek]+rc[stObserve]+rc[stRemove]))
		st.add("clash", float64(rc[stTrack]+rc[stTrackOther]))
		st.add("transport", float64(c[stSend]))
		st.add("storage", float64(c[stFS]))
		st.add("allocator", float64(c[stAlloc]))
	}
	o.violations = append(o.violations, st.report(vals)...)
	vals["sessiondir.apply_self_us"] = vals["trace.residual_us"]
	vals["trace.overhead_us"] = quantile(traced, 0.5) - quantile(win.untraced, 0.5)

	cr := tr.sum(stCreate)
	var createSelf float64
	for id, total := range cr.roots {
		c := cr.child[id]
		if c == nil {
			c = new([numStages]int64)
		}
		createSelf += float64(total - c[stAlloc] - c[stSend] - c[stFS])
	}
	if len(cr.roots) > 0 {
		vals["sessiondir.create_self_us"] = createSelf / float64(len(cr.roots)) / 1e3
	}
	vals["sessiondir.step_ms"] = in.mean(stStep, time.Millisecond)
	vals["sessiondir.allocs_per_dgram"] = win.allocsPerDgram
	vals["transport.sends_per_kdgram"] = perK(h.tp.sends-win.sends, dgrams)
	vals["transport.send_us"] = in.mean(stSend, time.Microsecond)
	vals["sap.decode_ns"] = rp.mean(stDecode, time.Nanosecond)
	vals["sap.malformed"] = float64(m.counts.malformed)
	vals["session.parse_ns"] = rp.mean(stParse, time.Nanosecond)
	vals["session.parse_allocs"] = m.parseAllocs()
	vals["session.key_ns"] = ratio(rp.ns[stKey], m.keyCalls)
	vals["admission.allow_ns"] = rp.mean(stAllow, time.Nanosecond)
	vals["admission.plan_us"] = rp.mean(stPlan, time.Microsecond)
	vals["admission.plan_candidates"] = ratio(m.planCands, m.plans)
	vals["admission.admit_ratio"] = ratio(m.admitted, m.plans)
	vals["admission.evictions_per_kdgram"] = perK(m.evictions, m.dgrams)
	vals["announce.observe_ns"] = rp.mean(stObserve, time.Nanosecond)
	vals["announce.peek_ns"] = rp.mean(stPeek, time.Nanosecond)
	vals["announce.fresh_ratio"] = ratio(m.fresh, m.observes)
	vals["announce.expire_us"] = rp.mean(stExpire, time.Microsecond)
	vals["clash.observe_us"] = rp.mean(stTrack, time.Microsecond)
	vals["clash.due_us"] = rp.mean(stDue, time.Microsecond)
	vals["clash.actions_per_kdgram"] = perK(m.actions, m.dgrams)
	vals["clash.pending_max"] = float64(m.pendingMax)
	if h.fs != nil {
		var appendNs, appends int64
		for _, root := range []stage{stBatch, stCreate, stWithdraw, stStep} {
			s := tr.sum(root)
			for _, c := range s.child {
				if c[stFS] > 0 {
					appendNs += c[stFS]
					appends++
				}
			}
		}
		vals["storage.append_us"] = ratio(appendNs, appends) / 1e3
		vals["storage.bytes_per_kdgram"] = perK(h.fs.bytes-win.fsBytes, dgrams)
		vals["storage.syncs_per_kdgram"] = perK(h.fs.syncs-win.fsSyncs, dgrams)
		vals["storage.checkpoint_ms"] = in.mean(stCheckpoint, time.Millisecond)
		vals["storage.errors"] = float64(h.fs.errs) + end["cache_journal_append_errors_total"] + end["cache_checkpoint_errors_total"]
	}
	var kindTotal int64
	for _, ns := range m.kindNs {
		kindTotal += ns
	}
	for k, ns := range m.kindNs {
		vals["mix."+kindNames[k]+"_share"] = ratio(ns, kindTotal)
	}
	vals["allocator.alloc_us"] = in.mean(stAlloc, time.Microsecond)
	vals["allocator.view_len"] = ratio(h.alloc.viewLen-win.allocView, h.alloc.calls-win.allocCalls)
	vals["allocator.failures"] = float64(h.alloc.failures)
	o.layers = layerMetrics(vals)
	o.notes = append(o.notes, fmt.Sprintf("traced rounds %d..%d, %d batches decomposed; untraced batch p50 %.1f us, traced %.1f us",
		win.from, h.rounds-1, st.n, quantile(win.untraced, 0.5), quantile(traced, 0.5)))
	return dumpSpans(dir, tr, rec)
}

func dumpSpans(dir string, insitu, replay *tracer) error {
	if err := insitu.dump(filepath.Join(dir, "spans-insitu.csv")); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := replay.dump(filepath.Join(dir, "spans-replay.csv")); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// occReplay re-runs one occupancy run through the serial sim.World with
// the same seed, drawing exactly the random numbers RunOccupancy draws,
// and times VisibleAt, Clashes and the reach lookup of each placement
// from index from on (fill placements count from 0, churn placements
// follow).
type occReplay struct {
	res              sim.OccupancyResult
	visible, clashes []int64 // ns per placement index, -1 when not run
	reach            []int64
	enter, exit      []int64 // Allocate entry and exit, ns since the replay began
	visLen, visN     int64
	classes          int
}

func replayOccupancy(w *occWorld, sc scale, seed uint64, from int) *occReplay {
	total := sc.occSessions + sc.occChurn
	rp := &occReplay{visible: make([]int64, total), clashes: make([]int64, total), reach: make([]int64, total),
		enter: make([]int64, total), exit: make([]int64, total)}
	base := time.Now()
	for i := range rp.visible {
		rp.visible[i], rp.clashes[i], rp.reach[i] = -1, -1, -1
	}
	rng := stats.NewRNG(seed)
	world := sim.NewWorldWithCache(w.g, w.cache)
	alloc := allocator.NewHybrid(sc.occSpace)
	dist := mcast.DS4()
	n := w.g.NumNodes()
	place := func(k int, clashes *int) {
		origin := topology.NodeID(rng.IntN(n))
		ttl := dist.Sample(rng.IntN)
		t0 := time.Now()
		visible := world.VisibleAt(origin)
		if k >= from {
			rp.visible[k] = int64(time.Since(t0))
			rp.visLen += int64(len(visible))
			rp.visN++
		}
		rp.enter[k] = int64(time.Since(base))
		addr, err := alloc.Allocate(visible, ttl, rng)
		rp.exit[k] = int64(time.Since(base))
		if err != nil {
			rp.res.Exhausted++
			return
		}
		t0 = time.Now()
		c := world.Clashes(origin, ttl, addr)
		t1 := time.Now()
		w.cache.Reach(origin, ttl)
		t2 := time.Now()
		if k >= from {
			rp.clashes[k] = int64(t1.Sub(t0))
			rp.reach[k] = int64(t2.Sub(t1))
		}
		if c {
			*clashes++
		}
		world.Add(origin, ttl, addr)
	}
	for k := 0; k < sc.occSessions; k++ {
		place(k, &rp.res.FillClashes)
	}
	rp.res.Placed = len(world.Sessions)
	for j := 0; j < sc.occChurn && len(world.Sessions) > 0; j++ {
		world.RemoveAt(rng.IntN(len(world.Sessions)))
		place(sc.occSessions+j, &rp.res.ChurnClashes)
	}
	// Reach classes: distinct reach sets, by content, among the residents.
	seen := map[*topology.NodeSet]bool{}
	classes := map[string]bool{}
	for _, s := range world.Sessions {
		set := w.cache.Reach(s.Origin, s.TTL)
		if seen[set] {
			continue
		}
		seen[set] = true
		classes[fmt.Sprint(set.Members())] = true
	}
	rp.classes = len(classes)
	return rp
}

// traceOccupancy is the traced occupancy run: one untraced repetition
// (the overhead baseline), one with the allocator's spans recorded, then
// the serial replay that decomposes each churn placement.
func traceOccupancy(w *occWorld, sc scale, seed uint64, o *outcome, dir string) error {
	alloc := &benchAlloc{inner: allocator.NewHybrid(sc.occSpace), stamps: true, base: time.Now()}
	cfg := w.config(sc, seed, alloc)
	sim.RunOccupancy(cfg)
	var untraced []float64
	for k := sc.occSessions; k < len(alloc.enter); k++ {
		untraced = append(untraced, float64(alloc.enter[k]-alloc.enter[k-1]))
	}
	tr := newTracer()
	*alloc = benchAlloc{inner: allocator.NewHybrid(sc.occSpace), stamps: true, base: tr.base, tr: tr}
	res := sim.RunOccupancy(cfg)
	o.digest = occDigest(res)
	placements := int64(sc.occSessions + sc.occChurn)
	o.attempted, o.failed = placements, int64(res.Exhausted)

	rp := replayOccupancy(w, sc, seed, sc.occSessions-1)
	if d := occDigest(rp.res); d != o.digest {
		o.violations = append(o.violations, fmt.Sprintf("replay reached %q, program %q", d, o.digest))
	}
	width := float64(min(runtime.GOMAXPROCS(0), 8)) // RunOccupancy's default partitions
	if sc.occSessions < occParallelMin {
		width = 1
	}
	st := newStageSum()
	var traced []float64
	var allocNs, visNs, clashNs, reachNs, visN, clashN int64
	for k := sc.occSessions; k < len(alloc.enter); k++ {
		interval := alloc.enter[k] - alloc.enter[k-1]
		traced = append(traced, float64(interval))
		allocNs += alloc.exit[k] - alloc.enter[k]
		if rp.visible[k] >= 0 {
			visNs += rp.visible[k]
			visN++
		}
		if rp.clashes[k] >= 0 {
			clashNs += rp.clashes[k]
			reachNs += rp.reach[k]
			clashN++
		}
		// The interval holds the previous placement's Allocate, Clashes
		// and Add, and this placement's RemoveAt and VisibleAt. The scans
		// fan out over width workers in situ and run serially in the
		// replay, so they count at 1/width; the replay's reach lookup
		// stands for the one Add makes.
		a := alloc.exit[k-1] - alloc.enter[k-1]
		st.addRoot(float64(interval))
		if v := rp.visible[k]; v >= 0 {
			st.add("sim", float64(v)/width)
		}
		if c := rp.clashes[k-1]; c >= 0 {
			st.add("sim", float64(c)/width)
			st.add("topology", float64(rp.reach[k-1]))
		}
		st.add("allocator", float64(a))
	}
	vals := map[string]float64{}
	o.violations = append(o.violations, st.report(vals)...)
	vals["sim.world_other_us"] = vals["trace.residual_us"]
	vals["trace.overhead_us"] = (quantile(traced, 0.5) - quantile(untraced, 0.5)) / 1e3
	churn := int64(len(traced))
	vals["allocator.alloc_us"] = ratio(allocNs, churn) / 1e3
	vals["allocator.view_len"] = ratio(alloc.viewLen, alloc.calls)
	vals["allocator.failures"] = float64(alloc.failures)
	vals["sim.visible_us"] = ratio(visNs, visN) / 1e3
	vals["sim.visible_len"] = ratio(rp.visLen, rp.visN)
	vals["sim.clashes_us"] = ratio(clashNs, clashN) / 1e3
	vals["sim.clash_ratio"] = ratio(int64(res.FillClashes+res.ChurnClashes), placements)
	vals["topology.reach_classes"] = float64(rp.classes)
	vals["topology.reach_ns"] = ratio(reachNs, clashN)
	o.layers = layerMetrics(vals)
	// Placement spans for the dump, rebuilt from the allocator stamps.
	for k := sc.occSessions; k < len(alloc.enter); k++ {
		tr.spans = append(tr.spans, span{start: alloc.enter[k-1], end: alloc.enter[k], parent: -1, id: int32(k), name: stPlace})
	}
	replay := newTracer()
	for k := range rp.visible {
		if rp.visible[k] >= 0 {
			replay.spans = append(replay.spans, span{end: rp.visible[k], parent: -1, id: int32(k), name: stVisible})
		}
		if rp.clashes[k] >= 0 {
			replay.spans = append(replay.spans,
				span{end: rp.clashes[k], parent: -1, id: int32(k), name: stClashes},
				span{end: rp.reach[k], parent: -1, id: int32(k), name: stReach})
		}
	}
	o.notes = append(o.notes, fmt.Sprintf("traced %d churn placements; untraced p50 %.1f us, traced %.1f us",
		churn, quantile(untraced, 0.5)/1e3, quantile(traced, 0.5)/1e3))
	return dumpSpans(dir, tr, replay)
}
