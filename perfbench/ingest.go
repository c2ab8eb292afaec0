package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"sessiondir"
	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/storage"
	"sessiondir/internal/transport"
)

// storeBase is the cache store's file name inside the MemFS.
const storeBase = "sdcache"

// ingestRun is one ingest workload wired to a Directory through the
// benchmark's transport, allocator and (ingest-churn) filesystem.
type ingestRun struct {
	spec  *ingestSpec
	sc    scale
	seed  uint64
	clock time.Time
	tr    *tracer
	tp    *benchTransport
	fs    *benchFS
	alloc *benchAlloc
	dir   *sessiondir.Directory
	store *sessiondir.CacheStore
	own   []string            // own session keys, oldest first
	buf   []transport.Message // batch scratch, refilled from the spec before each HandleBatch

	setupCounters map[string]float64
	rounds        int              // rounds run so far
	dgrams        int64            // datagrams handed to HandleBatch in the loop
	calls, errs   int64            // CreateSession/WithdrawSession calls and their errors
	loopNs        int64            // summed duration of every timed call
	loopCPU       int64            // summed process CPU time of every timed call
	rootCPU       [numStages]int64 // loopCPU by root call
	batchUs       []float64
	callUs        []float64 // Step (ingest-refresh) or CreateSession (ingest-churn)
	batchCPU      []float64 // process CPU µs per batch
	callCPU       []float64 // caller-thread CPU µs per call
	countAllocs   bool      // count heap allocations around each HandleBatch
	batchAllocs   uint64    // allocations counted so far
	digest        string
	violations    []string
	failNotes     []string
}

func (h *ingestRun) config() sessiondir.Config {
	c := sessiondir.Config{
		Origin:    ownOrigin,
		Transport: h.tp,
		Allocator: h.alloc,
		Clock:     func() time.Time { return h.clock },
		Seed:      h.seed,
	}
	if h.spec.churn {
		c.MaxSessions = h.sc.churnBudget
		c.MaxPerOrigin = churnPerOrigin
		c.OriginRate = churnOriginRate
		c.OriginBurst = churnOriginBurst
		c.StaleAfter = churnStaleAfter
	}
	return c
}

// defaultAllocator is the allocator a Directory uses when none is
// configured (AIPR-1 with a 20% gap budget); the benchmark names it so
// it can wrap it.
func defaultAllocator() allocator.Allocator {
	return allocator.NewAdaptive(mcast.SAPDynamicSpace().Size, allocator.AdaptiveConfig{
		GapFraction: 0.2,
		Name:        "AIPR-1 (20% gap)",
	})
}

// setupIngest generates the workload's inputs and brings a Directory to
// the loop's starting state: the 20k preload (ingest-refresh), or the
// store open and budget fill (ingest-churn).
func setupIngest(churn bool, sc scale, seed uint64, tr *tracer) (*ingestRun, error) {
	spec := genRefresh
	if churn {
		spec = genChurn
	}
	h := &ingestRun{spec: spec(sc, seed), sc: sc, seed: seed, clock: epoch, tr: tr, tp: &benchTransport{tr: tr}}
	h.alloc = &benchAlloc{inner: defaultAllocator(), tr: tr}
	d, err := sessiondir.New(h.config())
	if err != nil {
		return nil, fmt.Errorf("new directory: %w", err)
	}
	h.dir = d
	if churn {
		h.fs = &benchFS{mem: storage.NewMemFS(), tr: tr}
		cs, _, err := sessiondir.OpenCacheStore(h.fs, storeBase, d)
		if err != nil {
			return nil, fmt.Errorf("open cache store: %w", err)
		}
		if err := cs.Checkpoint(); err != nil {
			return nil, fmt.Errorf("first checkpoint: %w", err)
		}
		h.store = cs
	}
	for _, b := range h.spec.preload {
		h.clock = epoch.Add(b.at)
		h.buf = h.spec.pool.messages(b.dgrams, h.buf)
		d.HandleBatch(h.buf)
	}
	if h.store != nil {
		if err := h.store.Checkpoint(); err != nil {
			return nil, fmt.Errorf("set-up checkpoint: %w", err)
		}
	}
	h.clock = epoch.Add(h.spec.loopStart - time.Second)
	d.Step(h.clock)
	h.setupCounters = counters(d.Registry())
	return h, nil
}

// timed runs fn as a root call and returns its duration and CPU time,
// in µs. A batch reports the process's CPU time, since its parse phase
// fans out over several threads. The other calls run on the caller's
// goroutine alone: they are pinned to its thread and report that
// thread's CPU time, which leaves out the garbage collector's
// background workers running beside them on other cores.
func (h *ingestRun) timed(name stage, id int, fn func()) (wall, cpu float64) {
	s := h.tr.root(name, int32(id))
	pin := name != stBatch
	if pin {
		runtime.LockOSThread()
	}
	c0, own0, t0 := cpuNow(), threadCPU(), time.Now()
	fn()
	d, c, own := time.Since(t0), cpuNow()-c0, threadCPU()-own0
	if pin {
		runtime.UnlockOSThread()
	} else {
		own = c
	}
	h.tr.closeRoot(s)
	h.loopNs += int64(d)
	h.loopCPU += c
	h.rootCPU[name] += c
	return us(d), float64(own) / 1e3
}

// round runs timed-loop round r: one batch, then (ingest-churn) one
// CreateSession and, past churnMaxOwn own sessions, a WithdrawSession,
// then the Step of that virtual second, and a Checkpoint at its cadence.
func (h *ingestRun) round(r int) {
	h.clock = epoch.Add(h.spec.loopStart + time.Duration(r)*time.Second)
	msgs := h.spec.pool.messages(h.spec.round(r), h.buf)
	h.buf = msgs
	var before uint64
	if h.countAllocs {
		before = heapAllocs()
	}
	wall, cpu := h.timed(stBatch, r, func() { h.dir.HandleBatch(msgs) })
	h.batchUs, h.batchCPU = append(h.batchUs, wall), append(h.batchCPU, cpu)
	if h.countAllocs {
		h.batchAllocs += heapAllocs() - before
	}
	h.dgrams += int64(len(msgs))
	if h.spec.churn {
		h.checkBudget("batch", r)
		if len(h.own) >= churnMaxOwn {
			key := h.own[0]
			h.own = h.own[1:]
			h.calls++
			h.timed(stWithdraw, r, func() {
				if err := h.dir.WithdrawSession(key); err != nil {
					h.errs++
				}
			})
		}
		h.calls++
		desc := h.spec.create(r)
		wall, cpu := h.timed(stCreate, r, func() {
			out, err := h.dir.CreateSession(desc)
			if err != nil {
				h.errs++
				return
			}
			h.own = append(h.own, out.Key())
		})
		h.callUs, h.callCPU = append(h.callUs, wall), append(h.callCPU, cpu)
	}
	wall, cpu = h.timed(stStep, r, func() { h.dir.Step(h.clock) })
	if !h.spec.churn {
		h.callUs, h.callCPU = append(h.callUs, wall), append(h.callCPU, cpu)
	}
	if h.store != nil && (r+1)%churnCheckpoint == 0 {
		h.timed(stCheckpoint, r, func() {
			if err := h.store.Checkpoint(); err != nil {
				h.errs++
			}
		})
	}
	h.rounds = r + 1
	if h.rounds == h.sc.gateRounds {
		h.digest = ingestDigest(counters(h.dir.Registry()))
	}
	if h.spec.churn {
		h.checkBudget("Step", r)
	}
}

// checkBudget checks that the listened-session cache is within its
// budget after a batch or a Step. CacheSize reads the cache's total and
// changes nothing, so the check cannot alter the run.
func (h *ingestRun) checkBudget(after string, r int) {
	if n := h.dir.CacheSize(); n > h.sc.churnBudget {
		h.violate("round %d: cache holds %d sessions after %s, budget %d", r, n, after, h.sc.churnBudget)
	}
}

func (h *ingestRun) violate(format string, args ...any) {
	if len(h.violations) < 8 {
		h.violations = append(h.violations, fmt.Sprintf(format, args...))
	}
}

// loop runs rounds until it has lasted seconds, covered the digest
// window and collected minSamples of each timing (or lasted maxSeconds
// short of them), or the stream ends.
func (h *ingestRun) loop(seconds float64, minSamples int, maxSeconds float64) {
	start := time.Now()
	for {
		if !h.spec.cyclic && h.rounds >= h.spec.numRounds() {
			return
		}
		el := time.Since(start).Seconds()
		if h.rounds >= h.sc.gateRounds && el >= seconds &&
			(len(h.batchUs) >= minSamples && len(h.callUs) >= minSamples || el >= maxSeconds) {
			return
		}
		h.round(h.rounds)
	}
}

// maxLoopSeconds caps the loop time of a run that is still short of
// minSamples, so a run ends within the time a benchmark run is allowed.
const maxLoopSeconds = 100

// finish checks the end-of-run invariants.
func (h *ingestRun) finish() {
	end := counters(h.dir.Registry())
	delta := func(name string) float64 { return end[name] - h.setupCounters[name] }
	if !h.spec.churn {
		if n := delta("dir_sessions_learned_total"); n != 0 {
			h.violate("ingest-refresh learned %.0f sessions in its timed loop", n)
		}
		if h.tp.sends != 0 {
			h.violate("ingest-refresh sent %d datagrams in its timed loop", h.tp.sends)
		}
		return
	}
	own := map[string]bool{}
	ownAddr := map[string]string{}
	for _, d := range h.dir.OwnSessions() {
		own[d.Key()] = true
		ownAddr[d.Group.String()] = d.Key()
	}
	live := map[string]string{}
	for _, d := range h.dir.Sessions() {
		if own[d.Key()] {
			continue
		}
		live[d.Key()] = fmt.Sprintf("v%d %s/%d", d.Version, d.Group, d.TTL)
		if k, ok := ownAddr[d.Group.String()]; ok {
			h.violate("own session %s shares %s with cached %s", k, d.Group, d.Key())
		}
	}
	if err := h.store.Close(); err != nil {
		h.violate("close cache store: %v", err)
		return
	}
	// Recovery: a fresh directory over the same files must come back
	// with exactly the live cache.
	fresh := &ingestRun{spec: h.spec, sc: h.sc, seed: h.seed, clock: h.clock, tp: &benchTransport{}}
	fresh.alloc = &benchAlloc{inner: defaultAllocator()}
	d2, err := sessiondir.New(fresh.config())
	if err != nil {
		h.violate("recovery directory: %v", err)
		return
	}
	if _, _, err := sessiondir.OpenCacheStore(h.fs.mem, storeBase, d2); err != nil {
		h.violate("reopen cache store: %v", err)
		return
	}
	got := map[string]string{}
	for _, d := range d2.Sessions() {
		got[d.Key()] = fmt.Sprintf("v%d %s/%d", d.Version, d.Group, d.TTL)
	}
	if len(got) != len(live) {
		h.violate("recovered %d sessions, live cache holds %d", len(got), len(live))
	}
	for k, v := range live {
		if got[k] != v {
			h.violate("recovered %s as %q, live %q", k, got[k], v)
		}
	}
}

// shares describes the loop's make-up: each datagram kind's share of
// the datagrams sent, and each root call's share of the process CPU time
// of the timed calls.
func (h *ingestRun) shares() string {
	var b strings.Builder
	b.WriteString("datagram shares:")
	var n [numKinds]int
	for r := 0; r < h.rounds; r++ {
		for i := range h.spec.round(r) {
			k := kindRefresh
			if h.spec.kinds != nil {
				k = h.spec.kinds[r%h.spec.numRounds()*batchDepth+i]
			}
			n[k]++
		}
	}
	for k, c := range n {
		fmt.Fprintf(&b, " %s=%.4f", kindNames[k], ratio(int64(c), h.dgrams))
	}
	b.WriteString("; cpu shares:")
	for _, st := range []stage{stBatch, stCreate, stWithdraw, stStep, stCheckpoint} {
		fmt.Fprintf(&b, " %s=%.4f", stageNames[st], ratio(h.rootCPU[st], h.loopCPU))
	}
	return b.String()
}

// dropDirectory releases the Directory and its cache store and returns
// the heap they held: the live heap with them reachable minus the live
// heap once they are gone. The generated input, the MemFS and the
// benchmark's samples stay live throughout, so they cancel out.
func (h *ingestRun) dropDirectory() float64 {
	with := liveHeap()
	h.dir, h.store = nil, nil
	return with - liveHeap()
}

// failures counts the loop's failed operations: datagrams dropped as
// malformed, over quota, forged or shed, failed directory calls, and
// journal or checkpoint errors.
func (h *ingestRun) failures() int64 {
	end := counters(h.dir.Registry())
	n := h.errs
	for _, name := range []string{
		"dir_packets_malformed_total", "dir_admission_quota_drops_total",
		"dir_admission_forged_reports_total", "dir_admission_forged_deletes_total",
		"dir_admission_shed_total", "dir_degraded_learns_shed_total",
		"cache_journal_append_errors_total", "cache_checkpoint_errors_total",
	} {
		if k := int64(end[name] - h.setupCounters[name]); k != 0 {
			n += k
			h.failNotes = append(h.failNotes, fmt.Sprintf("%s=%d", name, k))
		}
	}
	return n
}

// counters reads the registry into a name→value map.
func counters(r *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, m := range r.Snapshot() {
		out[m.Name] = m.Value
	}
	return out
}

// ingestDigest is the outcome record the correctness gate compares.
func ingestDigest(c map[string]float64) string {
	return fmt.Sprintf("learned=%.0f evicted=%.0f shed=%.0f+%.0f defend_own=%.0f defend_third=%.0f "+
		"defend_suppressed=%.0f moves=%.0f announced=%.0f withdrawn=%.0f journal=%.0f cache=%.0f",
		c["dir_sessions_learned_total"], c["dir_admission_evictions_total"],
		c["dir_admission_shed_total"], c["dir_degraded_learns_shed_total"],
		c["dir_clash_defenses_own_total"], c["dir_clash_defenses_third_total"],
		c["dir_degraded_defenses_suppressed_total"], c["dir_clash_moves_total"],
		c["dir_announcements_sent_total"], c["dir_deletions_sent_total"],
		c["cache_journal_records_total"], c["dir_cache_sessions"])
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
