package admission

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// planNewSorted is PlanNew by brute force: sort the whole population into
// eviction order, then walk it evicting until each bound is met. It is
// the oracle for PlanNew's selection.
func (c *Controller) planNewSorted(cands []Candidate, origin netip.Addr, now time.Time) Decision {
	var d Decision
	ordered := evictionOrder(cands)
	evicted := make(map[string]bool)

	if c.cfg.MaxPerOrigin > 0 {
		mine := 0
		for _, e := range cands {
			if e.Origin == origin {
				mine++
			}
		}
		for _, e := range ordered {
			if mine < c.cfg.MaxPerOrigin {
				break
			}
			if e.Origin == origin && c.evictable(&e, now) && !evicted[e.Key] {
				evicted[e.Key] = true
				d.Evict = append(d.Evict, e.Key)
				mine--
			}
		}
		if mine >= c.cfg.MaxPerOrigin {
			d.Outcome = DenyQuota
			return d
		}
	}

	if c.cfg.MaxSessions > 0 {
		total := len(cands) - len(d.Evict)
		for _, e := range ordered {
			if total < c.cfg.MaxSessions {
				break
			}
			if c.evictable(&e, now) && !evicted[e.Key] {
				evicted[e.Key] = true
				d.Evict = append(d.Evict, e.Key)
				total--
			}
		}
		if total >= c.cfg.MaxSessions {
			d.Outcome = Shed
			return d
		}
	}
	d.Outcome = Admit
	return d
}

// TestPlanNewMatchesSorted drives PlanNew and the sort-based oracle
// through random populations — tombstones, LastHeard and TTL ties on
// both sides of StaleAfter, a few origins, limits of 0 — and requires
// the identical Decision, eviction order included.
func TestPlanNewMatchesSorted(t *testing.T) {
	const staleAfter = 10 * time.Minute
	rng := stats.NewRNG(2026)
	base := t0()
	seen := map[string]int{}
	for trial := 0; trial < 20000; trial++ {
		n := rng.IntN(40)
		cands := make([]Candidate, n)
		for i, k := range rng.Perm(n) {
			cands[i] = Candidate{
				Key:       fmt.Sprintf("k%02d", k),
				Origin:    origin(rng.IntN(4)),
				TTL:       []mcast.TTL{1, 15, 63}[rng.IntN(3)],
				LastHeard: base.Add(time.Duration(rng.IntN(6)) * staleAfter / 2),
				Deleted:   rng.Bool(0.15),
			}
		}
		cfg := Config{StaleAfter: staleAfter}
		if rng.Bool(0.8) {
			cfg.MaxSessions = rng.IntN(n + 2)
		}
		if rng.Bool(0.6) {
			cfg.MaxPerOrigin = rng.IntN(n/3 + 2)
		}
		c := New(cfg)
		from := origin(rng.IntN(5))
		now := base.Add(time.Duration(rng.IntN(8)) * staleAfter / 2)
		got, want := c.PlanNew(cands, from, now), c.planNewSorted(cands, from, now)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%+v, origin %v, now +%v): PlanNew %+v, oracle %+v\n%+v",
				trial, cfg, from, now.Sub(base), got, want, cands)
		}
		seen[fmt.Sprintf("%v/evicts=%t", got.Outcome, len(got.Evict) > 0)]++
	}
	for _, k := range []string{"admit/evicts=true", "admit/evicts=false", "shed/evicts=true", "shed/evicts=false", "deny-quota/evicts=true", "deny-quota/evicts=false"} {
		if seen[k] == 0 {
			t.Errorf("no trial reached %s: %v", k, seen)
		}
	}
}

// TestSweepBucketsKeepsVerdicts replays one seeded packet trace through
// two limiters, one swept every tick and one never swept. Origins churn
// through a sliding window, so the unswept table overflows MaxOrigins and
// reclaims; with fewer than MaxOrigins/2 origins short of a full bucket
// at any time, every verdict and every early-drop draw must agree.
func TestSweepBucketsKeepsVerdicts(t *testing.T) {
	const maxOrigins = 64
	cfg := func() Config {
		return Config{OriginRate: 2, OriginBurst: 8, MaxOrigins: maxOrigins, RNG: stats.NewRNG(5)}
	}
	swept, kept := New(cfg()), New(cfg())
	trace := stats.NewRNG(6)
	now := t0()
	allowed, dropped, maxSwept := 0, 0, 0
	for tick := 0; tick < 600; tick++ {
		swept.SweepBuckets(now)
		maxSwept = max(maxSwept, swept.Origins())
		for p := 0; p < 40; p++ {
			at := now.Add(time.Duration(p) * 25 * time.Millisecond)
			// A window of 16 origins sliding by one a tick; its first
			// origin floods, draining its bucket into the early-drop band.
			o := origin(tick + trace.IntN(16))
			if p%3 == 0 {
				o = origin(tick)
			}
			a, b := swept.Allow(o, at), kept.Allow(o, at)
			if a != b {
				t.Fatalf("tick %d packet %d from %v: swept limiter says %t, unswept %t", tick, p, o, a, b)
			}
			if a {
				allowed++
			} else {
				dropped++
			}
		}
		now = now.Add(time.Second)
	}
	if swept.cfg.RNG.Uint64() != kept.cfg.RNG.Uint64() {
		t.Fatal("early-drop RNG streams diverged")
	}
	if kept.Stats().BucketGCs == 0 || swept.Stats().BucketGCs != 0 {
		t.Fatalf("bucket reclaims: unswept %d, swept %d; the trace should overflow only the unswept table",
			kept.Stats().BucketGCs, swept.Stats().BucketGCs)
	}
	if allowed == 0 || dropped == 0 || maxSwept >= maxOrigins/2 {
		t.Fatalf("allowed %d, dropped %d, swept table peaked at %d origins", allowed, dropped, maxSwept)
	}
}
