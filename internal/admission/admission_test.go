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

func origin(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i & 0xff)})
}

func t0() time.Time { return time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC) }

func TestAllowUnlimitedByDefault(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 1000; i++ {
		if !c.Allow(origin(1), t0()) {
			t.Fatal("zero config must admit everything")
		}
	}
	if c.Origins() != 0 {
		t.Fatalf("unlimited limiter tracked %d origins, want 0", c.Origins())
	}
}

func TestAllowBucketDrainAndRefill(t *testing.T) {
	c := New(Config{OriginRate: 1, OriginBurst: 4, RNG: stats.NewRNG(1)})
	now := t0()
	admitted := 0
	for i := 0; i < 20; i++ {
		if c.Allow(origin(1), now) {
			admitted++
		}
	}
	if admitted == 0 || admitted > 4 {
		t.Fatalf("burst of 4 admitted %d packets", admitted)
	}
	// Ten quiet seconds refill the bucket to its (clamped) depth.
	now = now.Add(10 * time.Second)
	if !c.Allow(origin(1), now) {
		t.Fatal("refilled bucket denied a packet")
	}
	// A second origin has its own budget.
	if !c.Allow(origin(2), now) {
		t.Fatal("fresh origin denied its first packet")
	}
}

func TestAllowDeterministicReplay(t *testing.T) {
	run := func() []bool {
		c := New(Config{OriginRate: 2, OriginBurst: 8, RNG: stats.NewRNG(42)})
		now := t0()
		var out []bool
		for i := 0; i < 200; i++ {
			if i%5 == 0 {
				now = now.Add(time.Second)
			}
			out = append(out, c.Allow(origin(i%3), now))
		}
		return out
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different admission sequences")
	}
}

func TestBucketTableBounded(t *testing.T) {
	c := New(Config{OriginRate: 1, MaxOrigins: 64, RNG: stats.NewRNG(7)})
	now := t0()
	for i := 0; i < 10_000; i++ {
		c.Allow(origin(i), now)
	}
	if got := c.Origins(); got > 64 {
		t.Fatalf("bucket table grew to %d origins under churn, budget 64", got)
	}
}

func mkCand(key string, org netip.Addr, ttl mcast.TTL, heard time.Time, deleted bool) Candidate {
	return Candidate{Key: key, Origin: org, TTL: ttl, LastHeard: heard, Deleted: deleted}
}

func TestPlanNewStaleFirstThenTTL(t *testing.T) {
	now := t0().Add(time.Hour)
	c := New(Config{MaxSessions: 3, StaleAfter: 10 * time.Minute})
	cands := []Candidate{
		mkCand("b", origin(2), 127, now.Add(-20*time.Minute), false), // stale, wide scope
		mkCand("a", origin(1), 15, now.Add(-20*time.Minute), false),  // stale, narrow scope
		mkCand("c", origin(3), 127, now.Add(-time.Minute), false),    // fresh
	}
	d := c.PlanNew(cands, origin(4), now)
	if d.Outcome != Admit {
		t.Fatalf("outcome %v, want admit", d.Outcome)
	}
	// Both stale entries heard at the same instant: the narrower TTL goes.
	if len(d.Evict) != 1 || d.Evict[0] != "a" {
		t.Fatalf("evicted %v, want [a] (lowest TTL among equally stale)", d.Evict)
	}
}

func TestPlanNewTombstonesBeforeStale(t *testing.T) {
	now := t0().Add(time.Hour)
	c := New(Config{MaxSessions: 2, StaleAfter: 10 * time.Minute})
	cands := []Candidate{
		mkCand("stale", origin(1), 15, now.Add(-30*time.Minute), false),
		mkCand("tomb", origin(2), 127, now.Add(-time.Minute), true),
	}
	d := c.PlanNew(cands, origin(3), now)
	if d.Outcome != Admit || len(d.Evict) != 1 || d.Evict[0] != "tomb" {
		t.Fatalf("got %+v, want admit evicting [tomb]", d)
	}
}

func TestPlanNewShedsWhenAllFresh(t *testing.T) {
	now := t0()
	c := New(Config{MaxSessions: 2, StaleAfter: 10 * time.Minute})
	cands := []Candidate{
		mkCand("a", origin(1), 127, now, false),
		mkCand("b", origin(2), 127, now, false),
	}
	d := c.PlanNew(cands, origin(3), now)
	if d.Outcome != Shed || len(d.Evict) != 0 {
		t.Fatalf("got %+v, want shed with no evictions (drop-newest)", d)
	}
}

func TestPlanNewPerOriginQuota(t *testing.T) {
	now := t0()
	c := New(Config{MaxPerOrigin: 2, StaleAfter: 10 * time.Minute})
	cands := []Candidate{
		mkCand("x1", origin(1), 127, now, false),
		mkCand("x2", origin(1), 127, now, false),
		mkCand("y1", origin(2), 127, now, false),
	}
	if d := c.PlanNew(cands, origin(1), now); d.Outcome != DenyQuota {
		t.Fatalf("over-quota origin got %v, want deny-quota", d.Outcome)
	}
	if d := c.PlanNew(cands, origin(2), now); d.Outcome != Admit {
		t.Fatalf("under-quota origin got %v, want admit", d.Outcome)
	}
	// A stale entry of the same origin is reclaimed instead of denying.
	cands[0].LastHeard = now.Add(-time.Hour)
	d := c.PlanNew(cands, origin(1), now)
	if d.Outcome != Admit || len(d.Evict) != 1 || d.Evict[0] != "x1" {
		t.Fatalf("got %+v, want admit evicting [x1]", d)
	}
}

func TestTrimPlanDeterministicAndSufficient(t *testing.T) {
	now := t0()
	c := New(Config{MaxSessions: 4, MaxPerOrigin: 2})
	var cands []Candidate
	for i := 0; i < 10; i++ {
		cands = append(cands, mkCand(
			fmt.Sprintf("k%02d", i), origin(i%3), 127,
			now.Add(-time.Duration(i)*time.Minute), false))
	}
	evict := c.TrimPlan(cands)
	// Survivors must fit both limits.
	gone := make(map[string]bool)
	for _, k := range evict {
		gone[k] = true
	}
	perOrigin := map[netip.Addr]int{}
	kept := 0
	for _, e := range cands {
		if !gone[e.Key] {
			kept++
			perOrigin[e.Origin]++
		}
	}
	if kept > 4 {
		t.Fatalf("%d survivors, budget 4", kept)
	}
	for o, n := range perOrigin {
		if n > 2 {
			t.Fatalf("origin %s keeps %d entries, quota 2", o, n)
		}
	}
	// Same inputs in a different order: identical plan.
	shuffled := append([]Candidate(nil), cands...)
	for i := range shuffled {
		j := (i * 7) % len(shuffled)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	evict2 := c.TrimPlan(shuffled)
	a := append([]string(nil), evict...)
	b := append([]string(nil), evict2...)
	if !reflect.DeepEqual(sorted(a), sorted(b)) {
		t.Fatalf("trim plan depends on candidate order: %v vs %v", evict, evict2)
	}
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// The directory hands the planners its cache's map-ordered entries, so
// both planners must reach the identical decision — outcome and the exact
// eviction sequence — under any permutation of the same candidates.
func TestPlannersIgnoreCandidateOrder(t *testing.T) {
	now := time.Unix(50000, 0)
	var cands []Candidate
	for i := 0; i < 150; i++ {
		cands = append(cands, Candidate{
			Key:       fmt.Sprintf("10.0.%d.0/%d", i%7, i),
			Origin:    netip.AddrFrom4([4]byte{10, 0, byte(i % 7), 0}),
			TTL:       mcast.TTL(1 + i%3*63),
			LastHeard: now.Add(-time.Duration(i%40) * time.Minute),
			Deleted:   i%11 == 0,
		})
	}
	newOrigin := netip.AddrFrom4([4]byte{10, 0, 3, 0})
	configs := []Config{
		{MaxSessions: 60, MaxPerOrigin: 12, StaleAfter: 10 * time.Minute}, // budget evicts
		{MaxPerOrigin: 3, StaleAfter: 10 * time.Minute},                   // quota reclaims the origin's stale entries
		{MaxSessions: 100, StaleAfter: time.Hour},                         // tombstones only, then sheds
	}
	rng := stats.NewRNG(12)
	for ci, cfg := range configs {
		ctrl := New(cfg)
		want := ctrl.PlanNew(cands, newOrigin, now)
		wantTrim := ctrl.TrimPlan(cands)
		for trial := 0; trial < 20; trial++ {
			perm := append([]Candidate(nil), cands...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			got := ctrl.PlanNew(perm, newOrigin, now)
			if got.Outcome != want.Outcome || fmt.Sprint(got.Evict) != fmt.Sprint(want.Evict) {
				t.Fatalf("config %d trial %d: PlanNew %v/%v, want %v/%v",
					ci, trial, got.Outcome, got.Evict, want.Outcome, want.Evict)
			}
			if got := ctrl.TrimPlan(perm); fmt.Sprint(got) != fmt.Sprint(wantTrim) {
				t.Fatalf("config %d trial %d: TrimPlan %v, want %v", ci, trial, got, wantTrim)
			}
			cut := rng.IntN(len(perm) + 1)
			grouped := ctrl.PlanNewGrouped([][]Candidate{perm[:cut], nil, perm[cut:]}, newOrigin, now)
			if grouped.Outcome != want.Outcome || fmt.Sprint(grouped.Evict) != fmt.Sprint(want.Evict) {
				t.Fatalf("config %d trial %d: PlanNewGrouped %v/%v, want %v/%v",
					ci, trial, grouped.Outcome, grouped.Evict, want.Outcome, want.Evict)
			}
		}
		if len(want.Evict) == 0 || (ci == 2) != (want.Outcome == Shed) {
			t.Fatalf("config %d: %v evicting %v; the case is not exercising the planner", ci, want.Outcome, want.Evict)
		}
	}
}
