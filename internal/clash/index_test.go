package clash

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// linearTracker is the Tracker without its indices: every lookup walks
// the whole cache map or pending slice. It is the oracle the indexed
// Tracker must match action for action and RNG draw for RNG draw.
type linearTracker struct {
	cfg      TrackerConfig
	rng      *stats.RNG
	cache    map[SessionKey]*linearEntry
	pending  []*pendingDefense
	defenses map[defensePair]int
}

type linearEntry struct {
	addr         mcast.Addr
	ttl          mcast.TTL
	firstSeen    float64
	lastSeen     float64
	owned        bool
	ownFirstSent float64
}

type defensePair struct {
	ours, intruder SessionKey
}

func newLinearTracker(cfg TrackerConfig, rng *stats.RNG) *linearTracker {
	return &linearTracker{
		cfg:      cfg,
		rng:      rng,
		cache:    make(map[SessionKey]*linearEntry),
		defenses: make(map[defensePair]int),
	}
}

func (t *linearTracker) AnnounceOwn(key SessionKey, addr mcast.Addr, ttl mcast.TTL, at float64) {
	e := t.cache[key]
	if e == nil {
		e = &linearEntry{firstSeen: at, ownFirstSent: at}
		t.cache[key] = e
	}
	if !e.owned {
		e.owned = true
		e.ownFirstSent = at
	}
	if e.addr != addr {
		t.cancelDefensesForIntruder(key)
		t.clearDefenseCounters(key)
	}
	e.addr = addr
	e.ttl = ttl
	e.lastSeen = at
}

func (t *linearTracker) Forget(key SessionKey) {
	delete(t.cache, key)
	t.clearDefenseCounters(key)
	for _, p := range t.pending {
		if p.defended == key || p.intruder == key {
			p.done = true
		}
	}
}

func (t *linearTracker) CachedAddr(key SessionKey) (mcast.Addr, bool) {
	if e, ok := t.cache[key]; ok {
		return e.addr, true
	}
	return 0, false
}

func (t *linearTracker) Observe(obs Observation) []Action {
	if e, ok := t.cache[obs.Key]; ok {
		moved := e.addr != obs.Addr
		if moved {
			t.cancelDefensesForIntruder(obs.Key)
			t.clearDefenseCounters(obs.Key)
		} else {
			t.cancelDefensesFor(obs.Key)
		}
		e.addr = obs.Addr
		e.ttl = obs.TTL
		e.lastSeen = obs.At
		switch {
		case e.owned:
			return nil
		case moved:
			return t.checkClash(obs, false)
		default:
			return t.checkClash(obs, true)
		}
	}
	t.cache[obs.Key] = &linearEntry{addr: obs.Addr, ttl: obs.TTL, firstSeen: obs.At, lastSeen: obs.At}
	return t.checkClash(obs, false)
}

func (t *linearTracker) checkClash(obs Observation, ownedOnly bool) []Action {
	var clashing []SessionKey
	for key, e := range t.cache {
		if key == obs.Key || e.addr != obs.Addr {
			continue
		}
		if ownedOnly && !e.owned {
			continue
		}
		clashing = append(clashing, key)
	}
	sort.Slice(clashing, func(i, j int) bool { return clashing[i] < clashing[j] })

	var actions []Action
	for _, key := range clashing {
		e := t.cache[key]
		switch {
		case e.owned && obs.At-e.ownFirstSent > t.cfg.RecentWindow:
			pair := defensePair{ours: key, intruder: obs.Key}
			t.defenses[pair]++
			if t.defenses[pair] > 2 && key > obs.Key {
				actions = append(actions, Action{Kind: ActionModifyAddress, Key: key, DueAt: obs.At})
			} else {
				actions = append(actions, Action{Kind: ActionResendOwn, Key: key, DueAt: obs.At})
			}
		case e.owned:
			actions = append(actions, Action{Kind: ActionModifyAddress, Key: key, DueAt: obs.At})
		default:
			older, newer := key, obs.Key
			if t.cache[older].firstSeen > t.cache[newer].firstSeen {
				older, newer = newer, older
			}
			if !t.hasPending(older, newer) {
				t.pending = append(t.pending, &pendingDefense{
					defended: older,
					intruder: newer,
					dueAt:    obs.At + t.cfg.Delay.Sample(t.rng),
				})
			}
		}
	}
	return actions
}

func (t *linearTracker) hasPending(defended, intruder SessionKey) bool {
	for _, p := range t.pending {
		if !p.done && p.defended == defended && p.intruder == intruder {
			return true
		}
	}
	return false
}

func (t *linearTracker) cancelDefensesFor(defended SessionKey) {
	for _, p := range t.pending {
		if p.defended == defended {
			p.done = true
		}
	}
}

func (t *linearTracker) cancelDefensesForIntruder(intruder SessionKey) {
	for _, p := range t.pending {
		if p.intruder == intruder {
			p.done = true
		}
	}
}

func (t *linearTracker) clearDefenseCounters(key SessionKey) {
	for pair := range t.defenses {
		if pair.ours == key || pair.intruder == key {
			delete(t.defenses, pair)
		}
	}
}

func (t *linearTracker) Due(now float64) []Action {
	var out []Action
	kept := t.pending[:0]
	for _, p := range t.pending {
		switch {
		case p.done:
		case p.dueAt <= now:
			p.done = true
			out = append(out, Action{Kind: ActionDefendOther, Key: p.defended, DueAt: p.dueAt})
		default:
			kept = append(kept, p)
		}
	}
	t.pending = kept
	return out
}

func (t *linearTracker) PendingDefenses() int {
	n := 0
	for _, p := range t.pending {
		if !p.done {
			n++
		}
	}
	return n
}

// checkIndices verifies the Tracker's indices against its primary
// state: every cache entry sits in exactly its address's chain, the
// defense indices hold exactly the open defenses, and the counter
// indices mirror each other.
func checkIndices(t *testing.T, tr *Tracker) {
	t.Helper()
	chained := 0
	for addr, head := range tr.byAddr {
		if head == nil {
			t.Fatalf("empty chain kept for %d", addr)
		}
		for e := head; e != nil; e = e.next {
			if e.addr != addr || tr.cache[e.key] != e {
				t.Fatalf("chain %d holds %q at %d", addr, e.key, e.addr)
			}
			chained++
		}
	}
	if chained != len(tr.cache) {
		t.Fatalf("%d entries chained, %d cached", chained, len(tr.cache))
	}
	open := map[*pendingDefense]int{}
	for _, p := range tr.pending {
		if !p.done {
			open[p] = 0
		}
	}
	for name, index := range map[string]map[SessionKey][]*pendingDefense{"byDefended": tr.byDefended, "byIntruder": tr.byIntruder} {
		for key, ps := range index {
			if len(ps) == 0 {
				t.Fatalf("%s keeps an empty list for %q", name, key)
			}
			for _, p := range ps {
				n, ok := open[p]
				if !ok || (name == "byDefended" && p.defended != key) || (name == "byIntruder" && p.intruder != key) {
					t.Fatalf("%s[%q] holds %+v", name, key, *p)
				}
				open[p] = n + 1
			}
		}
	}
	for p, n := range open {
		if n != 2 {
			t.Fatalf("open defense %+v indexed %d times, want 2", *p, n)
		}
	}
	for ours, against := range tr.defenses {
		if len(against) == 0 {
			t.Fatalf("empty counter map kept for %q", ours)
		}
		for intruder := range against {
			if _, ok := tr.defendedBy[intruder][ours]; !ok {
				t.Fatalf("counter %q→%q missing from defendedBy", ours, intruder)
			}
		}
	}
	for intruder, by := range tr.defendedBy {
		if len(by) == 0 {
			t.Fatalf("empty defendedBy set kept for %q", intruder)
		}
		for ours := range by {
			if _, ok := tr.defenses[ours][intruder]; !ok {
				t.Fatalf("defendedBy %q→%q has no counter", intruder, ours)
			}
		}
	}
}

// runTrackerPair decodes ops into a random mix of AnnounceOwn, Observe,
// Forget and Due over a small key and address space (so clashes,
// moves, stand-offs and cancellations are frequent) and drives the
// indexed and the linear tracker through it, failing on the first
// difference in actions, pending count, cached address or RNG position.
func runTrackerPair(t *testing.T, seed uint64, ops []byte) {
	cfg := TrackerConfig{RecentWindow: 1000, Delay: NewExponentialDelay(0, 3200, 200)}
	got := NewTracker(cfg, stats.NewRNG(seed))
	want := newLinearTracker(cfg, stats.NewRNG(seed))
	now := 0.0
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i], ops[i+1], ops[i+2]
		key := SessionKey(fmt.Sprintf("k%d", a%8))
		addr := mcast.Addr(b % 5)
		now += float64(op>>2) * 37
		var ga, wa []Action
		switch op % 4 {
		case 0:
			got.AnnounceOwn(key, addr, mcast.TTL(a), now)
			want.AnnounceOwn(key, addr, mcast.TTL(a), now)
		case 1:
			obs := Observation{Key: key, Addr: addr, TTL: mcast.TTL(b), At: now}
			ga, wa = got.Observe(obs), want.Observe(obs)
		case 2:
			got.Forget(key)
			want.Forget(key)
		case 3:
			ga, wa = got.Due(now), want.Due(now)
		}
		if !reflect.DeepEqual(ga, wa) {
			t.Fatalf("op %d (%d %d %d): actions %+v, oracle %+v", i/3, op%4, a, b, ga, wa)
		}
		if g, w := got.PendingDefenses(), want.PendingDefenses(); g != w {
			t.Fatalf("op %d: %d pending, oracle %d", i/3, g, w)
		}
		ga1, gok := got.CachedAddr(key)
		wa1, wok := want.CachedAddr(key)
		if ga1 != wa1 || gok != wok {
			t.Fatalf("op %d: CachedAddr(%q) = %d %v, oracle %d %v", i/3, key, ga1, gok, wa1, wok)
		}
		checkIndices(t, got)
	}
	if g, w := got.Due(1e12), want.Due(1e12); !reflect.DeepEqual(g, w) {
		t.Fatalf("final Due %+v, oracle %+v", g, w)
	}
	if g, w := got.rng.Uint64(), want.rng.Uint64(); g != w {
		t.Fatal("RNG streams diverged: the trackers drew a different number of delays")
	}
}

func FuzzTracker(f *testing.F) {
	f.Add(uint64(1), []byte{1, 0, 1, 1, 1, 1, 3, 0, 0, 255, 0, 0})
	// Stand-off: own session at 2, a long-standing rival re-announcing.
	f.Add(uint64(2), []byte{0, 3, 2, 201, 4, 2, 201, 4, 2, 201, 4, 2, 201, 4, 2, 200, 3, 3})
	// Third parties: a clash, a suppressing re-announce, a move, a forget.
	f.Add(uint64(3), []byte{1, 1, 4, 5, 2, 4, 9, 1, 4, 13, 2, 3, 17, 3, 4, 22, 1, 0, 255, 0, 0})
	rng := stats.NewRNG(99)
	for i := 0; i < 8; i++ {
		ops := make([]byte, 600)
		for j := range ops {
			ops[j] = byte(rng.IntN(256))
		}
		f.Add(uint64(i), ops)
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		runTrackerPair(t, seed, ops)
	})
}

// visitsFor returns how many index entries the tracker walks running fn.
func visitsFor(tr *Tracker, fn func()) int {
	before := tr.visits
	fn()
	return tr.visits - before
}

// TestTrackerVisitsFlatInCacheSize: the work per Observe — new sessions,
// unchanged re-announcements, moves onto occupied addresses — and per
// Forget depends on the entries at the addresses involved, not on the
// number of cached sessions.
func TestTrackerVisitsFlatInCacheSize(t *testing.T) {
	const n = 1000
	visits := func(size int) int {
		tr := newTracker(t)
		tr.AnnounceOwn("own", mcast.Addr(size), 63, 0)
		for i := 0; i < size; i++ {
			tr.Observe(Observation{Key: SessionKey(fmt.Sprintf("s%d", i)), Addr: mcast.Addr(i), TTL: 63, At: 1})
		}
		return visitsFor(tr, func() {
			for i := 0; i < 20; i++ {
				at := float64(10000 + i)
				key := SessionKey(fmt.Sprintf("s%d", i))
				tr.Observe(Observation{Key: key, Addr: mcast.Addr(i), TTL: 63, At: at})
				tr.Observe(Observation{Key: key, Addr: mcast.Addr(i + 1), TTL: 63, At: at})
				tr.Observe(Observation{Key: SessionKey(fmt.Sprintf("new%d", i)), Addr: mcast.Addr(i + 50), TTL: 63, At: at})
				tr.Observe(Observation{Key: SessionKey(fmt.Sprintf("squat%d", i)), Addr: mcast.Addr(size), TTL: 63, At: at})
				tr.Forget(SessionKey(fmt.Sprintf("squat%d", i)))
				tr.Forget(SessionKey(fmt.Sprintf("s%d", i+100)))
			}
		})
	}
	small, large := visits(n), visits(10*n)
	if small != large || small == 0 {
		t.Fatalf("visits at %d sessions: %d, at %d: %d; want equal and nonzero", n, small, 10*n, large)
	}
}

// TestTrackerVisitsFlatInOpenDefenses: a clash storm leaves K third-party
// defenses and K phase-1 stand-off counters open; cancelling, re-arming,
// moving and forgetting one of them must not walk the others.
func TestTrackerVisitsFlatInOpenDefenses(t *testing.T) {
	const k = 200
	visits := func(open int) int {
		tr := newTracker(t)
		for i := 0; i < open; i++ {
			addr := mcast.Addr(2 * i)
			tr.Observe(Observation{Key: SessionKey(fmt.Sprintf("old%d", i)), Addr: addr, TTL: 63, At: 0})
			tr.Observe(Observation{Key: SessionKey(fmt.Sprintf("new%d", i)), Addr: addr, TTL: 63, At: 1})
			own := SessionKey(fmt.Sprintf("own%d", i))
			tr.AnnounceOwn(own, addr+1, 63, 0)
			tr.Observe(Observation{Key: SessionKey(fmt.Sprintf("rival%d", i)), Addr: addr + 1, TTL: 63, At: 5000})
		}
		if got := tr.PendingDefenses(); got != open {
			t.Fatalf("%d pending defenses, want %d", got, open)
		}
		if got := len(tr.defenses); got != open {
			t.Fatalf("%d defended sessions, want %d", got, open)
		}
		return visitsFor(tr, func() {
			for i := 0; i < 20; i++ {
				at := float64(6000 + i)
				addr := mcast.Addr(2 * i)
				tr.Observe(Observation{Key: SessionKey(fmt.Sprintf("new%d", i)), Addr: addr, TTL: 63, At: at})
				tr.Observe(Observation{Key: SessionKey(fmt.Sprintf("old%d", i)), Addr: addr, TTL: 63, At: at})
				tr.Observe(Observation{Key: SessionKey(fmt.Sprintf("new%d", i)), Addr: addr, TTL: 63, At: at})
				tr.Observe(Observation{Key: SessionKey(fmt.Sprintf("rival%d", i)), Addr: addr + 1, TTL: 63, At: at})
				tr.Observe(Observation{Key: SessionKey(fmt.Sprintf("rival%d", i)), Addr: mcast.Addr(4 * open), TTL: 63, At: at})
				tr.AnnounceOwn(SessionKey(fmt.Sprintf("own%d", i+20)), mcast.Addr(4*open+1), 63, at)
				tr.Forget(SessionKey(fmt.Sprintf("old%d", i+20)))
			}
		})
	}
	small, large := visits(k), visits(10*k)
	if small != large || small == 0 {
		t.Fatalf("visits at %d open defenses: %d, at %d: %d; want equal and nonzero", k, small, 10*k, large)
	}
}
