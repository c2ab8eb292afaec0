package clash

import (
	"fmt"
	"sort"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// This file implements the three-phase clash detection and correction
// protocol of §3:
//
//  1. a site that has had a session announced *for some time* and discovers
//     a clash re-sends its announcement immediately (it defends; this only
//     happens after e.g. a network partition heals);
//  2. a site that *just* announced a session and sees a clashing
//     announcement within a small window immediately re-announces with a
//     modified address (propagation-delay races are resolved against the
//     newcomer, so existing sessions are never disrupted);
//  3. a third party that owns neither session waits a randomly chosen
//     delay and, if nobody else has responded, re-announces the older
//     session on behalf of its originator (defence against cache failures
//     and partitions separating the two announcers).

// SessionKey identifies a session independent of its current address
// (origin host + message id in SAP terms).
type SessionKey string

// ActionKind enumerates the protocol's possible reactions to a clash.
type ActionKind int

const (
	// ActionNone: no reaction required.
	ActionNone ActionKind = iota
	// ActionResendOwn: phase 1 — immediately re-announce our own
	// long-standing session to defend its address.
	ActionResendOwn
	// ActionModifyAddress: phase 2 — we are the recent announcer; pick a
	// new address and re-announce.
	ActionModifyAddress
	// ActionDefendOther: phase 3 — re-announce another site's session on
	// its behalf (after the suppression delay has elapsed undisturbed).
	ActionDefendOther
)

// String implements fmt.Stringer for readable test failures and logs.
func (k ActionKind) String() string {
	switch k {
	case ActionNone:
		return "none"
	case ActionResendOwn:
		return "resend-own"
	case ActionModifyAddress:
		return "modify-address"
	case ActionDefendOther:
		return "defend-other"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is a protocol reaction: Kind tells what to do for session Key;
// DueAt (milliseconds on the caller's timeline) tells when — immediate
// actions carry the observation time.
type Action struct {
	Kind  ActionKind
	Key   SessionKey
	DueAt float64
}

// Observation is one received session announcement.
type Observation struct {
	Key  SessionKey
	Addr mcast.Addr
	TTL  mcast.TTL // announced scope; clashes are decided on Addr alone
	At   float64   // receipt time, milliseconds
}

// TrackerConfig parameterises a Tracker.
type TrackerConfig struct {
	// RecentWindow is the §3 "small time window" (ms) within which our own
	// announcement counts as "just announced", making us the mover in a
	// propagation-delay race. A few announcement intervals is sensible.
	RecentWindow float64
	// Delay is the third-party suppression delay distribution. The paper's
	// conclusion: use ExponentialDelay so the responder count stays ~1–2
	// regardless of how many third parties saw the clash.
	Delay DelayDist
}

type cacheEntry struct {
	key          SessionKey
	next         *cacheEntry // next entry at the same address (Tracker.byAddr)
	addr         mcast.Addr
	owned        bool
	firstSeen    float64
	ownFirstSent float64
}

type pendingDefense struct {
	defended SessionKey // the older session we will re-announce
	intruder SessionKey // the newer session whose move cancels the defense
	dueAt    float64
	done     bool
}

// Tracker is the per-site clash protocol state machine. It consumes
// announcement observations (including echoes of the site's own
// announcements) and produces Actions. Not safe for concurrent use; the
// directory agent serialises access.
//
// Per-packet work is proportional to the entries sharing the observed
// address and to the open defenses and defense counters naming the
// observed key, never to the cache size: every lookup goes through one of
// the indices below.
type Tracker struct {
	cfg   TrackerConfig
	rng   *stats.RNG
	cache map[SessionKey]*cacheEntry
	// byAddr heads, per address, the chain of cache entries holding it,
	// linked through cacheEntry.next.
	byAddr  map[mcast.Addr]*cacheEntry
	pending []*pendingDefense // scheduling order, which Due keeps
	// byDefended and byIntruder index the open (not done) defenses in
	// pending by each of their two keys.
	byDefended, byIntruder map[SessionKey][]*pendingDefense
	// defenses counts phase-1 re-announcements of our session against an
	// intruder, defenses[ours][intruder], for the post-partition
	// tie-break (see checkClash); defendedBy is its reverse index,
	// defendedBy[intruder] holding every such ours.
	defenses   map[SessionKey]map[SessionKey]int
	defendedBy map[SessionKey]map[SessionKey]struct{}
	// visits counts the index entries walked by the lookups above, for
	// the complexity tests.
	visits int
}

// NewTracker returns a Tracker. rng drives the suppression delays.
func NewTracker(cfg TrackerConfig, rng *stats.RNG) *Tracker {
	if cfg.Delay == nil {
		panic("clash: TrackerConfig.Delay is required")
	}
	if cfg.RecentWindow < 0 {
		panic("clash: negative RecentWindow")
	}
	return &Tracker{
		cfg:        cfg,
		rng:        rng,
		cache:      make(map[SessionKey]*cacheEntry),
		byAddr:     make(map[mcast.Addr]*cacheEntry),
		byDefended: make(map[SessionKey][]*pendingDefense),
		byIntruder: make(map[SessionKey][]*pendingDefense),
		defenses:   make(map[SessionKey]map[SessionKey]int),
		defendedBy: make(map[SessionKey]map[SessionKey]struct{}),
	}
}

// AnnounceOwn records that this site announced its own session. Call it
// for the first announcement and for address changes. The TTL, like
// Observation.TTL, plays no part in the clash rules and is not kept.
func (t *Tracker) AnnounceOwn(key SessionKey, addr mcast.Addr, _ mcast.TTL, at float64) {
	e := t.cache[key]
	if e == nil {
		e = &cacheEntry{key: key, firstSeen: at, ownFirstSent: at}
		t.cache[key] = e
		t.link(e)
	}
	if !e.owned {
		e.owned = true
		e.ownFirstSent = at
	}
	if e.addr != addr {
		// Address change: any defense waiting on this key moving is done.
		t.cancelDefensesForIntruder(key)
		t.clearDefenseCounters(key)
		t.move(e, addr)
	}
}

// Forget drops a session (deleted or expired) from the cache.
func (t *Tracker) Forget(key SessionKey) {
	if e := t.cache[key]; e != nil {
		t.unlink(e)
		delete(t.cache, key)
	}
	t.clearDefenseCounters(key)
	t.cancelDefensesFor(key)
	t.cancelDefensesForIntruder(key)
}

// CachedAddr returns the cached address of a session.
func (t *Tracker) CachedAddr(key SessionKey) (mcast.Addr, bool) {
	if e, ok := t.cache[key]; ok {
		return e.addr, true
	}
	return 0, false
}

// link puts e at the head of its address's chain.
func (t *Tracker) link(e *cacheEntry) {
	e.next = t.byAddr[e.addr]
	t.byAddr[e.addr] = e
}

// unlink takes e out of its address's chain.
func (t *Tracker) unlink(e *cacheEntry) {
	t.visits++
	if head := t.byAddr[e.addr]; head == e {
		if e.next == nil {
			delete(t.byAddr, e.addr)
		} else {
			t.byAddr[e.addr] = e.next
		}
	} else {
		for p := head; p != nil; p = p.next {
			t.visits++
			if p.next == e {
				p.next = e.next
				break
			}
		}
	}
	e.next = nil
}

// move re-files e under a new address.
func (t *Tracker) move(e *cacheEntry, addr mcast.Addr) {
	t.unlink(e)
	e.addr = addr
	t.link(e)
}

// Observe processes a received announcement and returns any immediate
// actions (phase 1 and 2). Phase-3 defenses are scheduled internally and
// surface later through Due.
func (t *Tracker) Observe(obs Observation) []Action {
	var actions []Action

	// A re-announcement of a session we were waiting to defend, or an
	// address change by an intruder, resolves pending defenses.
	if e, ok := t.cache[obs.Key]; ok {
		moved := e.addr != obs.Addr
		if moved {
			// The session moved to a new address.
			t.cancelDefensesForIntruder(obs.Key)
			t.clearDefenseCounters(obs.Key)
			t.move(e, obs.Addr)
		} else {
			// Re-announcement at the same address: its owner is alive, so
			// nobody needs to defend it on its behalf.
			t.cancelDefensesFor(obs.Key)
		}
		switch {
		case e.owned:
			actions = append(actions, t.reactAsOwner(e, obs)...)
		case moved:
			// Check the moved session against the whole cache.
			actions = append(actions, t.checkClash(obs, false)...)
		default:
			// An unchanged re-announcement adds nothing for third parties
			// (no defense re-arm), but it *is* news to an owner whose
			// session it still clashes with: the mutual-defense stand-off
			// after a partition heal advances through exactly these
			// re-announcements, so run the owner-only check.
			actions = append(actions, t.checkClash(obs, true)...)
		}
		return actions
	}

	// New session.
	e := &cacheEntry{key: obs.Key, addr: obs.Addr, firstSeen: obs.At}
	t.cache[obs.Key] = e
	t.link(e)
	return t.checkClash(obs, false)
}

// reactAsOwner handles echoes of our own session (typically no-ops).
func (t *Tracker) reactAsOwner(_ *cacheEntry, _ Observation) []Action { return nil }

// checkClash looks for cache entries holding the same address as obs and
// reacts per the three phases. With ownedOnly set, only owner reactions
// (phases 1–2) fire; third-party defenses are not (re-)scheduled.
func (t *Tracker) checkClash(obs Observation, ownedOnly bool) []Action {
	// Walk the address's chain (its order is an accident of history),
	// then sort the clashing entries by key: reaction order is observable
	// — it fixes both the returned action order and the RNG draw order of
	// phase-3 suppression delays — and must be a function of the state
	// alone.
	var clashing []*cacheEntry
	for e := t.byAddr[obs.Addr]; e != nil; e = e.next {
		t.visits++
		if e.key == obs.Key || (ownedOnly && !e.owned) {
			continue
		}
		clashing = append(clashing, e)
	}
	if len(clashing) == 0 {
		return nil
	}
	sort.Slice(clashing, func(i, j int) bool { return clashing[i].key < clashing[j].key })

	var actions []Action
	for _, e := range clashing {
		key := e.key
		switch {
		case e.owned && obs.At-e.ownFirstSent > t.cfg.RecentWindow:
			// Phase 1: our long-standing session is being squatted — defend.
			// After a healed partition *both* sessions can be long-standing,
			// and mutual defense would live-lock; the paper leaves this case
			// open ("existing sessions can only be disrupted by other
			// existing sessions that had not been known due to network
			// partitioning"). After two fruitless defenses we apply a
			// deterministic tie-break both sides compute identically —
			// the lexicographically larger session key moves (the rule
			// MADCAP-era allocators converged on).
			if t.countDefense(key, obs.Key) > 2 && key > obs.Key {
				actions = append(actions, Action{Kind: ActionModifyAddress, Key: key, DueAt: obs.At})
			} else {
				actions = append(actions, Action{Kind: ActionResendOwn, Key: key, DueAt: obs.At})
			}
		case e.owned:
			// Phase 2: we just announced and lost the race — move.
			actions = append(actions, Action{Kind: ActionModifyAddress, Key: key, DueAt: obs.At})
		default:
			// Phase 3: third party. Defend the *older* entry after a
			// suppression delay, unless already pending for this pair.
			older, newer := key, obs.Key
			if e.firstSeen > t.cache[newer].firstSeen {
				older, newer = newer, older
			}
			if !t.hasPending(older, newer) {
				p := &pendingDefense{
					defended: older,
					intruder: newer,
					dueAt:    obs.At + t.cfg.Delay.Sample(t.rng),
				}
				t.pending = append(t.pending, p)
				t.byDefended[older] = append(t.byDefended[older], p)
				t.byIntruder[newer] = append(t.byIntruder[newer], p)
			}
		}
	}
	return actions
}

// countDefense records one more phase-1 defense of ours against intruder
// and returns the pair's count.
func (t *Tracker) countDefense(ours, intruder SessionKey) int {
	against := t.defenses[ours]
	if against == nil {
		against = make(map[SessionKey]int)
		t.defenses[ours] = against
	}
	by := t.defendedBy[intruder]
	if by == nil {
		by = make(map[SessionKey]struct{})
		t.defendedBy[intruder] = by
	}
	by[ours] = struct{}{}
	against[intruder]++
	return against[intruder]
}

func (t *Tracker) hasPending(defended, intruder SessionKey) bool {
	for _, p := range t.byDefended[defended] {
		t.visits++
		if p.intruder == intruder {
			return true
		}
	}
	return false
}

// cancelDefensesFor closes every open defense of the session defended.
func (t *Tracker) cancelDefensesFor(defended SessionKey) {
	open := t.byDefended[defended]
	delete(t.byDefended, defended)
	for _, p := range open {
		p.done = true
		t.dropDefense(t.byIntruder, p.intruder, p)
	}
}

// cancelDefensesForIntruder closes every open defense against intruder.
func (t *Tracker) cancelDefensesForIntruder(intruder SessionKey) {
	open := t.byIntruder[intruder]
	delete(t.byIntruder, intruder)
	for _, p := range open {
		p.done = true
		t.dropDefense(t.byDefended, p.defended, p)
	}
}

// dropDefense removes p from index[key]. The index's order is
// unobservable (cancelling marks, hasPending only tests membership), so
// the last element fills the gap.
func (t *Tracker) dropDefense(index map[SessionKey][]*pendingDefense, key SessionKey, p *pendingDefense) {
	open := index[key]
	for i, q := range open {
		t.visits++
		if q != p {
			continue
		}
		last := len(open) - 1
		open[i], open[last] = open[last], nil
		if open = open[:last]; len(open) == 0 {
			delete(index, key)
		} else {
			index[key] = open
		}
		return
	}
}

// clearDefenseCounters resets phase-1 tie-break state involving key, used
// whenever that session moves or vanishes (the stand-off is over).
func (t *Tracker) clearDefenseCounters(key SessionKey) {
	for intruder := range t.defenses[key] {
		t.visits++
		by := t.defendedBy[intruder]
		if delete(by, key); len(by) == 0 {
			delete(t.defendedBy, intruder)
		}
	}
	delete(t.defenses, key)
	for ours := range t.defendedBy[key] {
		t.visits++
		against := t.defenses[ours]
		if delete(against, key); len(against) == 0 {
			delete(t.defenses, ours)
		}
	}
	delete(t.defendedBy, key)
}

// Due returns the phase-3 defenses whose suppression delay has elapsed
// without cancellation, marking them done. The caller re-announces the
// returned sessions on behalf of their originators.
func (t *Tracker) Due(now float64) []Action {
	var out []Action
	kept := t.pending[:0]
	for _, p := range t.pending {
		switch {
		case p.done:
			// drop
		case p.dueAt <= now:
			p.done = true
			t.dropDefense(t.byDefended, p.defended, p)
			t.dropDefense(t.byIntruder, p.intruder, p)
			out = append(out, Action{Kind: ActionDefendOther, Key: p.defended, DueAt: p.dueAt})
		default:
			kept = append(kept, p)
		}
	}
	t.pending = kept
	return out
}

// PendingDefenses reports how many undelivered phase-3 timers exist
// (introspection for tests).
func (t *Tracker) PendingDefenses() int {
	n := 0
	for _, p := range t.pending {
		if !p.done {
			n++
		}
	}
	return n
}
