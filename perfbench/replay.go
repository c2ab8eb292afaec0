package main

import (
	"fmt"
	"net/netip"
	"runtime/metrics"
	"time"

	"sessiondir/internal/admission"
	"sessiondir/internal/announce"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
	"sessiondir/internal/transport"
)

// The replay re-runs an ingest workload's recorded inputs, with the same
// seed and virtual clock, through the public functions of the layers
// under the Directory, calling them in the order the Directory calls
// them and timing each call. It mirrors the Directory's glue code, so
// its outcome counts must equal the program's; the traced run checks
// that before it reports any layer figure.

// Directory defaults the mirror reproduces (see sessiondir.New and the
// degradation tiers in directory.go).
const (
	dirDefaultSeed     = 0x5d0_1998
	admissionSeedMix   = 0xad3155_0bad
	recentWindowMs     = 30_000
	degradeL1Pct       = 75
	degradeL2Pct       = 95
	degradeAdmitSample = 4
	degradeMinBudget   = 32
)

type mirrorOwn struct {
	version uint64
	group   netip.Addr
	ttl     mcast.TTL
}

// mirrorCounts are the outcome counts compared with the registry.
type mirrorCounts struct {
	learned, evictions, shed, degradedLearns, quotaDrops       int64
	forged, forgedDeletes, defOwn, defThird, suppressed, moves int64
	malformed                                                  int64
}

type mirror struct {
	tr           *tracer // nil outside the traced window
	rec          *tracer
	cache        *announce.Cache
	admit        *admission.Controller
	tracker      *clash.Tracker
	owned        map[string]*mirrorOwn
	space        mcast.AddrSpace
	epoch        time.Time
	staleAfter   time.Duration
	maxSessions  int
	maxPerOrigin int
	degradeLevel int
	degradeTick  uint64
	allocs       []int64 // the in-situ allocator's results, consumed in order
	nextAlloc    int

	counts mirrorCounts
	// Traced-window tallies.
	plans, planCands, admitted, evictions int64
	observes, fresh, actions, keyCalls    int64
	dgrams, steps, pendingMax             int64
	parseSample                           [][]byte // decoded payloads for the allocation count
	kindNs                                [numKinds]int64
	buf                                   []transport.Message
}

func newMirror(h *ingestRun, rec *tracer) *mirror {
	seed := h.seed
	if seed == 0 {
		seed = dirDefaultSeed
	}
	cfg := h.config()
	rng := stats.NewRNG(seed)
	m := &mirror{
		rec:          rec,
		cache:        announce.NewCache(0),
		owned:        map[string]*mirrorOwn{},
		space:        mcast.SAPDynamicSpace(),
		epoch:        epoch,
		maxSessions:  cfg.MaxSessions,
		maxPerOrigin: cfg.MaxPerOrigin,
		allocs:       h.alloc.results,
	}
	m.staleAfter = cfg.StaleAfter
	if m.staleAfter <= 0 {
		m.staleAfter = m.cache.Timeout / 4
	}
	m.admit = admission.New(admission.Config{
		MaxSessions: cfg.MaxSessions, MaxPerOrigin: cfg.MaxPerOrigin,
		OriginRate: cfg.OriginRate, OriginBurst: cfg.OriginBurst,
		StaleAfter: m.staleAfter, RNG: stats.NewRNG(seed ^ admissionSeedMix),
	})
	m.tracker = clash.NewTracker(clash.TrackerConfig{
		RecentWindow: recentWindowMs,
		Delay:        clash.NewExponentialDelay(0, 3200, 200),
	}, rng.Split())
	return m
}

func (m *mirror) ms(t time.Time) float64 { return float64(t.Sub(m.epoch)) / float64(time.Millisecond) }

// run replays the set-up traffic and the first rounds loop rounds,
// recording spans for rounds from traceFrom on.
func (m *mirror) run(spec *ingestSpec, rounds, traceFrom int) {
	for _, b := range spec.preload {
		m.buf = spec.pool.messages(b.dgrams, m.buf)
		m.batch(-1, m.buf, nil, epoch.Add(b.at))
	}
	m.step(-1, epoch.Add(spec.loopStart-time.Second))
	for r := 0; r < rounds; r++ {
		if r == traceFrom {
			m.tr = m.rec
		}
		now := epoch.Add(spec.loopStart + time.Duration(r)*time.Second)
		m.buf = spec.pool.messages(spec.round(r), m.buf)
		var kinds []uint8
		if spec.kinds != nil {
			kinds = spec.kinds[r*batchDepth : (r+1)*batchDepth]
		}
		m.batch(r, m.buf, kinds, now)
		if spec.churn {
			if r >= churnMaxOwn {
				m.withdraw(r, spec.create(r-churnMaxOwn))
			}
			m.create(r, spec.create(r), now)
		}
		m.step(r, now)
	}
	m.tr = nil
}

type parsed struct {
	pkt  sap.Packet
	desc *session.Description
	kind uint8
}

// addKind charges the time since t0 to a datagram kind, in the traced
// window only.
func (m *mirror) addKind(kind uint8, t0 time.Time) {
	if m.tr != nil {
		m.kindNs[kind] += int64(time.Since(t0))
	}
}

// batch mirrors one HandleBatch. kinds, when set, names each datagram's
// kind; in the traced window each datagram's parse and apply time is
// added to its kind's total.
func (m *mirror) batch(r int, msgs []transport.Message, kinds []uint8, now time.Time) {
	root := m.tr.root(stBatch, int32(r))
	defer m.tr.closeRoot(root)
	timeKinds := m.tr != nil
	ps := make([]parsed, 0, len(msgs))
	for i, msg := range msgs {
		var p parsed
		p.kind = kindRefresh
		if kinds != nil {
			p.kind = kinds[i]
		}
		var t0 time.Time
		if timeKinds {
			t0 = time.Now()
		}
		s := m.tr.open(stDecode, int32(r))
		err := p.pkt.DecodeMaybeCompressed(msg.Data)
		m.tr.close(s)
		if err != nil || p.pkt.EffectivePayloadType() != sap.PayloadTypeSDP {
			m.counts.malformed++
			m.addKind(p.kind, t0)
			continue
		}
		if m.tr != nil && len(m.parseSample) < 2048 {
			m.parseSample = append(m.parseSample, p.pkt.Payload)
		}
		s = m.tr.open(stParse, int32(r))
		p.desc, err = session.ParseSDP(p.pkt.Payload)
		m.tr.close(s)
		m.addKind(p.kind, t0)
		if err != nil {
			m.counts.malformed++
			continue
		}
		ps = append(ps, p)
	}
	for i := range ps {
		var t0 time.Time
		if timeKinds {
			t0 = time.Now()
		}
		m.apply(r, &ps[i], now)
		m.addKind(ps[i].kind, t0)
	}
	if m.tr != nil {
		m.dgrams += int64(len(msgs))
	}
}

func (m *mirror) key(r int, d *session.Description) string {
	s := m.tr.open(stKey, int32(r))
	k := d.Key()
	m.tr.close(s)
	if m.tr != nil {
		m.keyCalls++
	}
	return k
}

func (m *mirror) peek(r int, key string) (*announce.Entry, bool) {
	s := m.tr.open(stPeek, int32(r))
	e, ok := m.cache.Peek(key)
	m.tr.close(s)
	return e, ok
}

func (m *mirror) forget(r int, key string) {
	s := m.tr.open(stTrackOther, int32(r))
	m.tracker.Forget(clash.SessionKey(key))
	m.tr.close(s)
}

// apply mirrors the Directory's serial apply phase for one packet.
func (m *mirror) apply(r int, p *parsed, now time.Time) {
	desc := p.desc
	key := m.key(r, desc)
	s := m.tr.open(stAllow, int32(r))
	allowed := m.admit.Allow(p.pkt.Origin, now)
	m.tr.close(s)
	if !allowed {
		m.counts.quotaDrops++
		return
	}
	if p.pkt.Type == sap.Delete {
		m.handleDelete(r, &p.pkt, desc, key, now)
		return
	}
	if !m.validate(r, &p.pkt, desc, key) {
		m.counts.forged++
		return
	}
	if _, known := m.peek(r, key); !known && m.owned[key] == nil {
		if m.degradeLevel >= 2 {
			m.degradeTick++
			if m.degradeTick%degradeAdmitSample != 0 {
				m.counts.degradedLearns++
				return
			}
		}
		if !m.admitNew(r, desc, now) {
			return
		}
	}
	s = m.tr.open(stObserve, int32(r))
	_, fresh := m.cache.Observe(desc, now)
	m.tr.close(s)
	if fresh {
		m.counts.learned++
	}
	if m.tr != nil {
		m.observes++
		if fresh {
			m.fresh++
		}
	}
	if idx, ok := m.space.Index(desc.Group); ok {
		s = m.tr.open(stTrack, int32(r))
		actions := m.tracker.Observe(clash.Observation{Key: clash.SessionKey(key), Addr: idx, TTL: desc.TTL, At: m.ms(now)})
		m.tr.close(s)
		m.applyActions(r, actions)
	}
}

func (m *mirror) handleDelete(r int, pkt *sap.Packet, desc *session.Description, key string, now time.Time) {
	if m.owned[key] != nil {
		m.counts.forgedDeletes++
		return
	}
	e, ok := m.peek(r, key)
	if !ok {
		return
	}
	if pkt.Origin != desc.Origin || pkt.Origin != e.Desc.Origin {
		m.counts.forgedDeletes++
		return
	}
	s := m.tr.open(stRemove, int32(r))
	m.cache.Delete(key, now)
	m.tr.close(s)
	m.forget(r, key)
}

func (m *mirror) validate(r int, pkt *sap.Packet, desc *session.Description, key string) bool {
	if pkt.Origin != desc.Origin || desc.TTL == 0 {
		return false
	}
	if own, ok := m.owned[key]; ok {
		return desc.Version == own.version && desc.Group == own.group && desc.TTL == own.ttl
	}
	e, ok := m.peek(r, key)
	if !ok {
		return true
	}
	if desc.Version < e.Desc.Version {
		return false
	}
	if desc.Version == e.Desc.Version {
		if e.Deleted {
			return false
		}
		if desc.Group != e.Desc.Group || desc.TTL != e.Desc.TTL || desc.Name != e.Desc.Name {
			return false
		}
	}
	return true
}

// admitNew mirrors the budget gate. The candidate view is the
// Directory's own glue; its two Key calls per entry are timed as a
// separate keys-only pass so the session layer's share shows.
func (m *mirror) admitNew(r int, desc *session.Description, now time.Time) bool {
	if m.maxSessions <= 0 && m.maxPerOrigin <= 0 {
		return true
	}
	all := m.cache.All()
	if m.tr != nil {
		s := m.tr.open(stKey, int32(r))
		for _, e := range all {
			if e.Desc.Origin != ownOrigin {
				_, _ = e.Desc.Key(), e.Desc.Key()
				m.keyCalls += 2
			}
		}
		m.tr.close(s)
	}
	cands := make([]admission.Candidate, 0, len(all))
	for _, e := range all {
		if e.Desc.Origin == ownOrigin || m.owned[e.Desc.Key()] != nil {
			continue
		}
		cands = append(cands, admission.Candidate{
			Key: e.Desc.Key(), Origin: e.Desc.Origin, TTL: e.Desc.TTL,
			LastHeard: e.LastHeard, Deleted: e.Deleted,
		})
	}
	s := m.tr.open(stPlan, int32(r))
	dec := m.admit.PlanNewGrouped([][]admission.Candidate{cands}, desc.Origin, now)
	m.tr.close(s)
	if m.tr != nil {
		m.plans++
		m.planCands += int64(len(cands))
	}
	for _, k := range dec.Evict {
		s := m.tr.open(stRemove, int32(r))
		m.cache.Remove(k)
		m.tr.close(s)
		m.forget(r, k)
		m.counts.evictions++
		if m.tr != nil {
			m.evictions++
		}
	}
	switch dec.Outcome {
	case admission.Shed:
		m.counts.shed++
		return false
	case admission.DenyQuota:
		m.counts.quotaDrops++
		return false
	}
	if m.tr != nil {
		m.admitted++
	}
	return true
}

func (m *mirror) nextAddr() (mcast.Addr, bool) {
	if m.nextAlloc >= len(m.allocs) {
		return 0, false
	}
	a := m.allocs[m.nextAlloc]
	m.nextAlloc++
	return mcast.Addr(a), a >= 0
}

func (m *mirror) applyActions(r int, actions []clash.Action) {
	if m.tr != nil {
		m.actions += int64(len(actions))
	}
	degraded := m.degradeLevel >= 1
	for _, a := range actions {
		key := string(a.Key)
		switch a.Kind {
		case clash.ActionResendOwn:
			if m.owned[key] != nil {
				m.counts.defOwn++
			}
		case clash.ActionModifyAddress:
			own, ok := m.owned[key]
			if !ok {
				continue
			}
			addr, ok := m.nextAddr()
			if !ok {
				continue
			}
			own.group = m.space.Group(addr)
			own.version++
			s := m.tr.open(stTrackOther, int32(r))
			m.tracker.AnnounceOwn(a.Key, addr, own.ttl, a.DueAt)
			m.tr.close(s)
			m.counts.moves++
		case clash.ActionDefendOther:
			if degraded {
				m.counts.suppressed++
				continue
			}
			if _, ok := m.cache.Get(key); ok {
				m.counts.defThird++
			}
		}
	}
}

func (m *mirror) step(r int, now time.Time) {
	root := m.tr.root(stStep, int32(r))
	defer m.tr.closeRoot(root)
	if m.maxSessions > 0 {
		fresh := m.cache.CountFresh(now, m.staleAfter)
		switch {
		case fresh*100 >= m.maxSessions*degradeL2Pct && m.maxSessions >= degradeMinBudget:
			m.degradeLevel = 2
		case fresh*100 >= m.maxSessions*degradeL1Pct:
			m.degradeLevel = 1
		default:
			m.degradeLevel = 0
		}
	}
	s := m.tr.open(stDue, int32(r))
	actions := m.tracker.Due(m.ms(now))
	m.tr.close(s)
	m.applyActions(r, actions)
	s = m.tr.open(stExpire, int32(r))
	expired := m.cache.Expire(now)
	m.tr.close(s)
	for _, k := range expired {
		m.forget(r, k)
	}
	if m.tr != nil {
		m.steps++
		m.pendingMax = max(m.pendingMax, int64(m.tracker.PendingDefenses()))
	}
}

// ownKey is the key CreateSession gives desc: our origin, its ID.
func ownKey(desc *session.Description) string {
	c := *desc
	c.Origin = ownOrigin
	return c.Key()
}

func (m *mirror) create(r int, desc *session.Description, now time.Time) {
	root := m.tr.root(stCreate, int32(r))
	defer m.tr.closeRoot(root)
	addr, ok := m.nextAddr()
	if !ok {
		return
	}
	key := ownKey(desc)
	m.owned[key] = &mirrorOwn{version: max(desc.Version, 1), group: m.space.Group(addr), ttl: desc.TTL}
	s := m.tr.open(stTrackOther, int32(r))
	m.tracker.AnnounceOwn(clash.SessionKey(key), addr, desc.TTL, m.ms(now))
	m.tr.close(s)
}

func (m *mirror) withdraw(r int, desc *session.Description) {
	key := ownKey(desc)
	if m.owned[key] == nil {
		return
	}
	delete(m.owned, key)
	m.forget(r, key)
}

// check compares the mirror's outcome counts with the program's.
func (m *mirror) check(c map[string]float64) []string {
	want := []struct {
		name string
		got  int64
	}{
		{"dir_sessions_learned_total", m.counts.learned},
		{"dir_admission_evictions_total", m.counts.evictions},
		{"dir_admission_shed_total", m.counts.shed},
		{"dir_degraded_learns_shed_total", m.counts.degradedLearns},
		{"dir_admission_quota_drops_total", m.counts.quotaDrops},
		{"dir_admission_forged_reports_total", m.counts.forged},
		{"dir_admission_forged_deletes_total", m.counts.forgedDeletes},
		{"dir_clash_defenses_own_total", m.counts.defOwn},
		{"dir_clash_defenses_third_total", m.counts.defThird},
		{"dir_degraded_defenses_suppressed_total", m.counts.suppressed},
		{"dir_clash_moves_total", m.counts.moves},
		{"dir_packets_malformed_total", m.counts.malformed},
	}
	var bad []string
	for _, w := range want {
		if int64(c[w.name]) != w.got {
			bad = append(bad, fmt.Sprintf("replay diverged: %s program %.0f, replay %d", w.name, c[w.name], w.got))
		}
	}
	return bad
}

// heapAllocs reads the cumulative count of heap allocations.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// parseAllocs is the mean number of heap allocations per ParseSDP call
// over the sampled payloads.
func (m *mirror) parseAllocs() float64 {
	if len(m.parseSample) == 0 {
		return 0
	}
	before := heapAllocs()
	for _, p := range m.parseSample {
		_, _ = session.ParseSDP(p) // parsed once already, so it cannot fail
	}
	return float64(heapAllocs()-before) / float64(len(m.parseSample))
}
