package sessiondir

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/transport"
)

// The goldens below are sha256 fingerprints recorded from the directory
// while its session cache was still striped, run at one stripe (the
// default path). They pin that collapsing the stripes into one cache
// changed no event, cache state, metric, eviction or allocation.
const (
	goldenIngestScenario = "492506dd52d455f33e65c9d95102dd2c5ead7d745a208927282042371d2d9069"
	goldenEvictionOrder  = "2bb1e3ea403c6950344243678c0bb4e8830870dbe48b49a9392d67cde40a5c7e"
	goldenBatchPartial   = "a38ada8adba0e38704f1081adf2be5973809c6ec2883ce410b47cca70e01204a"
)

func fingerprint(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// newBudgetDirectory builds a directory like newDirectory but with an
// admission budget tight enough that scripted floods exercise eviction.
func newBudgetDirectory(t *testing.T, bus *transport.Bus, clk *fakeClock, origin string, log *eventLog) *Directory {
	t.Helper()
	const spaceSize = 128
	cfg := Config{
		Origin:       netip.MustParseAddr(origin),
		Transport:    bus.Endpoint(),
		Space:        mcast.SyntheticSpace(spaceSize),
		Allocator:    allocator.NewAdaptive(spaceSize, allocator.AdaptiveConfig{GapFraction: 0.2}),
		Clock:        clk.Now,
		Seed:         42,
		MaxSessions:  24,
		MaxPerOrigin: 10,
		StaleAfter:   2 * time.Minute,
		RecentWindow: 30 * time.Second,
		Delay:        clash.NewUniformDelay(1000, 1001),
	}
	if log != nil {
		cfg.OnEvent = log.add
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runIngestScenario scripts a deterministic multi-agent run — three
// peers flooding announcements at an observed directory under a virtual
// clock, with deletions, malformed injections, admission pressure and an
// aging phase — and returns a replay fingerprint: the observed
// directory's full event sequence, cached/owned session state and
// metrics snapshot.
func runIngestScenario(t *testing.T) string {
	t.Helper()
	bus := transport.NewBus()
	clk := newFakeClock()
	log := &eventLog{}
	obsDir := newBudgetDirectory(t, bus, clk, "10.0.0.1", log)
	defer obsDir.Close()

	var peers []*Directory
	for i := 0; i < 3; i++ {
		p, _ := newDirectory(t, bus, clk, fmt.Sprintf("10.0.0.%d", i+2), 128, uint64(i+2), nil)
		defer p.Close()
		peers = append(peers, p)
	}
	raw := bus.Endpoint()

	for round := 0; round < 12; round++ {
		for i, p := range peers {
			if _, err := p.CreateSession(testDesc(fmt.Sprintf("p%d-r%d", i, round), 127)); err != nil {
				t.Fatalf("peer %d round %d: %v", i, round, err)
			}
		}
		// A transient origin per round: announces once and goes silent, so
		// its session turns stale and becomes eviction fodder for the
		// admission planner in later rounds.
		tp, _ := newDirectory(t, bus, clk, fmt.Sprintf("10.0.9.%d", round+2), 128, uint64(200+round), nil)
		if _, err := tp.CreateSession(testDesc(fmt.Sprintf("t-r%d", round), 127)); err != nil {
			t.Fatal(err)
		}
		if round%3 == 0 {
			// Undecodable junk: lands in the malformed counter.
			if err := raw.Send(context.Background(), []byte{0xff, 0x00, 0x01}, 127); err != nil {
				t.Fatal(err)
			}
		}
		if round == 5 {
			if _, err := obsDir.CreateSession(testDesc("own-a", 127)); err != nil {
				t.Fatal(err)
			}
		}
		if round == 8 {
			for _, own := range obsDir.OwnSessions() {
				if err := obsDir.WithdrawSession(own.Key()); err != nil {
					t.Fatal(err)
				}
			}
		}
		now := clk.Advance(15 * time.Second)
		obsDir.Step(now)
		for _, p := range peers {
			p.Step(now)
		}
		tp.Close()
	}
	// Silence every announcer, then age the cache through the expiry path.
	for _, p := range peers {
		p.Close()
	}
	for i := 0; i < 4; i++ {
		obsDir.Step(clk.Advance(30 * time.Minute))
	}

	var b strings.Builder
	log.mu.Lock()
	for _, e := range log.events {
		fmt.Fprintf(&b, "event %s %s\n", e.Kind, e.Key)
	}
	log.mu.Unlock()
	var keys []string
	for _, s := range obsDir.Sessions() {
		keys = append(keys, fmt.Sprintf("%s@%s", s.Key(), s.Group))
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "sessions %v\n", keys)
	for _, own := range obsDir.OwnSessions() {
		fmt.Fprintf(&b, "own %s@%s\n", own.Key(), own.Group)
	}
	for _, mv := range obsDir.Registry().Snapshot() {
		fmt.Fprintf(&b, "metric %s %s %v\n", mv.Name, mv.Kind, mv.Value)
	}
	return b.String()
}

// The scenario's events, cache, own sessions and metrics replay bit for
// bit as they did on the striped cache's default path.
func TestIngestReplayMatchesGolden(t *testing.T) {
	got := runIngestScenario(t)
	if !strings.Contains(got, "event session-evicted") ||
		!strings.Contains(got, "event session-expired") {
		t.Fatalf("scenario lost its teeth: no eviction/expiry pressure:\n%s", got)
	}
	if fp := fingerprint(got); fp != goldenIngestScenario {
		t.Fatalf("replay fingerprint %s, golden %s:\n%s", fp, goldenIngestScenario, got)
	}
}

// Eviction ordering under sustained admission pressure must match the
// golden exactly: the planners impose a total order on candidates, so
// the cache's map-ordered candidate list may not reorder who gets
// displaced.
func TestEvictionOrderMatchesGolden(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	log := &eventLog{}
	d := newBudgetDirectory(t, bus, clk, "10.0.0.1", log)
	defer d.Close()
	// Flood from many distinct origins so the candidate list is large.
	for i := 0; i < 60; i++ {
		p, _ := newDirectory(t, bus, clk, fmt.Sprintf("10.0.%d.%d", i/8+1, i%8+2), 128, uint64(100+i), nil)
		if _, err := p.CreateSession(testDesc(fmt.Sprintf("f%d", i), 127)); err != nil {
			t.Fatal(err)
		}
		now := clk.Advance(3 * time.Second)
		d.Step(now)
		p.Step(now)
		p.Close()
	}
	var evicted []string
	log.mu.Lock()
	for _, e := range log.events {
		if e.Kind == EventSessionEvicted {
			evicted = append(evicted, e.Key)
		}
	}
	log.mu.Unlock()
	if len(evicted) == 0 {
		t.Fatal("flood produced no evictions; the scenario is not exercising admission")
	}
	if fp := fingerprint(fmt.Sprint(evicted)); fp != goldenEvictionOrder {
		t.Fatalf("eviction order fingerprint %s, golden %s: %v", fp, goldenEvictionOrder, evicted)
	}
}

// CreateSessionBatch partial failure: when the space runs out mid-batch
// against a view assembled from several peers' cached sessions, the
// sessions created before the failure stay created, the error surfaces,
// and the outcome matches the golden.
func TestCreateSessionBatchPartialFailureMatchesGolden(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	const spaceSize = 16
	d, err := New(Config{
		Origin:       netip.MustParseAddr("10.0.0.1"),
		Transport:    bus.Endpoint(),
		Space:        mcast.SyntheticSpace(spaceSize),
		Allocator:    allocator.NewInformedRandom(spaceSize),
		Clock:        clk.Now,
		Seed:         7,
		RecentWindow: 30 * time.Second,
		Delay:        clash.NewUniformDelay(1000, 1001),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Seed the cache with announcements from several origins so the
	// batch's allocator view is built from cached state.
	for i := 0; i < 6; i++ {
		p, _ := newDirectory(t, bus, clk, fmt.Sprintf("10.0.%d.2", i+1), spaceSize, uint64(50+i), nil)
		if _, cerr := p.CreateSession(testDesc(fmt.Sprintf("peer%d", i), 127)); cerr != nil {
			t.Fatal(cerr)
		}
		now := clk.Advance(time.Second)
		d.Step(now)
		p.Step(now)
		p.Close()
	}
	descs := make([]*session.Description, 16)
	for i := range descs {
		descs[i] = testDesc(fmt.Sprintf("b%d", i), 127)
	}
	out, berr := d.CreateSessionBatch(descs)
	if berr == nil {
		t.Fatalf("a 16-session batch into a %d-address space with peers resident should partially fail", spaceSize)
	}
	if len(out) == 0 {
		t.Fatal("partial failure created nothing")
	}
	if len(out) != len(d.OwnSessions()) {
		t.Fatalf("%d returned but %d owned", len(out), len(d.OwnSessions()))
	}
	var created []string
	for _, c := range out {
		created = append(created, fmt.Sprintf("%s@%s", c.Key(), c.Group))
	}
	got := fmt.Sprintf("%v %q len=%d", created, berr, d.CacheSize())
	if fp := fingerprint(got); fp != goldenBatchPartial {
		t.Fatalf("partial batch fingerprint %s, golden %s: %s", fp, goldenBatchPartial, got)
	}
}

// batchAnnouncePacket marshals a valid SAP announcement from the given
// origin for the batch-ingest tests.
func batchAnnouncePacket(t *testing.T, origin string, id uint64) []byte {
	t.Helper()
	return announceWire(t, netip.MustParseAddr(origin), id, netip.AddrFrom4([4]byte{224, 2, 128, byte(id)}))
}

// announceWire marshals a valid SAP announcement of session id from
// origin at group.
func announceWire(tb testing.TB, origin netip.Addr, id uint64, group netip.Addr) []byte {
	tb.Helper()
	desc := &session.Description{
		ID:      id,
		Version: 1,
		Origin:  origin,
		Name:    fmt.Sprintf("batch-%s-%d", origin, id),
		Group:   group,
		TTL:     127,
		Media:   []session.Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}},
	}
	payload, err := desc.MarshalSDP()
	if err != nil {
		tb.Fatal(err)
	}
	pkt := sap.Packet{
		Type:      sap.Announce,
		MsgIDHash: sap.MsgIDHashOf(payload),
		Origin:    desc.Origin,
		Payload:   payload,
	}
	wire, err := pkt.Marshal(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return wire
}

// BenchmarkHandleBatch feeds 32-datagram batches of unchanged
// re-announcements through HandleBatch with 2k and 20k sessions cached
// (ten per origin) and reports the cost per datagram. Cache size is the
// only difference between the two, so per-datagram work that grows with
// the cache shows as a ratio between them.
func BenchmarkHandleBatch(b *testing.B) {
	const depth = 32
	for _, n := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			clk := newFakeClock()
			d, err := New(Config{
				Origin:    netip.MustParseAddr("10.255.255.1"),
				Transport: transport.NewBus().Endpoint(),
				Clock:     clk.Now,
				Seed:      1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			ms := make([]transport.Message, n)
			for i := range ms {
				origin := netip.AddrFrom4([4]byte{10, 0, byte(i / 10 >> 8), byte(i / 10)})
				group := netip.AddrFrom4([4]byte{224, 2, 128 + byte(i>>8), byte(i)})
				ms[i] = transport.Message{Data: announceWire(b, origin, uint64(i+1), group)}
			}
			for i := 0; i < n; i += depth {
				d.HandleBatch(ms[i:min(i+depth, n)])
			}
			if got := d.CacheSize(); got != n {
				b.Fatalf("cached %d sessions, want %d", got, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := i * depth % (n - n%depth)
				clk.Advance(time.Millisecond)
				d.HandleBatch(ms[off : off+depth])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*depth), "ns/dgram")
		})
	}
}

// HandleBatch (the epoch-batched ingest: parse the batch, then apply it
// in arrival order under one lock) must land exactly the state that
// per-message delivery does — including the malformed counter and
// learned-event order.
func TestHandleBatchMatchesSequentialDelivery(t *testing.T) {
	mkDir := func(log *eventLog) *Directory {
		clk := newFakeClock()
		return newBudgetDirectory(t, transport.NewBus(), clk, "10.0.0.1", log)
	}
	var wires [][]byte
	for i := 0; i < 24; i++ {
		wires = append(wires, batchAnnouncePacket(t, fmt.Sprintf("10.0.%d.%d", i%5+1, i%3+2), uint64(i+1)))
		if i%7 == 0 {
			wires = append(wires, []byte{0xff, 0xee}) // malformed
		}
	}

	logBatch, logSeq := &eventLog{}, &eventLog{}
	batchDir, seqDir := mkDir(logBatch), mkDir(logSeq)
	defer batchDir.Close()
	defer seqDir.Close()

	ms := make([]transport.Message, len(wires))
	for i, w := range wires {
		ms[i] = transport.Message{Data: w}
	}
	batchDir.HandleBatch(ms)
	for _, w := range wires {
		seqDir.HandleBatch([]transport.Message{{Data: w}})
	}

	state := func(d *Directory, log *eventLog) string {
		var b strings.Builder
		log.mu.Lock()
		for _, e := range log.events {
			fmt.Fprintf(&b, "event %s %s\n", e.Kind, e.Key)
		}
		log.mu.Unlock()
		var keys []string
		for _, s := range d.Sessions() {
			keys = append(keys, s.Key())
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "sessions %v\n", keys)
		fmt.Fprintf(&b, "malformed %v\n", d.Metrics().PacketsMalformed)
		return b.String()
	}
	if got, want := state(batchDir, logBatch), state(seqDir, logSeq); got != want {
		t.Fatalf("batched ingest diverges from sequential delivery:\n--- batch\n%s\n--- sequential\n%s", got, want)
	}
}

// Registry scrapes take d.mu for every population gauge, so a scrape
// loop racing a HandleBatch flood must stay race-free (run under -race)
// and deadlock-free, and must read the gauges it exports.
func TestScrapesRaceHandleBatchFlood(t *testing.T) {
	clk := newFakeClock()
	d := newBudgetDirectory(t, transport.NewBus(), clk, "10.0.0.1", nil)
	defer d.Close()
	const batches, depth = 150, 16
	wires := make([][]byte, batches*depth)
	for n := range wires {
		wires[n] = batchAnnouncePacket(t, fmt.Sprintf("10.1.%d.%d", n%9+1, n%13+2), uint64(n%200+1))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; b < batches; b++ {
			ms := make([]transport.Message, depth)
			for i := range ms {
				ms[i] = transport.Message{Data: wires[b*depth+i]}
			}
			d.HandleBatch(ms)
			if b%10 == 0 {
				d.Step(clk.Advance(10 * time.Second))
			}
		}
	}()
	watchdog := time.After(2 * time.Minute)
	scrapes := 0
	for flooding := true; flooding || scrapes == 0; scrapes++ {
		select {
		case <-done:
			flooding = false
		case <-watchdog:
			t.Fatalf("scrape loop still waiting on the flood after %d scrapes: deadlock?", scrapes)
		default:
		}
		seen := map[string]float64{}
		for _, mv := range d.Registry().Snapshot() {
			seen[mv.Name] = mv.Value
		}
		for _, name := range []string{"dir_cache_sessions", "shed_degradation_level", "dir_owned_sessions", "dir_admission_origins"} {
			if _, ok := seen[name]; !ok {
				t.Fatalf("scrape %d has no %s", scrapes, name)
			}
		}
		if n := seen["dir_cache_sessions"]; n < 0 || n > 24 {
			t.Fatalf("scrape %d: dir_cache_sessions %v outside the 24-session budget", scrapes, n)
		}
	}
	if d.CacheSize() == 0 || d.Metrics().PacketsReceived != batches*depth {
		t.Fatalf("flood did not land: cache %d, received %d", d.CacheSize(), d.Metrics().PacketsReceived)
	}
}
