package main

import (
	"fmt"
	"net/netip"
	"time"

	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
	"sessiondir/internal/transport"
)

// epoch is the origin of every run's virtual clock: protocol time is
// epoch plus whole virtual seconds, so outcomes depend only on the seed.
var epoch = time.Unix(900_000_000, 0)

// batchDepth is the number of datagrams handed to one HandleBatch call.
const batchDepth = 32

// scale sizes every workload. fullScale is what the benchmark measures;
// the self-tests run tinyScale.
type scale struct {
	refreshSessions int // ingest-refresh: cached sessions (multiple of batchDepth)
	refreshOrigins  int
	churnBudget     int // ingest-churn: Config.MaxSessions
	churnResidents  int // sessions that keep re-announcing
	churnOrigins    int // origins of the residents
	churnRounds     int // generated timed-loop rounds
	occNodes        int // occupancy: synthetic Mbone size
	occSessions     int // resident target
	occChurn        int // remove-and-replace placements after the fill
	occSpace        uint32
	setups          int // set-ups per run; setup_s is their median
	gateRounds      int // rounds (ingest) covered by the outcome digest
	minSamples      int // timed samples a run collects before it may stop
}

var fullScale = scale{
	refreshSessions: 20000, refreshOrigins: 2000,
	churnBudget: 2048, churnResidents: 768, churnOrigins: 64, churnRounds: 6000,
	occNodes: 1864, occSessions: 25000, occChurn: 10000, occSpace: 1 << 17,
	setups: 3, gateRounds: 64, minSamples: minTailSamples,
}

var tinyScale = scale{
	refreshSessions: 640, refreshOrigins: 64,
	churnBudget: 256, churnResidents: 96, churnOrigins: 12, churnRounds: 200,
	occNodes: 200, occSessions: 800, occChurn: 2000, occSpace: 1 << 11,
	setups: 1, gateRounds: 32, minSamples: 1,
}

// Ingest-churn traffic shape, per one-virtual-second round of
// batchDepth datagrams; the rest of each batch is resident refreshes.
const (
	churnNewcomers   = 2  // unknown sessions from fresh origins
	churnBumps       = 4  // resident version bumps moving to a new address
	churnClashMoves  = 2  // bumps that land on another origin's address
	churnClashers    = 32 // residents that make the clash moves
	churnDeleteLag   = 10 // rounds between a newcomer and its deletion
	churnMaxOwn      = 16 // own sessions kept before the oldest is withdrawn
	churnCheckpoint  = 64 // rounds between Checkpoint calls
	churnPerOrigin   = 16 // Config.MaxPerOrigin
	churnOriginRate  = 4  // Config.OriginRate, packets/s
	churnOriginBurst = 32
	churnStaleAfter  = 300 * time.Second
	churnLowAddrs    = 16384 // peers use only the lower half of the space
	ownTTL           = mcast.TTL(127)
)

// ownOrigin is the benchmark directory's own address.
var ownOrigin = netip.AddrFrom4([4]byte{10, 254, 254, 254})

// timedBatch is set-up traffic applied at a virtual offset from epoch.
type timedBatch struct {
	at     time.Duration
	dgrams []int32 // indices into the spec's wirePool
}

// wirePool holds a workload's pre-marshalled datagrams and descriptions
// back to back in one byte arena. Once generation is done, seal moves it
// outside the Go heap (see offHeap).
type wirePool struct {
	bytes []byte
	ends  []uint32 // datagram i is bytes[ends[i-1]:ends[i]]
}

func (p *wirePool) add(wire []byte) int32 {
	p.bytes = append(p.bytes, wire...)
	p.ends = append(p.ends, uint32(len(p.bytes)))
	return int32(len(p.ends) - 1)
}

func (p *wirePool) data(i int32) []byte {
	start := uint32(0)
	if i > 0 {
		start = p.ends[i-1]
	}
	end := p.ends[i]
	return p.bytes[start:end:end]
}

// messages fills buf with the datagrams ids as in-process messages.
func (p *wirePool) messages(ids []int32, buf []transport.Message) []transport.Message {
	buf = buf[:0]
	for _, i := range ids {
		buf = append(buf, transport.Message{Data: p.data(i)})
	}
	return buf
}

// ingestSpec is one ingest workload's generated input: everything the
// directory will see, as pre-marshalled SAP datagrams and descriptions.
type ingestSpec struct {
	churn     bool
	pool      wirePool
	preload   []timedBatch
	loopStart time.Duration // virtual offset of round 0
	rounds    []int32       // timed-loop batches, batchDepth datagrams each
	kinds     []uint8       // ingest-churn: each round slot's datagram kind
	creates   []int32       // ingest-churn: each round's CreateSession description, as SDP in the pool
	cyclic    bool          // rounds repeat (refresh re-announcements)
}

// seal moves the generated input outside the Go heap. What stays on it
// is a few slice headers and the preload's batch index.
func (s *ingestSpec) seal() *ingestSpec {
	s.pool.bytes = offHeap(s.pool.bytes)
	s.pool.ends = offHeap(s.pool.ends)
	s.rounds = offHeap(s.rounds)
	s.kinds = offHeap(s.kinds)
	s.creates = offHeap(s.creates)
	for i := range s.preload {
		s.preload[i].dgrams = offHeap(s.preload[i].dgrams)
	}
	return s
}

// create returns round r's CreateSession description, parsed from its
// pre-marshalled SDP. The generator marshalled it, so parsing cannot fail.
func (s *ingestSpec) create(r int) *session.Description {
	d, err := session.ParseSDP(s.pool.data(s.creates[r]))
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated description: %v", err))
	}
	return d
}

func (s *ingestSpec) numRounds() int { return len(s.rounds) / batchDepth }

// round returns the datagrams of timed-loop round r.
func (s *ingestSpec) round(r int) []int32 {
	r %= s.numRounds()
	return s.rounds[r*batchDepth : (r+1)*batchDepth]
}

func originAddr(net byte, i int) netip.Addr {
	return netip.AddrFrom4([4]byte{net, byte(i >> 16), byte(i >> 8), byte(i)})
}

// describe builds a typical sdr announcement: two media streams and a
// couple of attributes, about 250 bytes of SDP.
func describe(origin netip.Addr, id, version uint64, group netip.Addr, ttl mcast.TTL) *session.Description {
	return &session.Description{
		ID: id, Version: version, Origin: origin, OriginUser: "bench",
		Name:  fmt.Sprintf("perfbench session %d", id),
		Info:  "generated benchmark session",
		Group: group, TTL: ttl,
		Attributes: []string{"tool:perfbench", "type:broadcast"},
		Media: []session.Media{
			{Type: "audio", Port: uint16(20000 + 2*(id%4000)), Proto: "RTP/AVP", Format: "0"},
			{Type: "video", Port: uint16(30000 + 2*(id%4000)), Proto: "RTP/AVP", Format: "31"},
		},
	}
}

// datagram pre-marshals one SAP packet for d. The generator only builds
// valid descriptions, so a marshal error is a bug.
func datagram(d *session.Description, typ sap.MessageType) []byte {
	payload, err := d.MarshalSDP()
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated description: %v", err))
	}
	pkt := sap.Packet{Type: typ, MsgIDHash: sap.MsgIDHashOf(payload), Origin: d.Origin, Payload: payload}
	wire, err := pkt.Marshal(nil)
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated packet: %v", err))
	}
	return wire
}

func batches(ids []int32, at time.Duration) []timedBatch {
	var out []timedBatch
	for len(ids) > 0 {
		n := min(batchDepth, len(ids))
		out = append(out, timedBatch{at: at, dgrams: ids[:n]})
		ids = ids[n:]
	}
	return out
}

// genRefresh builds ingest-refresh: refreshSessions sessions from
// refreshOrigins origins at distinct addresses, preloaded, then
// re-announced unchanged in a seeded order.
func genRefresh(sc scale, seed uint64) *ingestSpec {
	rng := stats.NewRNG(seed)
	space := mcast.SAPDynamicSpace()
	addrs := rng.Perm(int(space.Size))
	dist := mcast.DS4()
	spec := &ingestSpec{loopStart: time.Second, cyclic: true}
	ids := make([]int32, sc.refreshSessions)
	for i := range ids {
		d := describe(originAddr(10, i%sc.refreshOrigins), uint64(i+1), 1,
			space.Group(mcast.Addr(addrs[i])), dist.Sample(rng.IntN))
		ids[i] = spec.pool.add(datagram(d, sap.Announce))
	}
	spec.preload = batches(ids, 0)
	for _, j := range rng.Perm(len(ids))[:len(ids)/batchDepth*batchDepth] {
		spec.rounds = append(spec.rounds, ids[j])
	}
	return spec.seal()
}

// churnPeer is one generated session whose wire form changes over the run.
type churnPeer struct {
	desc *session.Description
	cur  int32 // latest announcement, in the spec's wirePool
}

// Datagram kinds of an ingest-churn round. The traced run reports each
// kind's share of the replayed batch time.
const (
	kindRefresh uint8 = iota
	kindNewcomer
	kindBump
	kindClashMove
	kindDelete
	numKinds
)

var kindNames = [numKinds]string{"refresh", "newcomer", "bump", "clash_move", "delete"}

// genChurn builds ingest-churn. Set-up fills the budget with sessions
// that are stale by the time the loop starts, then learns the residents;
// each round then mixes newcomers, moves, clash moves, a deletion and
// resident refreshes (see the churn* constants).
func genChurn(sc scale, seed uint64) *ingestSpec {
	rng := stats.NewRNG(seed ^ 0xc4c4)
	space := mcast.SAPDynamicSpace()
	dist := mcast.DS4()
	spec := &ingestSpec{churn: true}
	low := func() netip.Addr { return space.Group(mcast.Addr(rng.IntN(churnLowAddrs))) }
	id := uint64(0)
	peer := func(origin netip.Addr) *churnPeer {
		id++
		p := &churnPeer{desc: describe(origin, id, 1, low(), dist.Sample(rng.IntN))}
		p.cur = spec.pool.add(datagram(p.desc, sap.Announce))
		return p
	}
	move := func(p *churnPeer, group netip.Addr) {
		d := *p.desc
		d.Version++
		d.Group = group
		p.desc = &d
		p.cur = spec.pool.add(datagram(p.desc, sap.Announce))
	}

	fillers := make([]int32, sc.churnBudget-sc.churnResidents)
	for i := range fillers {
		fillers[i] = peer(originAddr(12, i/8)).cur
	}
	residents := make([]*churnPeer, sc.churnResidents)
	resIDs := make([]int32, len(residents))
	for i := range residents {
		residents[i] = peer(originAddr(10, i%sc.churnOrigins))
		resIDs[i] = residents[i].cur
	}
	residentsAt := churnStaleAfter + 100*time.Second
	spec.preload = append(batches(fillers, 0), batches(resIDs, residentsAt)...)
	spec.loopStart = residentsAt + time.Second

	clashers := residents[:churnClashers]
	victims := residents[churnClashers:]
	var newcomers []*session.Description
	refresh, bump, clash, fresh := 0, 0, 0, 0
	type slot struct {
		id   int32
		kind uint8
	}
	b := make([]slot, 0, batchDepth)
	for r := 0; r < sc.churnRounds; r++ {
		b = b[:0]
		for k := 0; k < churnNewcomers; k++ {
			p := peer(originAddr(11, fresh))
			fresh++
			newcomers = append(newcomers, p.desc)
			b = append(b, slot{p.cur, kindNewcomer})
		}
		for k := 0; k < churnBumps; k++ {
			// Clashers only move through clash moves: a bump and a clash
			// move of one session in one batch could arrive out of
			// version order and be dropped as a replay.
			p := victims[bump%len(victims)]
			bump++
			move(p, low())
			b = append(b, slot{p.cur, kindBump})
		}
		for k := 0; k < churnClashMoves; k++ {
			c := clashers[clash%len(clashers)]
			clash++
			v := victims[rng.IntN(len(victims))]
			for v.desc.Origin == c.desc.Origin {
				v = victims[rng.IntN(len(victims))]
			}
			move(c, v.desc.Group)
			b = append(b, slot{c.cur, kindClashMove})
		}
		if r >= churnDeleteLag {
			del := spec.pool.add(datagram(newcomers[(r-churnDeleteLag)*churnNewcomers], sap.Delete))
			b = append(b, slot{del, kindDelete})
		}
		for len(b) < batchDepth {
			b = append(b, slot{residents[refresh%len(residents)].cur, kindRefresh})
			refresh++
		}
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		for _, s := range b {
			spec.rounds = append(spec.rounds, s.id)
			spec.kinds = append(spec.kinds, s.kind)
		}
		own := describe(ownOrigin, uint64(1_000_000+r), 1, space.Group(0), ownTTL)
		own.Name = fmt.Sprintf("own session %d", r)
		sdp, err := own.MarshalSDP()
		if err != nil {
			panic(fmt.Sprintf("perfbench: generated description: %v", err))
		}
		spec.creates = append(spec.creates, spec.pool.add(sdp))
	}
	return spec.seal()
}
