package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// stage names one span kind. Root stages are the calls the benchmark
// makes into the program (one per batch, Step, CreateSession,
// WithdrawSession, Checkpoint or placement); the rest are the layers
// below them, recorded either in situ by the benchmark's own Transport,
// FS and Allocator, or by the replay through each layer's public
// functions.
type stage uint8

const (
	stBatch stage = iota
	stStep
	stCreate
	stWithdraw
	stCheckpoint
	stPlace
	stSend
	stFS
	stAlloc
	stDecode
	stParse
	stKey
	stAllow
	stPlan
	stPeek
	stObserve
	stRemove
	stExpire
	stTrack
	stTrackOther
	stDue
	stVisible
	stClashes
	stReach
	numStages
)

var stageNames = [numStages]string{
	"sessiondir.HandleBatch", "sessiondir.Step", "sessiondir.CreateSession", "sessiondir.WithdrawSession",
	"sessiondir.Checkpoint", "sim.placement",
	"transport.Send", "storage.FS", "allocator.Allocate",
	"sap.DecodeMaybeCompressed", "session.ParseSDP", "session.Key",
	"admission.Allow", "admission.PlanNewGrouped",
	"announce.Peek", "announce.Observe", "announce.Remove", "announce.Expire",
	"clash.Observe", "clash.Forget", "clash.Due",
	"sim.VisibleAt", "sim.Clashes", "topology.Reach",
}

// span is one timed call. parent indexes the enclosing span in the same
// tracer (-1 for a root); id is the batch, round or placement number the
// span belongs to.
type span struct {
	start, end int64 // ns since the tracer's base
	parent     int32
	id         int32
	name       stage
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	base  time.Time
	spans []span
	cur   int32 // open root span, parent of in-situ child spans
}

func newTracer() *tracer { return &tracer{base: time.Now(), cur: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// open starts a span under the current root and returns its index.
func (t *tracer) open(name stage, id int32) int32 {
	if t == nil {
		return -1
	}
	// The clock is read after the append, so growing the span slice is
	// not charged to the span.
	t.spans = append(t.spans, span{parent: t.cur, id: id, name: name})
	i := len(t.spans) - 1
	t.spans[i].start = t.now()
	return int32(i)
}

func (t *tracer) close(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = t.now()
}

// root opens a root span and makes it the parent of later child spans.
func (t *tracer) root(name stage, id int32) int32 {
	if t == nil {
		return -1
	}
	t.cur = -1
	i := t.open(name, id)
	t.cur = i
	return i
}

func (t *tracer) closeRoot(i int32) {
	if t == nil {
		return
	}
	t.close(i)
	t.cur = -1
}

// layerSums totals child time per stage under each root span; roots
// maps a root span's id to its duration.
type layerSums struct {
	roots map[int32]int64
	child map[int32]*[numStages]int64
	calls [numStages]int64
	ns    [numStages]int64
}

// sum folds the spans of the given root kind and their children.
func (t *tracer) sum(root stage) layerSums {
	s := layerSums{roots: map[int32]int64{}, child: map[int32]*[numStages]int64{}}
	for _, sp := range t.spans {
		d := sp.end - sp.start
		s.calls[sp.name]++
		s.ns[sp.name] += d
		if sp.parent < 0 {
			if sp.name == root {
				s.roots[sp.id] += d
			}
			continue
		}
		p := t.spans[sp.parent]
		if p.name != root {
			continue
		}
		c := s.child[p.id]
		if c == nil {
			c = new([numStages]int64)
			s.child[p.id] = c
		}
		c[sp.name] += d
	}
	return s
}

// mean returns ns/calls in the given unit, 0 when nothing was called.
func (s layerSums) mean(st stage, unit time.Duration) float64 {
	if s.calls[st] == 0 {
		return 0
	}
	return float64(s.ns[st]) / float64(s.calls[st]) / float64(unit)
}

// dump writes the spans as CSV (name,start_ns,end_ns,parent,id).
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,id")
	for _, sp := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", stageNames[sp.name], sp.start, sp.end, sp.parent, sp.id)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs (sorted in place) by linear
// interpolation between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// minTailSamples is the fewest samples of each timing a run collects:
// enough that the 95th percentile has twenty samples beyond it.
const minTailSamples = 400
