// Command perfbench is the repository benchmark. It drives the program
// through its public entry points on one of three seeded workloads and
// prints every end-to-end metric (or, with -trace 1, every per-layer
// metric) as the last line of its output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	setupWall  []float64 // s
	ops        int64     // datagrams (ingest) or placements (occupancy)
	loopNs     int64
	loopCPU    int64
	opUs       []float64 // batch or churn-placement durations
	callUs     []float64 // Step, CreateSession or Allocate durations
	opCPU      []float64 // process CPU µs of the same ops
	callCPU    []float64 // caller-thread CPU µs of the same calls
	setupCPU   []float64 // s, process CPU
	heapMB     float64
	attempted  int64
	failed     int64
	digest     string
	violations []string
	layers     map[string]metric // traced runs
	notes      []string          // printed to stderr
}

// workloads maps a workload name to its runner. A non-empty traceDir
// makes the run a traced one that writes its spans there.
var workloads = map[string]func(sc scale, seed uint64, seconds float64, traceDir string) (*outcome, error){
	"ingest-refresh": func(sc scale, seed uint64, seconds float64, traceDir string) (*outcome, error) {
		return runIngest(false, sc, seed, seconds, traceDir)
	},
	"ingest-churn": func(sc scale, seed uint64, seconds float64, traceDir string) (*outcome, error) {
		return runIngest(true, sc, seed, seconds, traceDir)
	},
	"occupancy": runOccupancy,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "ingest-refresh, ingest-churn or occupancy")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "timed-loop length in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps and the digest record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	env := environment(*name, *seed, *seconds, *trace == 1)
	fmt.Fprintln(stdout, mustJSON(map[string]any{"env": env}))

	traceDir := ""
	if *trace == 1 {
		traceDir = *out
	}
	o, err := wl(fullScale, *seed, *seconds, traceDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, n := range o.notes {
		fmt.Fprintln(stderr, n)
	}
	if traceDir == "" {
		fmt.Fprintf(stderr, "wall clock: setup_s=%.3f ops_per_s=%.2f\n", quantile(o.setupWall, 0.5), float64(o.ops)/(float64(o.loopNs)/1e9))
		fmt.Fprintln(stderr, tail("wall op", o.opUs))
		fmt.Fprintln(stderr, tail("wall call", o.callUs))
		fmt.Fprintln(stderr, tail("process cpu op", o.opCPU))
		fmt.Fprintln(stderr, tail("thread cpu call", o.callCPU))
	}
	correct := gate(*name, *seed, *out, o, stderr)
	res := result{Correct: correct, Attempted: o.attempted, Failed: o.failed}
	if *trace == 1 {
		res.Metrics = o.layers
	} else {
		res.Metrics = endToEnd(o)
	}
	fmt.Fprintf(stdout, "digest %s\n", o.digest)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(stderr, "%-36s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintln(stdout, mustJSON(res))
	return 0
}

// endToEnd turns a run's samples into the end-to-end metrics. Times
// are CPU time: the process's for set-up and ops, the caller thread's
// for calls (see ingestRun.timed). Tail percentiles and the wall-clock
// figures go to the log only.
func endToEnd(o *outcome) map[string]metric {
	return map[string]metric{
		"setup_s":         {quantile(o.setupCPU, 0.5), "s"},
		"ops_per_cpu_s":   {float64(o.ops) / (float64(o.loopCPU) / 1e9), "1/s"},
		"op_cpu_p50_us":   {quantile(o.opCPU, 0.5), "us"},
		"call_cpu_p50_us": {quantile(o.callCPU, 0.5), "us"},
		"heap_mb":         {o.heapMB, "MiB"},
	}
}

// environment is recorded beside every result, so that a figure taken
// at another core count or toolchain cannot pass unnoticed.
func environment(name string, seed uint64, seconds float64, trace bool) map[string]any {
	return map[string]any{
		"workload":    name,
		"seed":        seed,
		"seconds":     seconds,
		"trace":       trace,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go":          runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"loop":        "closed, 1 caller goroutine",
		"batch_depth": batchDepth,
		"datagrams":   "in-process transport.Message values handed to HandleBatch, no socket",
	}
}

// tail summarises a latency sample for the log.
func tail(name string, xs []float64) string {
	return fmt.Sprintf("%s us: n=%d p50=%.1f p90=%.1f p95=%.1f p99=%.1f p99.9=%.1f max=%.1f", name, len(xs),
		quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.95), quantile(xs, 0.99), quantile(xs, 0.999), quantile(xs, 1))
}

// liveHeap collects garbage and returns the bytes still live.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs are marshalled
	}
	return string(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runIngest measures one ingest workload. An untraced run splits its
// loop time over sc.setups trials, each on a Directory set up afresh,
// and pools their samples: how fast one Directory runs depends on where
// its heap happened to land (trials in one process differ by up to 10%),
// and pooling several evens that out. A traced run uses one trial.
func runIngest(churn bool, sc scale, seed uint64, seconds float64, traceDir string) (*outcome, error) {
	o := &outcome{}
	trials := sc.setups
	if traceDir != "" {
		trials = 1
	}
	var heaps []float64
	for i := 0; i < trials; i++ {
		runtime.GC()
		c0, t0 := cpuNow(), time.Now()
		h, err := setupIngest(churn, sc, seed, nil)
		if err != nil {
			return nil, err
		}
		o.setupWall = append(o.setupWall, time.Since(t0).Seconds())
		o.setupCPU = append(o.setupCPU, float64(cpuNow()-c0)/1e9)
		var win *ingestWindow
		if traceDir != "" {
			win = traceIngest(h, seconds)
		} else {
			n := float64(trials)
			h.loop(seconds/n, (sc.minSamples+trials-1)/trials, maxLoopSeconds/n)
		}
		h.finish()
		o.ops += h.dgrams
		o.loopNs += h.loopNs
		o.loopCPU += h.loopCPU
		o.opUs, o.callUs = append(o.opUs, h.batchUs...), append(o.callUs, h.callUs...)
		o.opCPU, o.callCPU = append(o.opCPU, h.batchCPU...), append(o.callCPU, h.callCPU...)
		o.attempted += h.dgrams + h.calls
		o.failed += h.failures()
		if win != nil {
			if err := ingestLayers(h, win, o, traceDir); err != nil {
				return nil, err
			}
		} else {
			heaps = append(heaps, h.dropDirectory()/(1<<20))
		}
		switch {
		case i == 0:
			o.digest = h.digest
		case h.digest != o.digest:
			o.violations = append(o.violations, fmt.Sprintf("trial %d reached %q, trial 0 reached %q", i, h.digest, o.digest))
		}
		if len(h.failNotes) > 0 {
			o.notes = append(o.notes, "failed: "+strings.Join(h.failNotes, " "))
		}
		o.violations = append(o.violations, h.violations...)
		o.notes = append(o.notes, fmt.Sprintf("trial %d: rounds=%d datagrams=%d calls=%d samples op=%d call=%d loop=%.3fs",
			i, h.rounds, h.dgrams, h.calls, len(h.batchUs), len(h.callUs), float64(h.loopNs)/1e9))
		if i == trials-1 {
			o.notes = append(o.notes, h.shares())
		}
	}
	if len(heaps) > 0 {
		o.heapMB = quantile(heaps, 0.5)
	}
	return o, nil
}
