package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// defaultSeed is the seed whose outcome digests are recorded below.
const defaultSeed = 1

// goldenDigests are the outcome digests of the default seed at full
// scale. A run at the default seed must reproduce them exactly: the
// program promises bit-identical replay from a seed.
var goldenDigests = map[string]string{
	"ingest-refresh": "learned=20000 evicted=0 shed=0+0 defend_own=0 defend_third=0 defend_suppressed=0 moves=0 announced=0 withdrawn=0 journal=0 cache=20000",
	"ingest-churn":   "learned=2560 evicted=128 shed=0+0 defend_own=0 defend_third=279 defend_suppressed=0 moves=0 announced=172 withdrawn=48 journal=2742 cache=2048",
	"occupancy":      "placed=25000 fill_clashes=0 churn_clashes=0 exhausted=0",
}

// tinyGolden are the default seed's digests at tinyScale. Every run
// replays the tiny workload and checks it, so each run tests the replay
// promise whatever seed it measures.
var tinyGolden = map[string]string{
	"ingest-refresh": "learned=640 evicted=0 shed=0+0 defend_own=0 defend_third=0 defend_suppressed=0 moves=0 announced=0 withdrawn=0 journal=0 cache=640",
	"ingest-churn":   "learned=512 evicted=64 shed=0+0 defend_own=0 defend_third=9 defend_suppressed=0 moves=0 announced=76 withdrawn=16 journal=598 cache=256",
	"occupancy":      "placed=800 fill_clashes=0 churn_clashes=0 exhausted=0",
}

// gate is the correctness check of one run: no invariant broke, the
// digest matches every earlier run of the same seed recorded under dir,
// the default seed's golden digest where it applies, and the tiny
// default-seed replay of the workload.
func gate(name string, seed uint64, dir string, o *outcome, stderr io.Writer) bool {
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(stderr, "perfbench: FAIL %s: %s\n", name, fmt.Sprintf(format, args...))
	}
	for _, v := range o.violations {
		fail("invariant: %s", v)
	}
	if o.digest == "" {
		fail("run ended before its digest window")
	}
	if want, ok := goldenDigests[name]; ok && seed == defaultSeed && o.digest != want {
		fail("digest %q, recorded for seed %d: %q", o.digest, seed, want)
	}
	path := filepath.Join(dir, fmt.Sprintf("digest-%s-%d.txt", name, seed))
	prev, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if err := os.WriteFile(path, []byte(o.digest+"\n"), 0o644); err != nil {
			fail("record digest: %v", err)
		}
	case err != nil:
		fail("read digest record: %v", err)
	case strings.TrimSpace(string(prev)) != o.digest:
		fail("digest %q differs from an earlier run of seed %d: %q", o.digest, seed, strings.TrimSpace(string(prev)))
	}
	tiny, err := workloads[name](tinyScale, defaultSeed, 0, "")
	switch {
	case err != nil:
		fail("tiny replay: %v", err)
	case len(tiny.violations) > 0:
		fail("tiny replay invariant: %s", tiny.violations[0])
	case tiny.digest != tinyGolden[name]:
		fail("tiny replay digest %q, recorded %q", tiny.digest, tinyGolden[name])
	}
	return ok
}
