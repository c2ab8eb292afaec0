package main

import (
	"math"
	"strings"
	"testing"
)

// TestWorkloadsRepeat runs every workload twice at tiny scale on the
// default seed: each must finish without breaking an invariant, and
// reach the recorded digest both times.
func TestWorkloadsRepeat(t *testing.T) {
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			var digests []string
			for i := 0; i < 2; i++ {
				o, err := run(tinyScale, defaultSeed, 0, "")
				if err != nil {
					t.Fatal(err)
				}
				if len(o.violations) > 0 {
					t.Fatalf("invariants: %v", o.violations)
				}
				if o.failed != 0 {
					t.Errorf("%d of %d operations failed", o.failed, o.attempted)
				}
				digests = append(digests, o.digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("digest changed between runs: %q then %q", digests[0], digests[1])
			}
			if want := tinyGolden[name]; digests[0] != want {
				t.Errorf("digest %q, recorded %q", digests[0], want)
			}
		})
	}
}

// TestTracedStagesSum checks the traced run's decomposition: every
// per-layer metric is reported, the stage figures plus the residual add
// up to the traced total (true by the residual's definition, so this
// checks the reporting), the residual is not negative (the replay's
// layer spans, subtracted from the program's time, left room for the
// root's own code), and the replay agreed with the program.
func TestTracedStagesSum(t *testing.T) {
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			o, err := run(tinyScale, defaultSeed, 0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var violations []string
			for _, v := range o.violations {
				// The race detector slows the replay's calls and the
				// program's by different factors, so the residual's sign
				// means nothing in a race build.
				if !(raceEnabled && strings.HasPrefix(v, "trace residual")) {
					violations = append(violations, v)
				}
			}
			if len(violations) > 0 {
				t.Fatalf("violations: %v", violations)
			}
			sum := o.layers["trace.residual_us"].Value
			for _, l := range perLayer {
				if len(l.name) > 6 && l.name[:6] == "stage." {
					sum += o.layers[l.name].Value
				}
			}
			total := o.layers["trace.total_us"].Value
			if total <= 0 || math.Abs(sum-total) > 1e-6*total {
				t.Errorf("stages plus residual = %.6f us, traced total %.6f us", sum, total)
			}
			if r := o.layers["trace.residual_us"].Value; r < 0 && !raceEnabled {
				t.Errorf("residual %.3f us is negative", r)
			}
			if len(o.layers) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(o.layers), len(perLayer))
			}
		})
	}
}

// TestMalformedDatagramFails feeds one datagram that is not SAP: the
// directory drops it, and the run counts it as a failed operation.
func TestMalformedDatagramFails(t *testing.T) {
	h, err := setupIngest(false, tinyScale, defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.spec.rounds[0] = h.spec.pool.add([]byte("not a SAP packet"))
	h.loop(0, 1, maxLoopSeconds)
	h.finish()
	// The refresh rounds cycle, so the bad datagram arrives once per pass.
	passes := int64((h.rounds + h.spec.numRounds() - 1) / h.spec.numRounds())
	if f := h.failures(); f != passes {
		t.Errorf("failures = %d after %d rounds, want %d", f, h.rounds, passes)
	}
}

// TestNegativeResidualFails checks that the decomposition's sign check
// can fail: once the layers' spans exceed the traced total of the root
// calls, the residual is negative and the report returns a violation.
func TestNegativeResidualFails(t *testing.T) {
	st := newStageSum()
	st.addRoot(1000)
	st.add("clash", 600)
	st.add("admission", 300)
	vals := map[string]float64{}
	if v := st.report(vals); len(v) != 0 {
		t.Fatalf("residual %.3f us reported as %v", vals["trace.residual_us"], v)
	}
	st.add("session", 200)
	if v := st.report(vals); len(v) != 1 || vals["trace.residual_us"] >= 0 {
		t.Errorf("residual %.3f us, violations %v; want one violation", vals["trace.residual_us"], v)
	}
}
