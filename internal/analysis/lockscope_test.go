package analysis

import "testing"

func TestLockScopeFixture(t *testing.T) {
	diags := runFixture(t, "lockscope", LockScope)
	if len(diags) != 4 {
		t.Errorf("got %d diagnostics, want 4:\n%s", len(diags), diagnosticSummary(diags))
	}
}
