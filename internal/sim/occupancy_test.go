package sim

import (
	"testing"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

func occupancyTestGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 150}, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Occupancy outcomes pinned from the striped eight-partition world this
// package used to run, whose own oracle held it equal to a serial World
// replay. Each row must come out the same with a private reach cache and
// with one shared across every row. The 5,000-session rows are past the
// resident count at which the striped world fanned its scans out; the
// 16-address rows exhaust the space.
func TestRunOccupancyMatchesGolden(t *testing.T) {
	ir := func(size uint32) allocator.Allocator { return allocator.NewInformedRandom(size) }
	hybrid := func(size uint32) allocator.Allocator { return allocator.NewHybrid(size) }
	aipr1 := func(size uint32) allocator.Allocator {
		return allocator.NewAdaptive(size, allocator.AdaptiveConfig{GapFraction: 0.2, Name: "AIPR-1 (20% gap)"})
	}
	const q = 400.0 / 600 // end-of-fill occupancy of the 400-in-600 rows
	cases := []struct {
		alloc func(uint32) allocator.Allocator
		seed  uint64
		churn int
		want  OccupancyResult
	}{
		{ir, 1998, 0, OccupancyResult{"IR", 400, 600, 400, 11, 1, 0, q}},
		{ir, 1998, 120, OccupancyResult{"IR", 400, 600, 400, 11, 8, 0, q}},
		{ir, 7, 0, OccupancyResult{"IR", 400, 600, 400, 8, 3, 0, q}},
		{ir, 7, 120, OccupancyResult{"IR", 400, 600, 400, 8, 7, 0, q}},
		{hybrid, 1998, 0, OccupancyResult{"AIPR-H (hybrid)", 400, 600, 400, 0, 0, 0, q}},
		{hybrid, 1998, 120, OccupancyResult{"AIPR-H (hybrid)", 400, 600, 400, 0, 0, 0, q}},
		{hybrid, 7, 0, OccupancyResult{"AIPR-H (hybrid)", 400, 600, 400, 0, 0, 0, q}},
		{hybrid, 7, 120, OccupancyResult{"AIPR-H (hybrid)", 400, 600, 400, 0, 0, 0, q}},
		{aipr1, 1998, 0, OccupancyResult{"AIPR-1 (20% gap)", 400, 600, 400, 20, 5, 0, q}},
		{aipr1, 1998, 120, OccupancyResult{"AIPR-1 (20% gap)", 400, 600, 400, 20, 8, 0, q}},
		{aipr1, 7, 0, OccupancyResult{"AIPR-1 (20% gap)", 400, 600, 400, 23, 2, 0, q}},
		{aipr1, 7, 120, OccupancyResult{"AIPR-1 (20% gap)", 400, 600, 400, 23, 10, 0, q}},
		{ir, 1998, 0, OccupancyResult{"IR", 300, 16, 178, 37, 3, 133, 11.125}},
		{hybrid, 1998, 0, OccupancyResult{"AIPR-H (hybrid)", 300, 16, 94, 23, 2, 234, 5.875}},
		{ir, 1998, 500, OccupancyResult{"IR", 5000, 8192, 5000, 144, 18, 0, 0.6103515625}},
		{hybrid, 1998, 500, OccupancyResult{"AIPR-H (hybrid)", 5000, 8192, 5000, 0, 0, 0, 0.6103515625}},
	}
	g := occupancyTestGraph(t)
	shared := topology.NewReachCache(g)
	for _, tc := range cases {
		for _, cache := range []*topology.ReachCache{nil, shared} {
			got := RunOccupancy(OccupancyConfig{
				Graph:    g,
				Cache:    cache,
				Alloc:    tc.alloc(tc.want.SpaceSize),
				Dist:     mcast.DS4(),
				Sessions: tc.want.Sessions,
				Churn:    tc.churn,
				Seed:     tc.seed,
			})
			if got != tc.want {
				t.Errorf("%s seed=%d churn=%d shared-cache=%v:\n got  %+v\n want %+v",
					tc.want.Algorithm, tc.seed, tc.churn, cache != nil, got, tc.want)
			}
		}
	}
}
