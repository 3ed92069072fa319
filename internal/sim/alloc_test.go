package sim_test

import (
	"testing"

	"hibernator/internal/diskmodel"
	"hibernator/internal/dist"
	"hibernator/internal/policy"
	"hibernator/internal/raid"
	"hibernator/internal/sim"
	"hibernator/internal/trace"
)

// baseRunAllocsPerReq is the committed allocation ceiling of a short Base
// run on the bake-off geometry: heap allocations per simulated request,
// set-up included. The request path allocates nothing in steady state, so
// what remains is set-up (0.76 per request on amd64 with go1.24); the
// headroom absorbs map-growth differences between Go releases, while any
// new per-request allocation (at least one per request) trips the
// ceiling. Lower it when a change removes allocations; never raise it to
// make a change pass.
const baseRunAllocsPerReq = 1.5

func TestBaseRunAllocBudget(t *testing.T) {
	const dur = 120.0
	cfg := sim.Config{
		Spec: diskmodel.SingleSpeedUltrastar(), Groups: 4, GroupDisks: 4, Level: raid.RAID5,
		ExtentBytes: 64 << 20, CacheBytes: 256 << 20, RespWindow: 12, Seed: 1, ExpectedRotLatency: true,
	}
	vol, err := sim.LogicalBytes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reqs uint64
	allocs := testing.AllocsPerRun(1, func() {
		src, err := trace.NewOLTP(trace.OLTPConfig{
			Seed: 101, VolumeBytes: vol, Duration: dur,
			Rate: dist.DiurnalRate(20, 100, dur, 0.5), MaxRate: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(cfg, src, policy.NewBase(), dur)
		if err != nil {
			t.Fatal(err)
		}
		reqs = res.Requests
	})
	if reqs == 0 {
		t.Fatal("no simulated requests")
	}
	perReq := allocs / float64(reqs)
	t.Logf("%d requests, %.0f allocs per run, %.2f per request", reqs, allocs, perReq)
	if perReq > baseRunAllocsPerReq {
		t.Fatalf("%.2f allocs per simulated request, ceiling %.1f", perReq, baseRunAllocsPerReq)
	}
}
