package policy

import (
	"testing"

	"hibernator/internal/array"
	"hibernator/internal/raid"
	"hibernator/internal/sim"
	"hibernator/internal/simevent"
	"hibernator/internal/trace"
)

// A warm MAID routes a cached read and an absorbed write without
// allocating: the spans and their cache-disk requests live in a pooled
// record whose completion is bound once.
func TestMAIDRouteAllocatesNothing(t *testing.T) {
	cfg := singleSpeedConfig(41)
	e := simevent.New()
	arr, err := array.New(array.Config{
		Engine: e, Spec: &cfg.Spec, Groups: 4, GroupDisks: 1, Level: raid.RAID0,
		ExtentBytes: 64 << 20, SpareDisks: 2, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMAID()
	m.IdleThreshold = 1e9 // keep the data disks spinning: no spin-down work
	m.DestagePeriod = 1e9 // and the dirty chunk dirty: no destage work
	m.Init(&sim.Env{Engine: e, Array: arr, Cfg: &cfg})

	finished := 0
	finish := func() { finished++ }
	// A write spanning two chunks, then a read of both.
	write := trace.Request{Off: m.ChunkBytes - 4096, Size: 8192, Write: true}
	read := trace.Request{Off: m.ChunkBytes - 4096, Size: 8192}
	cycle := func(r trace.Request) func() {
		return func() {
			if !m.Route(r, finish) {
				t.Fatal("request not served from the cache disks")
			}
			e.Run(e.Now() + 0.5)
		}
	}
	for i := 0; i < 5; i++ {
		cycle(write)()
		cycle(read)()
	}
	for _, tc := range []struct {
		name string
		r    trace.Request
	}{{"absorbed write", write}, {"cached read", read}} {
		before := finished
		if allocs := testing.AllocsPerRun(50, cycle(tc.r)); allocs != 0 {
			t.Errorf("%s: %v allocs per request, want 0", tc.name, allocs)
		}
		if finished-before != 51 {
			t.Errorf("%s: %d requests finished, want 51", tc.name, finished-before)
		}
	}
}
