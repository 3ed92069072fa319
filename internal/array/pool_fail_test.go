package array_test

import (
	"math/rand"
	"testing"

	"hibernator/internal/array"
	"hibernator/internal/diskmodel"
	"hibernator/internal/invariant"
	"hibernator/internal/raid"
	"hibernator/internal/simevent"
)

// FailDisk while pooled ops sit queued on the disk: the disk hands every
// queued and in-service request back as failed, and each op either
// completes through redundancy or is counted lost exactly once. The
// invariant checker audits IO conservation, energy and state legality
// over the whole run, including a second wave of traffic that reuses the
// records the failure released.
func TestFailDiskWithPooledOpsQueued(t *testing.T) {
	for _, level := range []raid.Level{raid.RAID0, raid.RAID5} {
		e := simevent.New()
		spec := diskmodel.MultiSpeedUltrastar(1, 0)
		a, err := array.New(array.Config{
			Engine: e, Spec: &spec, Groups: 1, GroupDisks: 4, Level: level,
			ExtentBytes: 64 << 20, Seed: 11, ExpectedRotLatency: true,
			Retry: array.RetryPolicy{MaxRetries: 1, Backoff: 0.001},
		})
		if err != nil {
			t.Fatal(err)
		}
		check := invariant.New()
		check.Attach(e, a, nil, nil)

		rng := rand.New(rand.NewSource(4))
		const n = 60
		completions := make([]int, 2*n)
		limit := a.LogicalBytes() - 64<<10
		wave := func(base int) {
			for i := base; i < base+n; i++ {
				i := i
				a.Submit(rng.Int63n(limit), 4096+rng.Int63n(32<<10), rng.Intn(3) == 0,
					func(float64) { completions[i]++ })
			}
		}
		wave(0)
		victim := a.Groups()[0].Disks()[2]
		held := victim.QueueLen()
		if victim.Busy() {
			held++
		}
		if held < 5 {
			t.Fatalf("%v: only %d ops queued on the victim", level, held)
		}
		if err := a.FailDisk(0, 2); err != nil {
			t.Fatal(err)
		}
		e.RunAll()
		lostFirst := a.LostIOs()
		switch level {
		case raid.RAID0:
			// No redundancy: every op the dead disk held is lost, once.
			if lostFirst != uint64(held) {
				t.Fatalf("RAID0: %d ops lost, want the %d the victim held", lostFirst, held)
			}
		case raid.RAID5:
			if lostFirst != 0 {
				t.Fatalf("RAID5: %d ops lost with one failure, want 0", lostFirst)
			}
		}
		wave(n) // reuses every record the failure released
		e.RunAll()
		for i, c := range completions {
			if c != 1 {
				t.Fatalf("%v: request %d completed %d times", level, i, c)
			}
		}
		if a.InFlight() != 0 || a.Completed() != 2*n {
			t.Fatalf("%v: in flight %d, completed %d, want 0 and %d", level, a.InFlight(), a.Completed(), 2*n)
		}
		check.Finish(e.Now())
		if !check.Ok() {
			t.Fatalf("%v: invariant violations: %v", level, check.Violations())
		}
	}
}
