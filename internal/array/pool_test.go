package array

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hibernator/internal/diskmodel"
	"hibernator/internal/raid"
	"hibernator/internal/simevent"
)

// A deadline that gives up on an attempt leaves the attempt's record with
// the disk: the record returns to the pool only when the late completion
// arrives. An op submitted meanwhile gets a record of its own, the late
// completion touches nothing but its own record, and the next op reuses
// that record cleanly.
func TestDeadlineLateCompletionThenReuse(t *testing.T) {
	pol := RetryPolicy{OpDeadline: 0.005}
	e, a := retryArray(t, raid.RAID1, 2, 0, pol)
	spec := a.Spec()
	slow, fast := a.Groups()[0].Disks()[0], a.Groups()[0].Disks()[1]
	slow.SetFailSlow(0, 0, 100) // 100x slower from t=0

	// Row 0 reads land on disk 0, row 1 reads on disk 1 (RAID1 reads
	// alternate by row).
	const row1 = 64 << 10
	var doneA, doneB, doneC []float64
	a.Submit(0, 4096, false, func(float64) {
		doneA = append(doneA, e.Now())
		// Submitted while A's abandoned attempt still sits on the slow
		// disk: B must not be handed A's record.
		a.Submit(row1, 4096, false, func(float64) { doneB = append(doneB, e.Now()) })
	})
	for len(doneB) == 0 && e.Step() {
	}
	if slow.Completed() != 0 {
		t.Fatal("the slow disk finished before B did; the test no longer overlaps them")
	}
	if len(doneA) != 1 || len(doneB) != 1 {
		t.Fatalf("A completed %d times, B %d times, want 1 and 1", len(doneA), len(doneB))
	}
	seq := spec.ControllerOverhead + spec.TransferTime(0, 4096)
	if want := pol.OpDeadline + seq; math.Abs(doneA[0]-want) > 1e-9 {
		t.Fatalf("A completed at %v, want %v (deadline then mirror)", doneA[0], want)
	}
	poolB := a.freeOps // B's record, released at B's completion
	if poolB == nil || poolB.next != nil {
		t.Fatal("want exactly B's record in the pool while A's is held by the slow disk")
	}

	// The late completion arrives and releases A's record.
	for slow.Completed() == 0 && e.Step() {
	}
	recA := a.freeOps
	if recA == poolB || recA == nil || recA.next != poolB {
		t.Fatal("the late completion did not return A's record to the pool")
	}
	if len(doneA) != 1 || len(doneB) != 1 {
		t.Fatalf("late completion re-fired a callback: A %d, B %d", len(doneA), len(doneB))
	}

	// C reuses A's record on the healthy disk and is unaffected by
	// anything A left behind.
	fastBefore := fast.Completed()
	submitC := e.Now()
	a.Submit(row1+4096, 4096, false, func(float64) { doneC = append(doneC, e.Now()) })
	if a.freeOps != poolB {
		t.Fatal("C did not take A's record from the pool")
	}
	e.RunAll()
	if len(doneC) != 1 {
		t.Fatalf("C completed %d times, want 1", len(doneC))
	}
	// C continues B's sequential run on the fast disk.
	if want := submitC + seq; math.Abs(doneC[0]-want) > 1e-9 {
		t.Fatalf("C completed at %v, want %v", doneC[0], want)
	}
	if fast.Completed() != fastBefore+1 {
		t.Fatalf("fast disk served %d ops for C, want 1", fast.Completed()-fastBefore)
	}
	if fs := a.FaultStats(); fs.Timeouts != 1 || fs.Fallbacks != 1 {
		t.Fatalf("timeouts=%d fallbacks=%d, want 1/1 (A only)", fs.Timeouts, fs.Fallbacks)
	}
	if a.InFlight() != 0 || a.Completed() != 3 {
		t.Fatalf("in flight %d, completed %d, want 0 and 3", a.InFlight(), a.Completed())
	}
}

// Transient-error retry chains keep their record across the backoff and
// resubmit it; with many chains in flight at once, records are released
// and reused mid-chain. Every logical request still completes exactly
// once, so every physical op's onDone fired exactly once.
func TestRetryChainsCompleteOncePerOp(t *testing.T) {
	pol := RetryPolicy{MaxRetries: 3, Backoff: 0.002, BackoffFactor: 2}
	for _, level := range []raid.Level{raid.RAID0, raid.RAID1, raid.RAID5} {
		e, a := retryArray(t, level, 4, 0, pol)
		for _, d := range a.Groups()[0].Disks() {
			d.SetTransientErrorProb(0.3)
		}
		rng := rand.New(rand.NewSource(9))
		const n = 400
		fg := make([]int, n)
		bg := make([]int, n)
		limit := a.LogicalBytes() - 256<<10
		for i := 0; i < n; i++ {
			i := i
			off, size := rng.Int63n(limit), 512+rng.Int63n(200<<10)
			write := rng.Intn(2) == 0
			if i%4 == 3 {
				a.SubmitBackground(off, size, write, func() { bg[i]++ })
			} else {
				a.Submit(off, size, write, func(float64) { fg[i]++ })
			}
			if i%50 == 49 {
				e.Run(e.Now() + 0.05) // let chains interleave with new work
			}
		}
		e.RunAll()
		for i := 0; i < n; i++ {
			if got := fg[i] + bg[i]; got != 1 {
				t.Fatalf("%v: request %d completed %d times", level, i, got)
			}
		}
		fs := a.FaultStats()
		if fs.Retries == 0 {
			t.Fatalf("%v: no retries issued; the test exercises nothing", level)
		}
		if a.InFlight() != 0 {
			t.Fatalf("%v: %d requests still in flight", level, a.InFlight())
		}
	}
}

// A steady-state RAID-5 array allocates nothing per physical op: pooled
// op and fan-out records, mapping into their scratch, and the disks'
// bound completions.
func TestSteadyStateSubmitAllocatesNothing(t *testing.T) {
	e := simevent.New()
	spec := diskmodel.MultiSpeedUltrastar(1, 0)
	a, err := New(Config{
		Engine: e, Spec: &spec, Groups: 4, GroupDisks: 4,
		Level: raid.RAID5, ExtentBytes: 64 << 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	limit := a.LogicalBytes() - 1<<20
	cycle := func() {
		// Small and multi-row writes, reads, and a request spanning an
		// extent boundary, several in flight together.
		for i := 0; i < 4; i++ {
			a.SubmitBackground(rng.Int63n(limit), 8192, true, nil)
			a.SubmitBackground(rng.Int63n(limit), 300<<10, true, nil)
			a.Submit(rng.Int63n(limit), 16384, false, nil)
		}
		a.SubmitBackground(64<<20-4096, 12288, true, nil)
		e.RunAll()
	}
	for i := 0; i < 20; i++ {
		cycle() // grow the pools and scratch to their working size
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%v allocs per cycle of 13 requests, want 0", allocs)
	}
}

// A request spanning extents files every extent's pre-reads ahead of
// every extent's writes, each phase in extent order, with each op's group
// alongside it — the order the two-phase dispatch relies on.
func TestFanOutFilesReadsAheadOfWrites(t *testing.T) {
	e := simevent.New()
	spec := diskmodel.MultiSpeedUltrastar(1, 0)
	a, err := New(Config{
		Engine: e, Spec: &spec, Groups: 3, GroupDisks: 4,
		Level: raid.RAID5, ExtentBytes: 1 << 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eb := a.ExtentBytes()
	// Partial-stripe writes across three extents (three groups), so
	// every extent contributes both reads and writes.
	off, size := eb-5000, 2*eb+9000
	f := a.newFanOut(false, true)
	a.mapLogical(f, off, size, true)

	var wantIOs, reads, writes []raid.PhysIO
	var wantGroups, readGroups, writeGroups []*Group
	for o, end := off, off+size; o < end; {
		n := eb - o%eb
		if n > end-o {
			n = end - o
		}
		loc := a.ExtentLocation(int(o / eb))
		g := a.Groups()[loc.Group]
		for _, io := range g.geo.Map(loc.Slot*eb+o%eb, n, true) {
			if io.Write {
				writes, writeGroups = append(writes, io), append(writeGroups, g)
			} else {
				reads, readGroups = append(reads, io), append(readGroups, g)
			}
		}
		o += n
	}
	wantIOs = append(reads, writes...)
	wantGroups = append(readGroups, writeGroups...)
	if f.reads != len(reads) || !reflect.DeepEqual(f.ios, wantIOs) || !reflect.DeepEqual(f.groups, wantGroups) {
		t.Fatalf("filed %d reads of %d ops, want %d of %d\n got %+v\nwant %+v",
			f.reads, len(f.ios), len(reads), len(wantIOs), f.ios, wantIOs)
	}
}

// Steady-state migration chunks allocate nothing: the move or swap record
// is pooled and its phase callbacks are bound once, so a whole move of 16
// chunks and a whole swap of 16 chunks run on pooled records alone.
func TestSteadyStateMigrationAllocatesNothing(t *testing.T) {
	e := simevent.New()
	spec := diskmodel.MultiSpeedUltrastar(1, 0)
	a, err := New(Config{
		Engine: e, Spec: &spec, Groups: 3, GroupDisks: 4,
		Level: raid.RAID5, ExtentBytes: 16 * migrationChunk, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		to := (a.ExtentLocation(0).Group + 1) % len(a.Groups())
		if err := a.MigrateExtent(0, to, true, nil); err != nil {
			t.Fatal(err)
		}
		if err := a.SwapExtents(1, 2, true, nil); err != nil {
			t.Fatal(err)
		}
		e.RunAll()
	}
	for i := 0; i < 5; i++ {
		cycle() // grow the pools to their working size
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("%v allocs per move and swap of 16 chunks each, want 0", allocs)
	}
	if n := a.InFlightMigrations(); n != 0 {
		t.Fatalf("%d migrations still in flight", n)
	}
}

// A migration's done callback may start the next migration at once, on
// the record the finished one just returned to the pool.
func TestMigrationDoneStartsNext(t *testing.T) {
	e := simevent.New()
	spec := diskmodel.MultiSpeedUltrastar(1, 0)
	a, err := New(Config{
		Engine: e, Spec: &spec, Groups: 3, GroupDisks: 2,
		Level: raid.RAID1, ExtentBytes: 3*migrationChunk + 4096, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	l0, l1, l2 := a.ExtentLocation(0), a.ExtentLocation(1), a.ExtentLocation(2)
	var order []string
	err = a.MigrateExtent(0, l1.Group, true, func() {
		order = append(order, "move")
		if got := a.InFlightMigrations(); got != 0 {
			t.Errorf("%d migrations in flight after the move", got)
		}
		if err := a.SwapExtents(1, 2, false, func() { order = append(order, "swap") }); err != nil {
			t.Error(err)
		}
		if !a.Migrating(1) || !a.Migrating(2) || a.Migrating(0) || a.InFlightMigrations() != 2 {
			t.Errorf("swap not marked in flight: %v %v %v, %d",
				a.Migrating(0), a.Migrating(1), a.Migrating(2), a.InFlightMigrations())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if !reflect.DeepEqual(order, []string{"move", "swap"}) {
		t.Fatalf("completions %v", order)
	}
	if got := a.ExtentLocation(0).Group; got != l1.Group || got == l0.Group {
		t.Fatalf("extent 0 in group %d, want %d", got, l1.Group)
	}
	if a.ExtentLocation(1) != l2 || a.ExtentLocation(2) != l1 {
		t.Fatalf("swap left %v %v, want %v %v", a.ExtentLocation(1), a.ExtentLocation(2), l2, l1)
	}
	if n, bytes := a.Migrations(); n != 3 || bytes != 3*uint64(a.ExtentBytes()) {
		t.Fatalf("migrations %d (%d bytes), want 3", n, bytes)
	}
	if a.InFlightMigrations() != 0 || a.Migrating(1) || a.Migrating(2) {
		t.Fatal("migration flags stuck")
	}
}
