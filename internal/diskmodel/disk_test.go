package diskmodel

import (
	"math"
	"testing"

	"hibernator/internal/simevent"
)

func testDisk(t *testing.T, levels int) (*simevent.Engine, *Disk, *Spec) {
	t.Helper()
	e := simevent.New()
	spec := MultiSpeedUltrastar(levels, 3000)
	d := New(e, &spec, Config{ID: 0, Seed: 1, InitialLevel: spec.FullLevel(), ExpectedRotLatency: true})
	return e, d, &spec
}

func submit(d *Disk, lba, size int64, write bool, done *[]float64) {
	d.Submit(&Request{LBA: lba, Size: size, Write: write, Done: func(_ *Request, at float64) {
		*done = append(*done, at)
	}})
}

func TestSingleRequestServiceTime(t *testing.T) {
	e, d, spec := testDisk(t, 1)
	var done []float64
	submit(d, 0, 8192, false, &done)
	e.RunAll()
	if len(done) != 1 {
		t.Fatalf("completed %d requests, want 1", len(done))
	}
	// Head starts at 0, request at 0: strictly sequential, so no seek and
	// no rotational latency — just overhead + transfer.
	want := spec.ControllerOverhead + spec.TransferTime(0, 8192)
	if math.Abs(done[0]-want) > 1e-12 {
		t.Errorf("completion at %v, want %v", done[0], want)
	}
	if d.Completed() != 1 {
		t.Errorf("Completed = %d", d.Completed())
	}
	if d.State() != Idle {
		t.Errorf("state = %v, want Idle", d.State())
	}
}

func TestFIFOWithinForeground(t *testing.T) {
	e, d, _ := testDisk(t, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		d.Submit(&Request{LBA: int64(i) * 1 << 20, Size: 4096, Done: func(_ *Request, _ float64) {
			order = append(order, i)
		}})
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v not FIFO", order)
		}
	}
}

func TestBackgroundYieldsToForeground(t *testing.T) {
	e, d, _ := testDisk(t, 1)
	var order []string
	// Occupy the disk, then queue one background and one foreground request
	// while busy. The foreground one must be served first.
	d.Submit(&Request{LBA: 0, Size: 1 << 20, Done: func(_ *Request, _ float64) { order = append(order, "first") }})
	d.Submit(&Request{LBA: 0, Size: 4096, Background: true, Done: func(_ *Request, _ float64) { order = append(order, "bg") }})
	d.Submit(&Request{LBA: 0, Size: 4096, Done: func(_ *Request, _ float64) { order = append(order, "fg") }})
	e.RunAll()
	if len(order) != 3 || order[0] != "first" || order[1] != "fg" || order[2] != "bg" {
		t.Fatalf("order = %v, want [first fg bg]", order)
	}
	if d.BackgroundCompleted() != 1 {
		t.Errorf("BackgroundCompleted = %d, want 1", d.BackgroundCompleted())
	}
}

func TestStandbyAndAutoWake(t *testing.T) {
	e, d, spec := testDisk(t, 1)
	if !d.Standby() {
		t.Fatal("idle disk should accept Standby")
	}
	if d.State() != SpinningDown {
		t.Fatalf("state = %v, want SpinningDown", d.State())
	}
	e.Run(spec.SpinDownTime + 0.001)
	if d.State() != Standby {
		t.Fatalf("state = %v, want Standby", d.State())
	}
	var done []float64
	submit(d, 0, 4096, false, &done)
	if d.State() != SpinningUp {
		t.Fatalf("state after submit = %v, want SpinningUp", d.State())
	}
	e.RunAll()
	if len(done) != 1 {
		t.Fatal("request lost across spin-up")
	}
	// Completion must include the spin-up wait.
	if done[0] < spec.SpinDownTime+spec.SpinUpTime {
		t.Errorf("completion at %v precedes spin-up end", done[0])
	}
	if d.SpinUps() != 1 || d.SpinDowns() != 1 {
		t.Errorf("spinUps=%d spinDowns=%d, want 1,1", d.SpinUps(), d.SpinDowns())
	}
}

func TestSubmitDuringSpinDownWakes(t *testing.T) {
	e, d, spec := testDisk(t, 1)
	d.Standby()
	var done []float64
	// Arrives mid-spin-down.
	e.Schedule(spec.SpinDownTime/2, func() { submit(d, 0, 4096, false, &done) })
	e.RunAll()
	if len(done) != 1 {
		t.Fatal("request lost when submitted during spin-down")
	}
	if done[0] < spec.SpinDownTime+spec.SpinUpTime {
		t.Errorf("completion %v should wait for full spin-down+up", done[0])
	}
}

func TestStandbyRefusedWhenBusy(t *testing.T) {
	e, d, _ := testDisk(t, 1)
	var done []float64
	submit(d, 0, 1<<20, false, &done)
	if d.Standby() {
		t.Fatal("busy disk must refuse Standby")
	}
	e.RunAll()
	if len(done) != 1 {
		t.Fatal("request lost")
	}
}

func TestProactiveSpinUp(t *testing.T) {
	e, d, spec := testDisk(t, 1)
	d.Standby()
	e.Run(spec.SpinDownTime + 1)
	d.SpinUp()
	if d.State() != SpinningUp {
		t.Fatalf("state = %v, want SpinningUp", d.State())
	}
	e.RunAll()
	if d.State() != Idle {
		t.Fatalf("state = %v, want Idle", d.State())
	}
}

func TestSpeedShiftWhileIdle(t *testing.T) {
	e, d, spec := testDisk(t, 5)
	full := spec.FullLevel()
	d.SetTargetLevel(0)
	if d.State() != ShiftingSpeed {
		t.Fatalf("state = %v, want ShiftingSpeed", d.State())
	}
	wantDur, _ := spec.LevelShift(full, 0)
	e.Run(wantDur + 1e-9)
	if d.Level() != 0 || d.State() != Idle {
		t.Fatalf("level=%d state=%v, want 0, Idle", d.Level(), d.State())
	}
	if d.LevelShifts() != 1 {
		t.Errorf("LevelShifts = %d, want 1", d.LevelShifts())
	}
}

func TestSpeedShiftDeferredWhileBusy(t *testing.T) {
	e, d, spec := testDisk(t, 5)
	var done []float64
	submit(d, 0, 1<<20, false, &done) // long transfer
	d.SetTargetLevel(1)
	if d.State() != Busy {
		t.Fatal("shift must not preempt the in-flight request")
	}
	// Queue another request: it must wait out the shift and be served at
	// the new, slower level.
	submit(d, 0, 1<<20, false, &done)
	e.RunAll()
	if len(done) != 2 {
		t.Fatalf("completed %d, want 2", len(done))
	}
	if d.Level() != 1 {
		t.Fatalf("level = %d, want 1", d.Level())
	}
	shiftDur, _ := spec.LevelShift(spec.FullLevel(), 1)
	gap := done[1] - done[0]
	if gap < shiftDur {
		t.Errorf("second completion gap %v should include shift %v", gap, shiftDur)
	}
}

func TestShiftTargetChangedMidShift(t *testing.T) {
	e, d, spec := testDisk(t, 5)
	d.SetTargetLevel(0)
	// Halfway through the long downshift, change our mind to level 3.
	halfway, _ := spec.LevelShift(spec.FullLevel(), 0)
	e.Run(halfway / 2)
	d.SetTargetLevel(3)
	e.RunAll()
	if d.Level() != 3 {
		t.Fatalf("level = %d, want 3 after redirected shift", d.Level())
	}
	if d.LevelShifts() != 2 {
		t.Errorf("LevelShifts = %d, want 2 (original + correction)", d.LevelShifts())
	}
}

func TestServiceSlowerAtLowSpeed(t *testing.T) {
	run := func(level int) float64 {
		e := simevent.New()
		spec := MultiSpeedUltrastar(5, 3000)
		d := New(e, &spec, Config{Seed: 1, InitialLevel: level, ExpectedRotLatency: true})
		var done []float64
		for i := 0; i < 10; i++ {
			d.Submit(&Request{LBA: int64(i) * 1 << 28, Size: 65536, Done: func(_ *Request, at float64) {
				done = append(done, at)
			}})
		}
		e.RunAll()
		return done[len(done)-1]
	}
	slow, fast := run(0), run(4)
	if slow <= fast*1.5 {
		t.Errorf("10 requests at 3k RPM took %v, at 15k %v; want a clear slowdown", slow, fast)
	}
}

func TestEnergyAccountingIdleVsStandby(t *testing.T) {
	// One disk stays idle for 1000s; another spins down immediately.
	run := func(spinDown bool) float64 {
		e := simevent.New()
		spec := MultiSpeedUltrastar(1, 0)
		d := New(e, &spec, Config{Seed: 1})
		if spinDown {
			d.Standby()
		}
		e.Run(1000)
		d.CloseAccounting()
		return d.Energy()
	}
	idle, standby := run(false), run(true)
	spec := MultiSpeedUltrastar(1, 0)
	wantIdle := 1000 * spec.IdlePower[0]
	if math.Abs(idle-wantIdle) > 1e-6 {
		t.Errorf("idle energy %v, want %v", idle, wantIdle)
	}
	wantStandby := spec.SpinDownEnergy + (1000-spec.SpinDownTime)*spec.StandbyPower
	if math.Abs(standby-wantStandby) > 1e-6 {
		t.Errorf("standby energy %v, want %v", standby, wantStandby)
	}
	if standby >= idle {
		t.Errorf("standby %v should save vs idle %v over a long window", standby, idle)
	}
}

func TestEnergyLowerAtLowSpeedIdle(t *testing.T) {
	run := func(level int) float64 {
		e := simevent.New()
		spec := MultiSpeedUltrastar(5, 3000)
		d := New(e, &spec, Config{Seed: 1, InitialLevel: level})
		e.Run(1000)
		d.CloseAccounting()
		return d.Energy()
	}
	if low, high := run(0), run(4); low >= high {
		t.Errorf("idling at 3k (%v J) should beat 15k (%v J)", low, high)
	}
}

func TestEnergyBreakdownSumsToTotal(t *testing.T) {
	e, d, _ := testDisk(t, 5)
	var done []float64
	for i := 0; i < 20; i++ {
		submit(d, int64(i)*1<<25, 8192, i%2 == 0, &done)
	}
	e.Schedule(50, func() { d.SetTargetLevel(1) })
	e.Schedule(300, func() { d.Standby() })
	e.Run(1000)
	d.CloseAccounting()
	sum := 0.0
	for _, v := range d.Account().EnergyByState() {
		sum += v
	}
	if math.Abs(sum-d.Energy()) > 1e-9*(1+sum) {
		t.Errorf("state energies sum to %v, total %v", sum, d.Energy())
	}
	if len(done) != 20 {
		t.Errorf("completed %d, want 20", len(done))
	}
}

func TestIdleForTracksIdlePeriods(t *testing.T) {
	e, d, _ := testDisk(t, 1)
	e.Run(5)
	if got := d.IdleFor(); math.Abs(got-5) > 1e-12 {
		t.Errorf("IdleFor = %v, want 5", got)
	}
	var done []float64
	submit(d, 0, 4096, false, &done)
	if d.IdleFor() != 0 {
		t.Error("busy disk must report IdleFor 0")
	}
	e.RunAll()
	idleStart := done[0]
	e2 := e.Now()
	_ = e2
	e.At(idleStart+7, func() {})
	e.RunAll()
	if got := d.IdleFor(); math.Abs(got-7) > 1e-9 {
		t.Errorf("IdleFor after completion = %v, want 7", got)
	}
}

func TestRequestValidation(t *testing.T) {
	_, d, spec := testDisk(t, 1)
	cases := []Request{
		{LBA: -1, Size: 4096, Done: func(*Request, float64) {}},
		{LBA: 0, Size: 0, Done: func(*Request, float64) {}},
		{LBA: spec.CapacityBytes, Size: 4096, Done: func(*Request, float64) {}},
		{LBA: 0, Size: 4096}, // nil Done
	}
	for i := range cases {
		r := cases[i]
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			d.Submit(&r)
		}()
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (float64, float64) {
		e := simevent.New()
		spec := MultiSpeedUltrastar(5, 3000)
		d := New(e, &spec, Config{Seed: 42})
		var last float64
		for i := 0; i < 100; i++ {
			d.Submit(&Request{LBA: int64(i%7) * 1 << 27, Size: 8192, Done: func(_ *Request, at float64) { last = at }})
		}
		e.RunAll()
		d.CloseAccounting()
		return last, d.Energy()
	}
	l1, e1 := run()
	l2, e2 := run()
	if l1 != l2 || e1 != e2 {
		t.Errorf("replay diverged: (%v,%v) vs (%v,%v)", l1, e1, l2, e2)
	}
}

func TestUtilizationCounters(t *testing.T) {
	e, d, _ := testDisk(t, 1)
	var done []float64
	submit(d, 0, 1<<20, true, &done)
	submit(d, 1<<20, 1<<20, false, &done)
	e.RunAll()
	r, w := d.BytesMoved()
	if r != 1<<20 || w != 1<<20 {
		t.Errorf("bytes moved r=%d w=%d, want 1MiB each", r, w)
	}
	if d.BusyTime() <= 0 {
		t.Error("BusyTime should be positive")
	}
	if d.ServiceMoments().Count() != 2 || d.SizeMoments().Mean() != 1<<20 {
		t.Error("service/size moments not recorded")
	}
	if d.MaxQueueDepth() < 1 {
		t.Errorf("MaxQueueDepth = %d", d.MaxQueueDepth())
	}
}

// A request whose owner reuses it — the array's pooled op records do —
// costs the disk no allocation: submitting, serving and completing it
// schedules a completion bound once per disk, not a closure per request.
func TestSubmitAndCompleteAllocateNothing(t *testing.T) {
	e, d, _ := testDisk(t, 1)
	completions := 0
	var req Request
	done := func(*Request, float64) { completions++ }
	lba := int64(0)
	cycle := func() {
		lba = (lba + 1<<20) % (1 << 30)
		req = Request{LBA: lba, Size: 8192, Write: lba%3 == 0, Done: done}
		d.Submit(&req)
		e.RunAll()
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("%v allocs per submit+complete, want 0", allocs)
	}
	if completions != 202 {
		t.Fatalf("%d completions, want 202", completions)
	}
}
