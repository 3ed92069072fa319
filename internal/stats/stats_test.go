package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Errorf("Count = %d, want 8", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	if math.Abs(w.Var()-4) > 1e-12 {
		t.Errorf("Var = %v, want 4", w.Var())
	}
	if math.Abs(w.Std()-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", w.Std())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", w.Min(), w.Max())
	}
	if math.Abs(w.SecondMoment()-29) > 1e-12 {
		t.Errorf("E[X^2] = %v, want 29", w.SecondMoment())
	}
	if math.Abs(w.Sum()-40) > 1e-12 {
		t.Errorf("Sum = %v, want 40", w.Sum())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Count() != 0 {
		t.Error("empty accumulator must read as zeros")
	}
	// Min/Max of nothing is NaN, not 0: a 0 would masquerade as a real
	// observation (e.g. a "0 ms max response time" from a run that served
	// no requests at all).
	if !math.IsNaN(w.Min()) {
		t.Errorf("empty Min() = %v, want NaN", w.Min())
	}
	if !math.IsNaN(w.Max()) {
		t.Errorf("empty Max() = %v, want NaN", w.Max())
	}
	w.Add(-3)
	if w.Min() != -3 || w.Max() != -3 {
		t.Errorf("after one add, Min/Max = %v/%v, want -3/-3", w.Min(), w.Max())
	}
}

// Property: merging two accumulators equals accumulating the concatenation.
func TestWelfordMergeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		clean := func(xs []float64) []float64 {
			out := xs[:0]
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
					out = append(out, x)
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		var wa, wb, wall Welford
		for _, x := range a {
			wa.Add(x)
			wall.Add(x)
		}
		for _, x := range b {
			wb.Add(x)
			wall.Add(x)
		}
		wa.Merge(&wb)
		if wa.Count() != wall.Count() {
			return false
		}
		if wall.Count() == 0 {
			return true
		}
		tol := 1e-6 * (1 + math.Abs(wall.Mean()))
		if math.Abs(wa.Mean()-wall.Mean()) > tol {
			return false
		}
		return math.Abs(wa.Var()-wall.Var()) <= 1e-4*(1+wall.Var())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReservoirExactWhenUnderCapacity(t *testing.T) {
	r := NewReservoir(100, 1)
	for i := 1; i <= 10; i++ {
		r.Add(float64(i))
	}
	if got := r.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := r.Quantile(1); got != 10 {
		t.Errorf("q1 = %v, want 10", got)
	}
	if got := r.Quantile(0.5); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("median = %v, want 5.5", got)
	}
}

func TestReservoirApproximatesQuantiles(t *testing.T) {
	r := NewReservoir(2000, 7)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		r.Add(rng.Float64()) // U[0,1)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := r.Quantile(q)
		if math.Abs(got-q) > 0.05 {
			t.Errorf("quantile %v = %v, want within 0.05", q, got)
		}
	}
	if r.Seen() != 200000 {
		t.Errorf("Seen = %d, want 200000", r.Seen())
	}
}

func TestReservoirAddAfterQuantile(t *testing.T) {
	// Interleaving reads and writes must not corrupt the sample.
	r := NewReservoir(10, 1)
	vals := []float64{5, 3, 8, 1, 9, 2}
	for i, v := range vals {
		r.Add(v)
		got := r.Quantile(1)
		want := slicesMax(vals[:i+1])
		if got != want {
			t.Fatalf("after %d adds, max = %v, want %v", i+1, got, want)
		}
	}
}

// Regression: Quantile used to sort r.items in place, so a mid-stream
// quantile query changed which index a later Add replaced — the final
// sample depended on when (or whether) anyone looked at a percentile.
// Two reservoirs fed the same stream must end with the same sample, no
// matter how many Quantile calls are interleaved.
func TestReservoirQuantileDoesNotPerturbSampling(t *testing.T) {
	const cap = 16
	quiet := NewReservoir(cap, 7)
	nosy := NewReservoir(cap, 7)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		x := rng.Float64() * 100
		quiet.Add(x)
		nosy.Add(x)
		if i%3 == 0 {
			nosy.Quantile(0.5) // the read that used to corrupt the sample
			nosy.Quantile(0.99)
		}
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if got, want := nosy.Quantile(q), quiet.Quantile(q); got != want {
			t.Errorf("Q(%v): interleaved-read reservoir = %v, read-free = %v", q, got, want)
		}
	}
}

func slicesMax(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Property: with capacity >= stream length, reservoir quantiles are exact
// order statistics.
func TestReservoirExactProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		r := NewReservoir(len(clean), 11)
		for _, x := range clean {
			r.Add(x)
		}
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		return r.Quantile(0) == sorted[0] && r.Quantile(1) == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowTrackerExpiry(t *testing.T) {
	w := NewWindowTracker(10, 10)
	w.Observe(0.5, 100)
	w.Observe(1.5, 200)
	mean, n := w.Mean(2)
	if n != 2 || mean != 150 {
		t.Fatalf("mean=%v n=%d, want 150, 2", mean, n)
	}
	// At t=10.5 the first observation (bucket [0,1)) has expired but the
	// second (bucket [1,2)) is still inside the trailing window.
	mean, n = w.Mean(10.5)
	if n != 1 || mean != 200 {
		t.Fatalf("after expiry mean=%v n=%d, want 200, 1", mean, n)
	}
	// At t=12 the second observation has expired too.
	_, n = w.Mean(12)
	if n != 0 {
		t.Fatalf("count at t=12 = %d, want 0", n)
	}
	// Far future: everything expired.
	_, n = w.Mean(1e6)
	if n != 0 {
		t.Fatalf("far future count = %d, want 0", n)
	}
	// Still usable after a long gap.
	w.Observe(1e6+1, 42)
	mean, n = w.Mean(1e6 + 2)
	if n != 1 || mean != 42 {
		t.Fatalf("post-gap mean=%v n=%d, want 42, 1", mean, n)
	}
}

func TestWindowTrackerRollingMean(t *testing.T) {
	w := NewWindowTracker(5, 5)
	for i := 0; i < 100; i++ {
		w.Observe(float64(i), float64(i))
	}
	// At t=99, window covers observations at t in (94, 99] approximately;
	// with bucket granularity 1s, buckets 95..99 hold values 95..99.
	mean, n := w.Mean(99)
	if n != 5 {
		t.Fatalf("window count = %d, want 5", n)
	}
	if math.Abs(mean-97) > 1e-9 {
		t.Fatalf("rolling mean = %v, want 97", mean)
	}
}

func TestCumulativeTrackerSlack(t *testing.T) {
	var c CumulativeTracker
	c.Observe(1)
	c.Observe(3)
	if c.Mean() != 2 {
		t.Errorf("Mean = %v, want 2", c.Mean())
	}
	if got := c.Slack(2.5); math.Abs(got-1) > 1e-12 {
		t.Errorf("Slack(2.5) = %v, want 1", got)
	}
	if got := c.Slack(1.5); math.Abs(got+1) > 1e-12 {
		t.Errorf("Slack(1.5) = %v, want -1", got)
	}
}

func TestStateAccountEnergy(t *testing.T) {
	a := NewStateAccount(0, "idle", 10)
	a.Transition(5, "active", 13) // 5s idle at 10W = 50J
	a.Transition(7, "idle", 10)   // 2s active at 13W = 26J
	a.AddEnergy("spinup", 135)
	a.Close(10) // 3s idle at 10W = 30J
	e := a.EnergyByState()
	if math.Abs(e["idle"]-80) > 1e-9 {
		t.Errorf("idle energy = %v, want 80", e["idle"])
	}
	if math.Abs(e["active"]-26) > 1e-9 {
		t.Errorf("active energy = %v, want 26", e["active"])
	}
	if math.Abs(e["spinup"]-135) > 1e-9 {
		t.Errorf("spinup energy = %v, want 135", e["spinup"])
	}
	if math.Abs(a.TotalEnergy()-241) > 1e-9 {
		t.Errorf("total = %v, want 241", a.TotalEnergy())
	}
	d := a.DurationByState()
	if math.Abs(d["idle"]-8) > 1e-9 || math.Abs(d["active"]-2) > 1e-9 {
		t.Errorf("durations = %v, want idle 8, active 2", d)
	}
	if a.Entries("active") != 1 || a.Entries("idle") != 2 {
		t.Errorf("entries idle=%d active=%d, want 2,1", a.Entries("idle"), a.Entries("active"))
	}
}

func TestStateAccountSetPower(t *testing.T) {
	a := NewStateAccount(0, "spinning", 10)
	a.SetPower(4, 13) // 4s at 10W
	a.Close(6)        // 2s at 13W
	if got := a.TotalEnergy(); math.Abs(got-66) > 1e-9 {
		t.Errorf("total = %v, want 66", got)
	}
	if a.State() != "spinning" {
		t.Errorf("state changed by SetPower: %q", a.State())
	}
}

func TestStateAccountTimeBackwardsPanics(t *testing.T) {
	a := NewStateAccount(5, "x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("going backwards in time must panic")
		}
	}()
	a.Transition(4, "y", 1)
}

// Property: total energy equals the sum over states regardless of the
// transition pattern.
func TestStateAccountConservationProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		a := NewStateAccount(0, "s0", 1)
		now := 0.0
		for i, s := range steps {
			now += float64(s%17) * 0.25
			a.Transition(now, []string{"s0", "s1", "s2"}[i%3], float64(s%5))
		}
		a.Close(now + 1)
		sum := 0.0
		for _, e := range a.EnergyByState() {
			sum += e
		}
		return math.Abs(sum-a.TotalEnergy()) < 1e-9*(1+sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordResetAndMergeEdges(t *testing.T) {
	var w Welford
	w.Add(3)
	w.Add(5)
	w.Reset()
	if w.Count() != 0 || w.Mean() != 0 || w.Sum() != 0 {
		t.Fatal("Reset left state behind")
	}
	// Merge into empty adopts the other verbatim.
	var a, b Welford
	b.Add(1)
	b.Add(3)
	a.Merge(&b)
	if a.Count() != 2 || a.Mean() != 2 {
		t.Errorf("merge-into-empty: count=%d mean=%v", a.Count(), a.Mean())
	}
	// Merging an empty is a no-op.
	var empty Welford
	a.Merge(&empty)
	if a.Count() != 2 {
		t.Error("merging empty changed the accumulator")
	}
	// Min/max propagate through merges.
	var c Welford
	c.Add(-7)
	a.Merge(&c)
	if a.Min() != -7 || a.Max() != 3 {
		t.Errorf("min/max = %v/%v, want -7/3", a.Min(), a.Max())
	}
}

func TestReservoirResetAndValidation(t *testing.T) {
	r := NewReservoir(4, 1)
	for i := 0; i < 10; i++ {
		r.Add(float64(i))
	}
	r.Reset()
	if r.Seen() != 0 || r.Quantile(0.5) != 0 {
		t.Fatal("Reset left samples behind")
	}
	r.Add(42)
	if got := r.Quantile(1); got != 42 {
		t.Errorf("post-reset quantile = %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("capacity 0 must panic")
			}
		}()
		NewReservoir(0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("quantile outside [0,1] must panic")
			}
		}()
		r.Quantile(1.5)
	}()
}

func TestWindowTrackerValidation(t *testing.T) {
	for _, bad := range [][2]float64{{0, 5}, {5, 0}} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("window=%v buckets=%v must panic", bad[0], bad[1])
				}
			}()
			NewWindowTracker(bad[0], int(bad[1]))
		}()
	}
	w := NewWindowTracker(10, 5)
	if w.Window() != 10 {
		t.Errorf("Window() = %v", w.Window())
	}
}

func TestStateAccountLumpValidation(t *testing.T) {
	a := NewStateAccount(0, "s", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative lump energy must panic")
		}
	}()
	a.AddEnergy("s", -1)
}

// The reported key sets follow what happened to each state: a state
// appears in DurationByState once time was integrated in it, and in
// EnergyByState once time was integrated in it or a lump was charged to
// it. The state an account starts in appears only after its first
// accrual.
func TestStateAccountKeySets(t *testing.T) {
	a := NewStateAccount(0, "idle", 10)
	if n := len(a.EnergyByState()) + len(a.DurationByState()); n != 0 {
		t.Fatalf("fresh account reports %d keys, want 0", n)
	}
	a.AddEnergy("shift", 4)
	a.Transition(0, "active", 13) // zero-length idle interval still counts
	a.Transition(2, "idle", 10)
	if got, want := a.EnergyByState(), map[string]float64{"idle": 0, "active": 26, "shift": 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("EnergyByState = %v, want %v", got, want)
	}
	if got, want := a.DurationByState(), map[string]float64{"idle": 0, "active": 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("DurationByState = %v, want %v", got, want)
	}
	if a.Entries("shift") != 0 || a.Entries("nowhere") != 0 || a.Entries("idle") != 2 {
		t.Errorf("entries shift=%d nowhere=%d idle=%d, want 0,0,2",
			a.Entries("shift"), a.Entries("nowhere"), a.Entries("idle"))
	}
	if a.State() != "idle" {
		t.Errorf("State = %q, want idle", a.State())
	}
}

// Once every state has been seen, a transition allocates nothing.
func TestStateAccountTransitionAllocatesNothing(t *testing.T) {
	a := NewStateAccount(0, "idle", 10)
	states := []string{"active", "shift", "spinup", "standby", "spindown", "idle"}
	now := 0.0
	step := func() {
		for _, s := range states {
			now++
			a.Transition(now, s, 7)
		}
		a.AddEnergy("shift", 1)
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("%v allocs per transition cycle, want 0", allocs)
	}
}
