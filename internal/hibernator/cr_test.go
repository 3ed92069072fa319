package hibernator

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hibernator/internal/diskmodel"
	"hibernator/internal/mg1"
)

func crInput(loads []float64, goal float64) CRInput {
	spec := diskmodel.MultiSpeedUltrastar(5, 3000)
	cur := make([]int, len(loads))
	for i := range cur {
		cur[i] = spec.FullLevel()
	}
	return CRInput{
		Spec:          &spec,
		GroupLoads:    loads,
		DisksPerGroup: 1,
		CurrentLevels: cur,
		PhysFactor:    1,
		AvgSize:       8192,
		Goal:          goal,
		Margin:        0.9,
		Epoch:         3600,
		MaxRho:        0.9,
	}
}

func TestIdleArrayGoesSlowest(t *testing.T) {
	in := crInput([]float64{0, 0, 0, 0}, 0.010)
	plan := Solve(in)
	if !plan.Feasible {
		t.Fatal("zero load must be feasible")
	}
	for i, l := range plan.Levels {
		if l != 0 {
			t.Errorf("group %d level %d, want 0 (slowest)", i, l)
		}
	}
}

func TestHeavyLoadStaysFast(t *testing.T) {
	// Per-disk service at full speed ~4 ms: 200 req/s saturates. Load at
	// 150/s per group forces full speed everywhere with a tight goal.
	in := crInput([]float64{150, 150, 150, 150}, 0.010)
	plan := Solve(in)
	full := in.Spec.FullLevel()
	for i, l := range plan.Levels {
		if l != full {
			t.Errorf("group %d level %d under heavy load, want %d", i, l, full)
		}
	}
}

func TestSkewedLoadCreatesTiers(t *testing.T) {
	// Hot rank 0, lukewarm rank 1, cold ranks 2-3: CR should build a
	// multi-speed configuration with a moderately loose goal.
	in := crInput([]float64{120, 20, 0.5, 0.01}, 0.030)
	plan := Solve(in)
	if !plan.Feasible {
		t.Fatal("plan should be feasible")
	}
	if plan.Levels[0] <= plan.Levels[3] {
		t.Errorf("levels %v: hot rank should be faster than cold", plan.Levels)
	}
	// Nonincreasing by construction.
	for i := 1; i < len(plan.Levels); i++ {
		if plan.Levels[i] > plan.Levels[i-1] {
			t.Fatalf("levels %v not nonincreasing", plan.Levels)
		}
	}
	// Energy prediction should beat all-full.
	full := Solve(crInput([]float64{120, 20, 0.5, 0.01}, 0)) // no goal: min energy
	if plan.PredictedEnergy > 1.001*energyOfAllFull(in) {
		t.Errorf("plan energy %v should not exceed all-full %v", plan.PredictedEnergy, energyOfAllFull(in))
	}
	_ = full
}

func energyOfAllFull(in CRInput) float64 {
	spec := in.Spec
	fullLevel := spec.FullLevel()
	es, _ := spec.ServiceMoments(fullLevel, in.AvgSize, diskmodel.ExpectedSeekFrac)
	sum := 0.0
	for _, load := range in.GroupLoads {
		rho := load * es
		sum += (spec.IdlePower[fullLevel]*(1-rho) + spec.ActivePower[fullLevel]*rho) * in.Epoch
	}
	return sum
}

func TestTightGoalFallsBackToFull(t *testing.T) {
	// Goal below even the full-speed response time: infeasible, expect
	// all-full fallback flagged infeasible.
	in := crInput([]float64{50, 50, 50, 50}, 0.0001)
	plan := Solve(in)
	if plan.Feasible {
		t.Fatal("impossibly tight goal must be infeasible")
	}
	full := in.Spec.FullLevel()
	for _, l := range plan.Levels {
		if l != full {
			t.Errorf("fallback level %d, want full", l)
		}
	}
	if plan.PredictedEnergy <= 0 {
		t.Error("fallback must still predict energy")
	}
}

func TestNoGoalMinimizesEnergy(t *testing.T) {
	in := crInput([]float64{10, 5, 1, 0}, 0)
	plan := Solve(in)
	if !plan.Feasible {
		t.Fatal("no goal: always feasible (subject to rho)")
	}
	// With no goal, everything that fits under MaxRho should sink to the
	// lowest level.
	for i, l := range plan.Levels {
		es, _ := in.Spec.ServiceMoments(0, in.AvgSize, diskmodel.ExpectedSeekFrac)
		if in.GroupLoads[i]*es < 0.9 && l != 0 {
			t.Errorf("group %d at level %d despite fitting at level 0", i, l)
		}
	}
}

func TestRhoCapRespected(t *testing.T) {
	// Load that fits at full speed but would saturate slow levels: the
	// plan must never assign a level where rho >= MaxRho.
	in := crInput([]float64{100, 80, 60, 40}, 0.050)
	plan := Solve(in)
	for i, l := range plan.Levels {
		es, _ := in.Spec.ServiceMoments(l, in.AvgSize, diskmodel.ExpectedSeekFrac)
		rho := in.GroupLoads[i] * in.PhysFactor * es
		if rho >= in.MaxRho {
			t.Errorf("group %d: rho %v at level %d breaches cap", i, rho, l)
		}
	}
}

func TestTransitionCostDiscouragesChurn(t *testing.T) {
	// Current levels already at a good configuration; a tiny load change
	// should keep the same levels rather than paying shift energy.
	in := crInput([]float64{0, 0, 0, 0}, 0.050)
	in.CurrentLevels = []int{0, 0, 0, 0}
	plan := Solve(in)
	for i, l := range plan.Levels {
		if l != 0 {
			t.Errorf("group %d moved to %d for no reason", i, l)
		}
	}
}

func TestSingleLevelSpecDegenerates(t *testing.T) {
	spec := diskmodel.MultiSpeedUltrastar(1, 0)
	in := CRInput{
		Spec:          &spec,
		GroupLoads:    []float64{10, 10},
		DisksPerGroup: 2,
		CurrentLevels: []int{0, 0},
		Epoch:         3600,
	}
	plan := Solve(in)
	if plan.Evaluated != 1 {
		t.Errorf("single level should evaluate exactly one composition, got %d", plan.Evaluated)
	}
	if plan.Levels[0] != 0 || plan.Levels[1] != 0 {
		t.Errorf("levels = %v", plan.Levels)
	}
}

func TestSolveValidation(t *testing.T) {
	spec := diskmodel.MultiSpeedUltrastar(2, 6000)
	cases := []CRInput{
		{Spec: &spec, GroupLoads: nil, CurrentLevels: nil, DisksPerGroup: 1, Epoch: 1},
		{Spec: &spec, GroupLoads: []float64{1}, CurrentLevels: []int{0, 0}, DisksPerGroup: 1, Epoch: 1},
		{Spec: &spec, GroupLoads: []float64{1}, CurrentLevels: []int{0}, DisksPerGroup: 0, Epoch: 1},
		{Spec: &spec, GroupLoads: []float64{1}, CurrentLevels: []int{0}, DisksPerGroup: 1, Epoch: 0},
	}
	for i := range cases {
		in := cases[i]
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d must panic", i)
				}
			}()
			Solve(in)
		}()
	}
}

// Property: the chosen plan is never worse (in predicted energy) than the
// all-full-speed assignment when both are feasible, and levels are always
// nonincreasing across ranks.
func TestPlanDominatesFullProperty(t *testing.T) {
	f := func(raw [4]uint16, goalRaw uint8) bool {
		loads := make([]float64, 4)
		for i, r := range raw {
			loads[i] = float64(r%2000) / 10 // 0..200 req/s
		}
		// Sort descending to mimic the sorted layout.
		for i := 0; i < len(loads); i++ {
			for j := i + 1; j < len(loads); j++ {
				if loads[j] > loads[i] {
					loads[i], loads[j] = loads[j], loads[i]
				}
			}
		}
		goal := 0.005 + float64(goalRaw)/255.0*0.1
		in := crInput(loads, goal)
		plan := Solve(in)
		for i := 1; i < len(plan.Levels); i++ {
			if plan.Levels[i] > plan.Levels[i-1] {
				return false
			}
		}
		if !plan.Feasible {
			return true
		}
		return plan.PredictedEnergy <= energyOfAllFull(in)*1.0001+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: loosening the goal never increases the minimum energy.
func TestMonotoneInGoalProperty(t *testing.T) {
	loads := []float64{90, 40, 10, 1}
	prev := math.Inf(1)
	for _, goal := range []float64{0.006, 0.010, 0.020, 0.040, 0.080, 0.2} {
		plan := Solve(crInput(loads, goal))
		if !plan.Feasible {
			continue
		}
		if plan.PredictedEnergy > prev*1.0001 {
			t.Errorf("goal %v: energy %v exceeds tighter goal's %v", goal, plan.PredictedEnergy, prev)
		}
		prev = plan.PredictedEnergy
	}
	if math.IsInf(prev, 1) {
		t.Fatal("no goal was feasible; test broken")
	}
}

// solveRef is the plain enumeration Solve replaced, kept verbatim as the
// oracle Solve must match bit for bit: it evaluates every composition
// from scratch and keeps the first minimum-energy feasible one.
func solveRef(in CRInput) CRPlan {
	g := len(in.GroupLoads)
	if g == 0 || len(in.CurrentLevels) != g {
		panic(fmt.Sprintf("hibernator: CR needs matching group arrays (loads %d, levels %d)",
			g, len(in.CurrentLevels)))
	}
	if in.DisksPerGroup <= 0 || in.Epoch <= 0 {
		panic("hibernator: CR needs positive disks-per-group and epoch")
	}
	if in.PhysFactor <= 0 {
		in.PhysFactor = 1
	}
	if in.AvgSize <= 0 {
		in.AvgSize = 8192
	}
	if in.Margin <= 0 || in.Margin > 1 {
		in.Margin = 0.9
	}
	if in.MaxRho <= 0 || in.MaxRho >= 1 {
		in.MaxRho = 0.9
	}
	spec := in.Spec
	m := spec.Levels()
	full := spec.FullLevel()

	// Pre-compute per-level service moments and per-disk loads by rank.
	es := make([]float64, m)
	es2 := make([]float64, m)
	for l := 0; l < m; l++ {
		if in.SeekOverhead > 0 {
			rot := spec.RotationPeriod(l)
			randFrac := 1 - in.SeqFraction
			es[l] = in.SeekOverhead + randFrac*rot/2 + spec.TransferTime(l, in.AvgSize)
			es2[l] = randFrac*rot*rot/12 + es[l]*es[l]
		} else {
			es[l], es2[l] = spec.ServiceMoments(l, in.AvgSize, diskmodel.ExpectedSeekFrac)
		}
	}
	perDisk := make([]float64, g)
	totalLoad := 0.0
	for i, load := range in.GroupLoads {
		perDisk[i] = load * in.PhysFactor / float64(in.DisksPerGroup)
		totalLoad += load
	}

	best := CRPlan{Levels: allFull(g, full), Feasible: false}
	bestEnergy := math.Inf(1)

	evalCount := 0
	// levels[g] built by walking compositions: counts[l] groups at level
	// l, assigned fastest-first.
	counts := make([]int, m)
	var walk func(level, remaining int)
	assign := make([]int, g)
	var evaluate func()
	evaluate = func() {
		evalCount++
		// Expand counts into per-rank levels, fastest level first.
		idx := 0
		for l := full; l >= 0; l-- {
			for c := 0; c < counts[l]; c++ {
				assign[idx] = l
				idx++
			}
		}
		var energy, respWeighted float64
		for i := 0; i < g; i++ {
			l := assign[i]
			lambda := perDisk[i]
			rho := mg1.Utilization(lambda, es[l])
			if rho >= in.MaxRho {
				return // infeasible
			}
			r := mg1.ResponseTime(lambda, es[l], es2[l])
			respWeighted += in.GroupLoads[i] * r
			shiftT, shiftJ := spec.LevelShift(in.CurrentLevels[i], l)
			respWeighted += in.GroupLoads[i] * shiftT * shiftT / (2 * in.Epoch)
			power := spec.IdlePower[l]*(1-rho) + spec.ActivePower[l]*rho
			energy += power * in.Epoch * float64(in.DisksPerGroup)
			energy += shiftJ * float64(in.DisksPerGroup)
		}
		var resp float64
		if totalLoad > 0 {
			resp = respWeighted / totalLoad
		}
		if in.Goal > 0 && resp > in.Goal*in.Margin {
			return
		}
		if energy < bestEnergy {
			bestEnergy = energy
			best.Levels = append(best.Levels[:0], assign...)
			best.PredictedResp = resp
			best.PredictedEnergy = energy
			best.Feasible = true
		}
	}
	walk = func(level, remaining int) {
		if level == m-1 {
			counts[level] = remaining
			evaluate()
			counts[level] = 0
			return
		}
		for c := 0; c <= remaining; c++ {
			counts[level] = c
			walk(level+1, remaining-c)
		}
		counts[level] = 0
	}
	walk(0, g)
	best.Evaluated = evalCount
	if !best.Feasible {
		// Fall back to all-full-speed and report its predictions.
		var energy, respWeighted float64
		for i := 0; i < g; i++ {
			lambda := perDisk[i]
			rho := math.Min(mg1.Utilization(lambda, es[full]), 1)
			respWeighted += in.GroupLoads[i] * mg1.ResponseTime(lambda, es[full], es2[full])
			power := spec.IdlePower[full]*(1-rho) + spec.ActivePower[full]*rho
			energy += power * in.Epoch * float64(in.DisksPerGroup)
		}
		if totalLoad > 0 {
			best.PredictedResp = respWeighted / totalLoad
		}
		best.PredictedEnergy = energy
	}
	return best
}

// samePlan reports how got differs from want, bit for bit, or "".
func samePlan(got, want CRPlan) string {
	switch {
	case !slices.Equal(got.Levels, want.Levels):
		return fmt.Sprintf("levels %v, want %v", got.Levels, want.Levels)
	case got.Feasible != want.Feasible:
		return fmt.Sprintf("feasible %v, want %v", got.Feasible, want.Feasible)
	case got.Evaluated != want.Evaluated:
		return fmt.Sprintf("evaluated %d, want %d", got.Evaluated, want.Evaluated)
	case math.Float64bits(got.PredictedResp) != math.Float64bits(want.PredictedResp):
		return fmt.Sprintf("resp %v (%#x), want %v (%#x)", got.PredictedResp,
			math.Float64bits(got.PredictedResp), want.PredictedResp, math.Float64bits(want.PredictedResp))
	case math.Float64bits(got.PredictedEnergy) != math.Float64bits(want.PredictedEnergy):
		return fmt.Sprintf("energy %v (%#x), want %v (%#x)", got.PredictedEnergy,
			math.Float64bits(got.PredictedEnergy), want.PredictedEnergy, math.Float64bits(want.PredictedEnergy))
	}
	return ""
}

// randomCRInput draws one planner input: loads (sometimes all zero or
// duplicated), current levels, goal or none, analytic or calibrated
// service, and a MaxRho that is sometimes small enough to rule ranks out.
func randomCRInput(rng *rand.Rand, spec *diskmodel.Spec, groups int) CRInput {
	in := CRInput{
		Spec:          spec,
		GroupLoads:    make([]float64, groups),
		DisksPerGroup: 1 + rng.Intn(4),
		CurrentLevels: make([]int, groups),
		PhysFactor:    0.5 + 2*rng.Float64(),
		AvgSize:       int64(4096 + rng.Intn(256<<10)),
		Margin:        0.5 + 0.5*rng.Float64(),
		Epoch:         []float64{60, 600, 3600, 10800}[rng.Intn(4)],
		MaxRho:        0.9,
	}
	peak := []float64{0, 1, 20, 100, 300}[rng.Intn(5)]
	for i := range in.GroupLoads {
		switch {
		case i > 0 && rng.Intn(4) == 0:
			in.GroupLoads[i] = in.GroupLoads[i-1] // a duplicated load
		default:
			in.GroupLoads[i] = peak * rng.Float64()
		}
		in.CurrentLevels[i] = rng.Intn(spec.Levels())
	}
	if rng.Intn(3) == 0 {
		in.MaxRho = 0.02 + 0.5*rng.Float64()
	}
	if rng.Intn(2) == 0 {
		in.SeekOverhead = 0.0005 + 0.008*rng.Float64()
		in.SeqFraction = rng.Float64()
	}
	if rng.Intn(4) != 0 {
		in.Goal = 0.002 + 0.1*rng.Float64()
	}
	return in
}

// tiedSpec is a three-level disk whose two slow levels are the same
// speed at the same power, so compositions that trade groups between
// them tie exactly in energy: only the tie-break tells them apart.
func tiedSpec() *diskmodel.Spec {
	spec := diskmodel.MultiSpeedUltrastar(3, 6000)
	for _, s := range [][]float64{spec.IdlePower, spec.ActivePower, spec.TransferRate} {
		s[1] = s[0]
	}
	spec.RPM[1] = spec.RPM[0]
	return &spec
}

// Property: Solve returns exactly the plan of the plain enumeration.
func TestSolveMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	specs := map[int]*diskmodel.Spec{}
	for m := 2; m <= 5; m++ {
		spec := diskmodel.MultiSpeedUltrastar(m, 3000)
		specs[m] = &spec
	}
	check := func(name string, in CRInput) {
		t.Helper()
		if diff := samePlan(Solve(in), solveRef(in)); diff != "" {
			t.Fatalf("%s: %s\ninput %+v", name, diff, in)
		}
	}
	for n := 0; n < 3000; n++ {
		m, groups := 2+rng.Intn(4), 1+rng.Intn(10)
		check(fmt.Sprintf("random %d (%dx%d)", n, groups, m), randomCRInput(rng, specs[m], groups))
	}
	tied := tiedSpec()
	ties := 0
	for n := 0; n < 500; n++ {
		in := randomCRInput(rng, tied, 1+rng.Intn(10))
		check(fmt.Sprintf("tied %d", n), in)
		if plan := Solve(in); plan.Feasible {
			for _, l := range plan.Levels {
				if l == 1 {
					ties++ // level 0 ties with level 1 here; the tie-break chose 1
					break
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no tied plan among the tied-spec inputs: the tie-break went untested")
	}
	for _, shape := range [][2]int{{16, 5}, {32, 5}, {64, 4}, {64, 3}} {
		for n := 0; n < 2; n++ {
			check(fmt.Sprintf("wide %dx%d #%d", shape[0], shape[1], n),
				randomCRInput(rng, specs[shape[1]], shape[0]))
		}
	}
}

// widePlanInput is a Zipf-skewed plan at the given width under a 20 ms
// goal, every group currently at full speed.
func widePlanInput(groups int) CRInput {
	loads := make([]float64, groups)
	for i := range loads {
		loads[i] = 100 / float64(i+1)
	}
	return crInput(loads, 0.020)
}

// BenchmarkSolve measures one epoch's plan at the paper's scale (16
// groups x 5 levels: C(20,4) = 4845 compositions).
func BenchmarkSolve(b *testing.B) {
	in := widePlanInput(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(in)
	}
}

// BenchmarkSolveWide measures one plan at the width of a 256-disk array
// of 4-disk groups (64 groups x 5 levels: C(68,4) = 814385 compositions).
func BenchmarkSolveWide(b *testing.B) {
	in := widePlanInput(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(in)
	}
}
