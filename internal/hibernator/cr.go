// Package hibernator implements the paper's contribution: the Hibernator
// disk-array energy manager. It combines
//
//   - CR, a coarse-grained epoch-based speed-setting algorithm that picks
//     how many RAID groups spin at each speed by minimizing predicted
//     energy subject to a response-time constraint (cr.go);
//   - a temperature-sorted multi-tier data layout with budgeted background
//     migration (layout.go);
//   - a performance guarantee that boosts every disk to full speed when
//     the observed response time endangers the goal, resuming power
//     saving only once the long-run average recovers (boost.go);
//
// glued together by Controller (controller.go), which plugs into the
// simulation harness like any baseline policy.
package hibernator

import (
	"fmt"
	"math"

	"hibernator/internal/diskmodel"
	"hibernator/internal/mg1"
)

// CRInput is everything the epoch optimizer needs.
type CRInput struct {
	Spec *diskmodel.Spec

	// GroupLoads[g] is the predicted arrival rate (logical accesses/s)
	// onto group-rank g under the temperature-sorted layout: rank 0 holds
	// the hottest data and will be assigned the fastest level.
	GroupLoads []float64
	// DisksPerGroup scales per-group load to per-disk load.
	DisksPerGroup int
	// CurrentLevels[g] is each group's present speed (for transition
	// costs).
	CurrentLevels []int

	// PhysFactor converts logical accesses to physical disk I/Os
	// (parity, splits); AvgSize is the observed mean physical request
	// size in bytes.
	PhysFactor float64
	AvgSize    int64

	// SeekOverhead, when positive, is the measured mean positioning time
	// (controller overhead + seek) of the workload, and SeqFraction the
	// measured fraction of strictly sequential requests. Together they
	// calibrate the per-level service predictions; zero falls back to the
	// analytic random-access model (1/3-stroke seeks), which is far too
	// pessimistic for sequential workloads.
	SeekOverhead float64
	SeqFraction  float64

	// Goal is the mean response-time limit in seconds (0 = none: always
	// feasible). Margin derates it for planning headroom.
	Goal   float64
	Margin float64

	// Epoch is the planning horizon in seconds.
	Epoch float64

	// MaxRho rejects assignments driving any disk beyond this utilization
	// (default 0.9 via Solve).
	MaxRho float64
}

// CRPlan is the optimizer's decision.
type CRPlan struct {
	// Levels[g] is the chosen speed for group-rank g (nonincreasing).
	Levels []int
	// PredictedResp and PredictedEnergy are the model's estimates for the
	// coming epoch (energy includes speed-transition costs).
	PredictedResp   float64
	PredictedEnergy float64
	// Feasible reports whether any assignment met the constraint; when
	// false, Levels is all-full-speed.
	Feasible bool
	// Evaluated counts compositions examined (instrumentation).
	Evaluated int
}

// Solve returns the minimum-energy feasible plan over every composition
// of the group count into the speed levels (fast levels assigned to hot
// group-ranks first), each evaluated with the M/G/1 model.
//
// With G groups and m levels there are C(G+m-1, m-1) compositions, and
// the plan is exactly the one a plain enumeration of all of them returns
// (see DESIGN.md, "Exact CR search"), down to the float bits of its
// predictions. The search gets there without visiting most of them:
//
//   - each rank's model terms at each level are computed once, G*m model
//     evaluations instead of G per composition;
//   - ranks are walked depth-first with nonincreasing levels, so
//     compositions sharing a rank prefix share its partial sums;
//   - every term is nonnegative, so a prefix whose partial energy already
//     exceeds the best plan's, or whose partial response already breaks
//     the goal, is cut with everything below it.
//
// Evaluated still reports the composition count C(G+m-1, m-1): the
// compositions the search considers, cut or not.
func Solve(in CRInput) CRPlan {
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

	s := crSearch{
		m:          m,
		terms:      make([]crTerm, g*m),
		assign:     make([]int, g),
		counts:     make([]int, m),
		bestCounts: make([]int, m),
		bestEnergy: math.Inf(1),
		best:       CRPlan{Levels: allFull(g, full)},
		totalLoad:  totalLoad,
		limit:      math.Inf(1),
	}
	if in.Goal > 0 && totalLoad > 0 {
		s.limit = in.Goal * in.Margin
	}
	for i := 0; i < g; i++ {
		lambda := perDisk[i]
		for l := 0; l < m; l++ {
			t := &s.terms[i*m+l]
			rho := mg1.Utilization(lambda, es[l])
			if rho >= in.MaxRho {
				continue // infeasible: t.ok stays false
			}
			t.ok = true
			r := mg1.ResponseTime(lambda, es[l], es2[l])
			t.r1 = in.GroupLoads[i] * r
			// A speed shift stalls the group's queue for its duration.
			// Requests arriving during a stall of length T wait T/2 on
			// average, so the epoch-mean penalty is T^2/(2*epoch): the
			// quantitative reason coarse epochs amortize transitions.
			// (The controller defers down-shifts until migration has
			// drained a group, so the steady-state occupants' load is the
			// right weight.)
			shiftT, shiftJ := spec.LevelShift(in.CurrentLevels[i], l)
			t.r2 = in.GroupLoads[i] * shiftT * shiftT / (2 * in.Epoch)
			power := spec.IdlePower[l]*(1-rho) + spec.ActivePower[l]*rho
			t.e1 = power * in.Epoch * float64(in.DisksPerGroup)
			t.e2 = shiftJ * float64(in.DisksPerGroup)
		}
	}
	s.walk(0, full, 0, 0)

	best := s.best
	best.Evaluated = compositions(g, m)
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

// crTerm is one rank's contribution at one level: the two response
// addends and the two energy addends a composition's sums take from it,
// in the order they are added. ok is false when the level drives the
// rank's disks to MaxRho or beyond.
type crTerm struct {
	r1, r2, e1, e2 float64
	ok             bool
}

// crSearch is Solve's depth-first walk over rank prefixes.
type crSearch struct {
	m      int
	terms  []crTerm // terms[i*m+l]: rank i at level l
	assign []int    // the current prefix's level per rank
	counts []int    // the current prefix's ranks per level

	best       CRPlan
	bestEnergy float64
	bestCounts []int

	totalLoad float64
	limit     float64 // Goal*Margin; +Inf without a goal or load to weigh it
}

// walk extends the prefix of ranks [0,i), whose sums are resp and energy,
// with each level up to hi for rank i, slowest first. The sums grow in
// exactly the order a whole composition's would, so a prefix's sums are
// bit for bit those of every composition it starts.
func (s *crSearch) walk(i, hi int, resp, energy float64) {
	last := i == len(s.assign)-1
	row := s.terms[i*s.m : i*s.m+hi+1]
	for l := range row {
		t := &row[l]
		if !t.ok {
			continue
		}
		r := resp + t.r1
		r += t.r2
		e := energy + t.e1
		e += t.e2
		// Terms are nonnegative, so neither sum can fall below a
		// prefix's: a strictly costlier or too-slow prefix stays so. A
		// prefix equal to the best may still win the tie-break.
		if e > s.bestEnergy || r/s.totalLoad > s.limit {
			continue
		}
		s.assign[i] = l
		s.counts[l]++
		if !last {
			s.walk(i+1, l, r, e)
		} else if e < s.bestEnergy || (s.best.Feasible && e == s.bestEnergy && s.countsBeforeBest()) {
			s.bestEnergy = e
			copy(s.bestCounts, s.counts)
			s.best.Levels = append(s.best.Levels[:0], s.assign...)
			s.best.PredictedResp = 0
			if s.totalLoad > 0 {
				s.best.PredictedResp = r / s.totalLoad
			}
			s.best.PredictedEnergy = e
			s.best.Feasible = true
		}
		s.counts[l]--
	}
}

// countsBeforeBest reports whether the current composition comes before
// the best one in enumeration order (counts ascending lexicographically
// from the slowest level), the order whose first minimum Solve returns.
func (s *crSearch) countsBeforeBest() bool {
	for l, c := range s.counts {
		if c != s.bestCounts[l] {
			return c < s.bestCounts[l]
		}
	}
	return false
}

// compositions returns C(g+m-1, m-1), the number of ways to spread g
// groups over m levels.
func compositions(g, m int) int {
	n := 1
	for k := 1; k < m; k++ {
		n = n * (g + k) / k
	}
	return n
}

func allFull(g, full int) []int {
	out := make([]int, g)
	for i := range out {
		out[i] = full
	}
	return out
}
