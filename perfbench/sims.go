package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"hibernator/internal/diskmodel"
	"hibernator/internal/dist"
	"hibernator/internal/fleet"
	"hibernator/internal/hibernator"
	"hibernator/internal/policy"
	"hibernator/internal/raid"
	"hibernator/internal/served"
	"hibernator/internal/sim"
	"hibernator/internal/trace"
)

// workload pairs a workload's reason for existing with its constructor.
type workload struct {
	why   string
	build func(o options) (bench, error)
}

var workloads = map[string]workload{
	"oltp-bakeoff": {
		why:   "six schemes on the 4x4 RAID-5 OLTP bake-off: request path, cache and allocation dominate",
		build: func(o options) (bench, error) { return newOLTPBakeoff(o), nil },
	},
	"cello-wide": {
		why:   "256-disk Cello under TPM and Hibernator: power-state transitions and the CR planner dominate",
		build: func(o options) (bench, error) { return newCelloWide(o), nil },
	},
	"fleet-faults": {
		why:   "heterogeneous fleet with vintage faults: retry/timeout/fallback, routing and the runner pool",
		build: func(o options) (bench, error) { return newFleetFaults(o), nil },
	},
	"jobs-durable": {
		why:   "closed-loop clients on the durable job service: WAL fsyncs, HTTP, job table and streaming",
		build: func(o options) (bench, error) { return newJobsDurable(o) },
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// schemeRun is one scheme's materialized inputs for one sim.Run.
type schemeRun struct {
	name string
	cfg  sim.Config
	src  trace.Source
	ctrl sim.Controller
}

// simBench runs a list of schemes one after another on one array
// geometry and workload generator: oltp-bakeoff and cello-wide.
type simBench struct {
	schemes []string
	dur     float64
	epoch   float64 // PDC and Hibernator planning period
	// goalFactor > 0 fixes every later scheme's response-time goal at
	// goalFactor x the first scheme's mean response (the bake-off rule).
	goalFactor float64
	config     func(scheme string) sim.Config
	source     func(vol int64) (trace.Source, error)
	next       []schemeRun
}

// prepare builds configs, the logical volume size, sources and
// controllers for one pass: the set-up the benchmark times.
func (b *simBench) prepare() ([]schemeRun, error) {
	// Every scheme sees the same logical volume: the multi-speed layout's.
	vol, err := sim.LogicalBytes(b.config("Hibernator"))
	if err != nil {
		return nil, err
	}
	runs := make([]schemeRun, 0, len(b.schemes))
	for _, name := range b.schemes {
		cfg := b.config(name)
		src, err := b.source(vol)
		if err != nil {
			return nil, err
		}
		runs = append(runs, schemeRun{name: name, cfg: cfg, src: src, ctrl: controller(name, b.epoch)})
	}
	return runs, nil
}

func controller(name string, epoch float64) sim.Controller {
	switch name {
	case "Base":
		return policy.NewBase()
	case "TPM":
		return policy.NewTPM(0)
	case "DRPM":
		return policy.NewDRPM()
	case "PDC":
		p := policy.NewPDC()
		p.Epoch = epoch
		return p
	case "MAID":
		return policy.NewMAID()
	case "Hibernator":
		return hibernator.New(hibernator.Options{Epoch: epoch})
	}
	panic("perfbench: unknown scheme " + name)
}

func (b *simBench) setup() (float64, error) {
	c0 := processCPU()
	runs, err := b.prepare()
	d := processCPU() - c0
	b.next = runs
	return d, err
}

func (b *simBench) setupReps() int { return 10 }
func (b *simBench) minOps() int    { return 1 }
func (b *simBench) width() int     { return 1 }
func (b *simBench) close()         {}

func (b *simBench) finish(bool) (map[string]metric, error) { return nil, nil }

func (b *simBench) pass(tr *tracer) (*passOut, error) {
	runs := b.next // built by the set-up the harness runs before every pass
	b.next = nil
	out := &passOut{digests: map[string]string{}, ops: map[string]float64{}}
	goal := 0.0
	m := startMeter()
	for i := range runs {
		r := &runs[i]
		if i > 0 && b.goalFactor > 0 {
			r.cfg.RespGoal = goal
		}
		var events atomic.Uint64
		r.cfg.Progress = &events
		src := tr.wrap(r.src)
		var res *sim.Result
		var err error
		t0 := time.Now()
		tr.do(func() { res, err = sim.Run(r.cfg, src, r.ctrl, b.dur) }, "scheme", r.name)
		sec := time.Since(t0).Seconds()
		out.attempted++
		if err != nil {
			out.failed++
			out.digests[r.name] = "error: " + err.Error()
			continue
		}
		if i == 0 && b.goalFactor > 0 {
			goal = b.goalFactor * res.MeanResp
		}
		out.ops[r.name] = sec
		out.digests[r.name] = sha(served.RenderResult(res))
		out.reqs += res.Requests
		out.events += events.Load()
		out.c.add(resultCounts(res))
		if h, ok := r.ctrl.(*hibernator.Controller); ok {
			out.c.epochs += h.Epochs()
			out.c.boosts += h.BoostCount()
		}
	}
	out.m = m.stop()
	return out, nil
}

func resultCounts(r *sim.Result) counts {
	return counts{
		cacheHits: r.CacheHits, destages: r.Destages,
		spins: r.SpinUps + r.SpinDowns, shifts: r.LevelShifts, migratedBytes: r.MigratedBytes,
		retries: r.Faults.Retries, fallbacks: r.Faults.Fallbacks, timeouts: r.Faults.Timeouts,
	}
}

// arrayConfig is the bake-off array: RAID-5 groups of 4, 256 MiB
// write-back cache, 64 MiB extents. DRPM and Hibernator run on 5-level
// multi-speed disks, the rest on conventional ones; MAID adds 2 cache
// disks.
func arrayConfig(seed int64, scheme string, groups int, dur float64) sim.Config {
	spec := diskmodel.SingleSpeedUltrastar()
	if scheme == "DRPM" || scheme == "Hibernator" {
		spec = diskmodel.MultiSpeedUltrastar(5, 3000)
	}
	spares := 0
	if scheme == "MAID" {
		spares = 2
	}
	return sim.Config{
		Spec: spec, Groups: groups, GroupDisks: 4, Level: raid.RAID5,
		ExtentBytes: 64 << 20, CacheBytes: 256 << 20, SpareDisks: spares,
		RespWindow: min(60, dur/10), Seed: seed, ExpectedRotLatency: true,
	}
}

// newOLTPBakeoff is the T3/F1 bake-off geometry (16 data disks) under
// the diurnal OLTP generator peaking at 100 req/s. The goal is fixed at
// 1.3x Base's mean response, as in the paper's bake-off.
func newOLTPBakeoff(o options) *simBench {
	dur := 1200.0
	if o.size == "tiny" {
		dur = 120
	}
	return &simBench{
		schemes: Schemes, dur: dur, epoch: dur / 4, goalFactor: 1.3,
		config: func(s string) sim.Config { return arrayConfig(o.seed, s, 4, dur) },
		source: func(vol int64) (trace.Source, error) {
			return trace.NewOLTP(trace.OLTPConfig{
				Seed: o.seed + 101, VolumeBytes: vol, Duration: dur,
				Rate: dist.DiurnalRate(20, 100, dur, 0.5), MaxRate: 100,
			})
		},
	}
}

// newCelloWide is a 256-disk array (64 RAID-5 groups of 4) under one
// compressed diurnal cycle of the Cello-like generator, TPM then
// Hibernator with no response-time goal.
func newCelloWide(o options) *simBench {
	dur, groups := 14400.0, 64
	if o.size == "tiny" {
		dur, groups = 1800, 16
	}
	return &simBench{
		schemes: []string{"TPM", "Hibernator"}, dur: dur, epoch: 10800,
		config: func(s string) sim.Config { return arrayConfig(o.seed, s, groups, dur) },
		source: func(vol int64) (trace.Source, error) {
			return trace.NewCello(trace.CelloConfig{Seed: o.seed + 11, VolumeBytes: vol, Duration: dur, DayPeriod: dur})
		},
	}
}

// fleetBench runs one seeded heterogeneous fleet per pass on a runner
// pool of nproc workers.
type fleetBench struct {
	cfg fleet.Config
}

func newFleetFaults(o options) *fleetBench {
	arrays, dur := 400, 30.0
	if o.size == "tiny" {
		arrays, dur = 3, 30
	}
	return &fleetBench{cfg: fleet.Config{Arrays: arrays, Seed: o.seed, Duration: dur, FaultAccel: 20000, Par: runtime.NumCPU()}}
}

// setup samples the fleet's arrays and tenants and builds its routing
// plan through the public fleet functions: what a user does to inspect a
// fleet before running it. fleet.Run repeats this work internally.
func (b *fleetBench) setup() (float64, error) {
	c0 := processCPU()
	arrays := make([]fleet.ArraySpec, b.cfg.Arrays)
	for i := range arrays {
		arrays[i] = fleet.SampleArray(b.cfg.Seed, i)
	}
	tenants := make([]fleet.Tenant, 4*b.cfg.Arrays)
	for t := range tenants {
		tenants[t] = fleet.SampleTenant(b.cfg.Seed, t)
	}
	plan := fleet.BuildPlan(b.cfg.Seed, b.cfg.PowerCap, arrays, tenants)
	d := processCPU() - c0
	if len(plan.Licensed) != len(arrays) {
		return d, fmt.Errorf("fleet plan covers %d of %d arrays", len(plan.Licensed), len(arrays))
	}
	return d, nil
}

func (b *fleetBench) setupReps() int { return 10 }
func (b *fleetBench) minOps() int    { return 1 }
func (b *fleetBench) width() int     { return b.cfg.Par }
func (b *fleetBench) close()         {}

func (b *fleetBench) finish(bool) (map[string]metric, error) { return nil, nil }

func (b *fleetBench) pass(tr *tracer) (*passOut, error) {
	out := &passOut{digests: map[string]string{}, ops: map[string]float64{}, attempted: 1}
	var rep *fleet.Report
	var err error
	m := startMeter()
	tr.do(func() { rep, err = fleet.Run(b.cfg) }, "scheme", "fleet")
	out.m = m.stop()
	switch {
	case err != nil:
		out.failed++
		out.digests["report"] = "error: " + err.Error()
		return out, nil
	case !rep.ConservationOK:
		out.failed++
	}
	out.ops["fleet"] = out.m.wall
	out.digests["report"] = sha(rep.Bytes())
	out.reqs = rep.Requests
	out.c = counts{
		cacheHits: rep.CacheHits, spins: rep.SpinUps + rep.SpinDowns, shifts: rep.LevelShifts,
		retries: rep.Faults.Retries, fallbacks: rep.Faults.Fallbacks, timeouts: rep.Faults.Timeouts,
	}
	return out, nil
}
