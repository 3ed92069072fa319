package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"hibernator/internal/trace"
)

// bench is one workload's implementation. The harness owns the schedule: it
// calls setup setupReps times, then setup and pass in turn until the
// measured phase's seconds are spent. Each setup call times its own
// set-up; each pass meters its own timed section.
type bench interface {
	// setup performs one set-up and returns the process CPU seconds it
	// took.
	setup() (float64, error)
	setupReps() int
	// pass runs one timed unit of the workload. Wrong outputs are counted
	// in the passOut; an error means the workload cannot continue.
	pass(tr *tracer) (*passOut, error)
	// minOps is how many ops a measured phase completes at least.
	minOps() int
	// width is the number of workers the workload keeps busy (pool width).
	width() int
	// finish reports workload-specific per-layer metrics once the passes
	// are done; traced says whether the traced pass set ran.
	finish(traced bool) (map[string]metric, error)
	close()
}

// passOut is what one pass measured and produced.
type passOut struct {
	m            meterOut
	reqs, events uint64
	// ops maps each of the pass's units of work to its latency in
	// seconds: one sim.Run per scheme, one fleet.Run, or one job per
	// scenario from submission to stream EOF.
	ops               map[string]float64
	attempted, failed int
	// digests name each output of the pass by its sha256; every pass of
	// one run must reproduce the first pass's digests exactly.
	digests map[string]string
	c       counts
	// Service spans (seconds) and admission counts, jobs-durable only.
	submit, queue, run   []float64
	submissions, refused int
}

// counts are the per-layer work counters read from simulation results.
type counts struct {
	cacheHits, destages, spins, shifts, migratedBytes uint64
	retries, fallbacks, timeouts, epochs, boosts      uint64
}

func (c *counts) add(d counts) {
	c.cacheHits += d.cacheHits
	c.destages += d.destages
	c.spins += d.spins
	c.shifts += d.shifts
	c.migratedBytes += d.migratedBytes
	c.retries += d.retries
	c.fallbacks += d.fallbacks
	c.timeouts += d.timeouts
	c.epochs += d.epochs
	c.boosts += d.boosts
}

// tracer belongs to the traced pass only: it labels profile samples and
// times the workload's trace.Source. A nil *tracer is the untraced pass.
type tracer struct {
	workload  string
	nextNs    int64
	nextCalls uint64
}

// do runs f under pprof labels (workload plus the given key/value pairs)
// when tracing, and plainly otherwise.
func (t *tracer) do(f func(), kv ...string) {
	if t == nil {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels(append([]string{"workload", t.workload}, kv...)...),
		func(context.Context) { f() })
}

// wrap times every Next call of src when tracing.
func (t *tracer) wrap(src trace.Source) trace.Source {
	if t == nil {
		return src
	}
	return &timedSource{src: src, t: t}
}

type timedSource struct {
	src trace.Source
	t   *tracer
}

func (s *timedSource) Next() (trace.Request, bool) {
	t0 := time.Now()
	r, ok := s.src.Next()
	s.t.nextNs += time.Since(t0).Nanoseconds()
	s.t.nextCalls++
	return r, ok
}

// report is everything one invocation measured.
type report struct {
	notes               []string
	all                 map[string]metric
	endToEnd, perLayer  map[string]metric
	attempted, failed   int
	untraced, tracedRun []*passOut
}

func execute(o options) (*report, error) {
	b, err := workloads[o.workload].build(o)
	if err != nil {
		return nil, err
	}
	defer b.close()

	var setups []float64
	for i := 0; i < b.setupReps(); i++ {
		runtime.GC()
		d, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d)
	}

	rep := &report{all: map[string]metric{}}
	if rep.untraced, err = runPasses(b, o.seconds, nil, &setups); err != nil {
		return nil, err
	}
	rssMB := peakRSSMB()

	var tr *tracer
	var prof *profile
	if o.trace {
		tr = &tracer{workload: o.workload}
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		rep.tracedRun, err = runPasses(b, o.seconds, tr, nil)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if prof, err = parseProfile(buf.Bytes()); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	extra, err := b.finish(o.trace)
	if err != nil {
		return nil, err
	}

	rep.check(o)
	rep.notes = append(rep.notes, passLine("untraced", rep.untraced))
	if o.trace {
		rep.notes = append(rep.notes, passLine("traced", rep.tracedRun))
	}
	rep.endToEnd = endToEndMetrics(rep.untraced, setups, rssMB)
	rep.perLayer = perLayerMetrics(rep, b.width(), tr, prof, extra)
	for k, v := range rep.endToEnd {
		rep.all[k] = v
	}
	for k, v := range wallMetrics(rep.untraced) {
		rep.all[k] = v
	}
	if o.trace {
		for k, v := range rep.perLayer {
			rep.all[k] = v
		}
		rep.notes = append(rep.notes, expectations(o.workload, rep.perLayer, prof)...)
	}
	rep.all["failed_frac"] = metric{float64(rep.failed) / float64(max(rep.attempted, 1)), "ratio"}
	return rep, nil
}

// passLine lists the host and CPU seconds of each pass, for eyeballing
// drift.
func passLine(kind string, ps []*passOut) string {
	line := fmt.Sprintf("%s passes: %d, wall/cpu s each:", kind, len(ps))
	for _, p := range ps {
		line += fmt.Sprintf(" %.3f/%.3f", p.m.wall, p.m.cpu)
	}
	return line
}

// runPasses repeats set-up and pass until seconds have been spent, give
// or take half a pass, and at least b.minOps() ops completed (giving up
// on the op floor at 3x seconds). Each set-up's time is appended to
// setups when it is non-nil, so set-up samples spread over the whole
// measured phase. A collection before every set-up and pass keeps the
// garbage of one timed section from being collected in the next.
func runPasses(b bench, seconds float64, tr *tracer, setups *[]float64) ([]*passOut, error) {
	var out []*passOut
	start := time.Now()
	ops := 0
	for {
		runtime.GC()
		d, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if setups != nil {
			*setups = append(*setups, d)
		}
		runtime.GC()
		p, err := b.pass(tr)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		ops += len(p.ops)
		if e := elapsed(start) + p.m.wall/2; e >= seconds && (ops >= b.minOps() || e >= 3*seconds) {
			return out, nil
		}
	}
}

// check counts failed ops and compares every pass's digests with the
// first pass's and, for the default seed at full size, with the
// committed digests.
func (r *report) check(o options) {
	passes := append(append([]*passOut{}, r.untraced...), r.tracedRun...)
	for _, p := range passes {
		r.attempted += p.attempted
		r.failed += p.failed
	}
	first := passes[0].digests
	for i, p := range passes[1:] {
		for k, v := range p.digests {
			if first[k] != v {
				r.failed++
				r.notes = append(r.notes, fmt.Sprintf("FAIL pass %d: %s digest %s differs from pass 0's %s", i+1, k, v, first[k]))
			}
		}
	}
	if o.size != "full" || o.seed != DefaultSeed {
		return
	}
	if o.write {
		if err := writeDigests(o.digests, o.workload, first); err != nil {
			r.failed++
			r.notes = append(r.notes, "FAIL writing digests: "+err.Error())
		}
		return
	}
	want, err := readDigests(o.digests, o.workload)
	if err != nil {
		r.failed++
		r.notes = append(r.notes, "FAIL reading committed digests: "+err.Error())
		return
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if first[k] != want[k] {
			r.failed++
			r.notes = append(r.notes, fmt.Sprintf("FAIL %s digest %q, committed %q", k, first[k], want[k]))
		}
	}
	if len(first) != len(want) {
		r.failed++
		r.notes = append(r.notes, fmt.Sprintf("FAIL %d outputs, %d committed digests", len(first), len(want)))
	}
}

func readAllDigests(path string) (map[string]map[string]string, error) {
	all := map[string]map[string]string{}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return all, nil
}

func readDigests(path, workload string) (map[string]string, error) {
	all, err := readAllDigests(path)
	if err != nil {
		return nil, err
	}
	d, ok := all[workload]
	if !ok {
		return nil, fmt.Errorf("%s has no digests for %s", path, workload)
	}
	return d, nil
}

func writeDigests(path, workload string, d map[string]string) error {
	all, err := readAllDigests(path)
	if os.IsNotExist(err) {
		all, err = map[string]map[string]string{}, nil
	}
	if err != nil {
		return err
	}
	all[workload] = d
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
