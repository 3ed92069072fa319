package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// EndToEnd lists the metrics a user of the system sees, with units. Every
// workload reports every one of them, and none of them is ever 0. Times
// are process CPU seconds: on a shared host the wall clock of identical
// work varies by a third or more between runs (vCPU steal, neighbours,
// shared disks), while its CPU time stays within a few percent. The
// wall-clock figures are reported too, as the unbounded Wall metrics.
var EndToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"sim_reqs_per_cpu_s", "req/s"},
	{"allocs_per_req", "count"},
	{"bytes_per_req", "B"},
	{"max_rss_mb", "MiB"},
}

// Wall lists the wall-clock metrics: what a user waits for, on a host
// too shared to bound them. Every run prints them; the traced run
// reports them with the per-layer metrics.
var Wall = []struct{ Name, Unit string }{
	{"wall.pass_s", "s"},
	{"wall.sim_reqs_per_s", "req/s"},
	{"wall.op_p50_ms", "ms"},
	{"wall.op_p95_ms", "ms"},
}

// Layers are the repository's internal modules (plus runtime and system
// buckets) that CPU profile samples are folded into.
var Layers = []string{
	"simevent", "diskmodel", "raid", "array", "cache", "stats", "trace", "dist", "mg1", "heat",
	"hibernator", "policy", "sim", "obs", "snapshot", "fleet", "runner", "served", "journal", "chaos",
	"runtime_malloc", "runtime_gc", "net", "syscall",
}

// Schemes are the six energy-management policies of the bake-off.
var Schemes = []string{"Base", "TPM", "DRPM", "PDC", "MAID", "Hibernator"}

// PerLayer lists the traced run's per-layer metrics, with units. A layer
// a workload never reaches reports 0.
var PerLayer = func() []struct{ Name, Unit string } {
	l := append([]struct{ Name, Unit string }{}, Wall...)
	l = append(l, []struct{ Name, Unit string }{
		{"simevent.events", "count"},
		{"simevent.events_per_req", "count"},
		{"simevent.ns_per_event", "ns"},
		{"cache.hit_frac", "ratio"},
		{"cache.destages_per_req", "count"},
		{"diskmodel.spin_transitions", "count"},
		{"diskmodel.level_shifts", "count"},
		{"array.migrated_mb", "MiB"},
		{"array.retries_per_req", "count"},
		{"array.fallback_frac", "ratio"},
		{"array.timeouts", "count"},
		{"hibernator.epochs", "count"},
		{"hibernator.boosts", "count"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"runtime.heap_allocs", "count"},
		{"runner.parallel_eff", "ratio"},
	}...)
	for _, s := range Schemes {
		l = append(l, struct{ Name, Unit string }{"scheme." + s + ".wall_s", "s"})
	}
	l = append(l, []struct{ Name, Unit string }{
		{"served.jobs_per_s", "jobs/s"},
		{"served.submit_p50_ms", "ms"},
		{"served.submit_p95_ms", "ms"},
		{"served.queue_p50_ms", "ms"},
		{"served.run_p50_ms", "ms"},
		{"served.refused_frac", "ratio"},
		{"served.wal_lines_per_job", "count"},
		{"served.state_bytes_per_job", "B"},
		{"journal.append_fsync_us", "us"},
		{"atomicio.write_us", "us"},
	}...)
	for _, layer := range Layers {
		l = append(l, struct{ Name, Unit string }{"cpu." + layer + ".self_s", "s"},
			struct{ Name, Unit string }{"cpu." + layer + ".incl_s", "s"})
	}
	return append(l, []struct{ Name, Unit string }{
		{"trace.next_ns_per_req", "ns"},
		{"traced.overhead_frac", "ratio"},
	}...)
}()

// meter measures host time, process CPU and allocation over one pass.
type meter struct {
	t0   time.Time
	cpu0 float64
	ms0  runtime.MemStats
	gc0  [2]float64
}

type meterOut struct {
	wall, cpu              float64 // seconds
	allocs, bytes, gcCount uint64
	gcCPU, allCPU          float64 // runtime's CPU-class estimates, seconds
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms0)
	m.gc0 = gcCPU()
	m.cpu0 = processCPU()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() meterOut {
	wall := time.Since(m.t0).Seconds()
	cpu := processCPU() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := gcCPU()
	return meterOut{
		wall: wall, cpu: cpu,
		allocs:  ms.Mallocs - m.ms0.Mallocs,
		bytes:   ms.TotalAlloc - m.ms0.TotalAlloc,
		gcCount: uint64(ms.NumGC - m.ms0.NumGC),
		gcCPU:   gc[0] - m.gc0[0], allCPU: gc[1] - m.gc0[1],
	}
}

// processCPU is the process's user+system CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPU reads the runtime's estimates of GC CPU and total CPU seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile of xs by the nearest-rank rule.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// perPass returns median over passes of f(pass).
func perPass(ps []*passOut, f func(p *passOut) float64) float64 {
	xs := make([]float64, 0, len(ps))
	for _, p := range ps {
		xs = append(xs, f(p))
	}
	return median(xs)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// opLatencies returns, for every op kind (scheme, fleet or job
// scenario), its median latency over the passes. The percentiles of these
// medians describe a typical and a slow op without the pass-to-pass host
// noise a single sample of a two-scheme workload would carry.
func opLatencies(ps []*passOut) []float64 {
	byKind := map[string][]float64{}
	for _, p := range ps {
		for k, v := range p.ops {
			byKind[k] = append(byKind[k], v)
		}
	}
	out := make([]float64, 0, len(byKind))
	for _, xs := range byKind {
		out = append(out, median(xs))
	}
	return out
}

func endToEndMetrics(ps []*passOut, setups []float64, rssMB float64) map[string]metric {
	v := map[string]float64{
		"setup_s":            median(setups),
		"cpu_s":              perPass(ps, func(p *passOut) float64 { return p.m.cpu }),
		"sim_reqs_per_cpu_s": perPass(ps, func(p *passOut) float64 { return float64(p.reqs) / p.m.cpu }),
		"allocs_per_req":     perPass(ps, func(p *passOut) float64 { return ratio(p.m.allocs, p.reqs) }),
		"bytes_per_req":      perPass(ps, func(p *passOut) float64 { return ratio(p.m.bytes, p.reqs) }),
		"max_rss_mb":         rssMB,
	}
	out := map[string]metric{}
	for _, m := range EndToEnd {
		out[m.Name] = metric{v[m.Name], m.Unit}
	}
	return out
}

func wallMetrics(ps []*passOut) map[string]metric {
	ops := opLatencies(ps)
	v := map[string]float64{
		"wall.pass_s":         perPass(ps, func(p *passOut) float64 { return p.m.wall }),
		"wall.sim_reqs_per_s": perPass(ps, func(p *passOut) float64 { return float64(p.reqs) / p.m.wall }),
		"wall.op_p50_ms":      nearestRank(ops, 0.5) * 1000,
		"wall.op_p95_ms":      nearestRank(ops, 0.95) * 1000,
	}
	out := map[string]metric{}
	for _, m := range Wall {
		out[m.Name] = metric{v[m.Name], m.Unit}
	}
	return out
}

func perLayerMetrics(r *report, width int, tr *tracer, prof *profile, extra map[string]metric) map[string]metric {
	ps := r.untraced
	var c counts
	var reqs, events uint64
	var sub, queue, run []float64
	var submissions, refused, jobs int
	for _, p := range ps {
		c.add(p.c)
		reqs += p.reqs
		events += p.events
		sub = append(sub, p.submit...)
		queue = append(queue, p.queue...)
		run = append(run, p.run...)
		submissions += p.submissions
		refused += p.refused
		if p.submissions > 0 {
			jobs += len(p.ops)
		}
	}
	n := float64(len(ps))
	var gcCPU, allCPU, wall float64
	for _, p := range ps {
		gcCPU += p.m.gcCPU
		allCPU += p.m.allCPU
		wall += p.m.wall
	}
	v := map[string]float64{
		"simevent.events":            float64(events) / n,
		"simevent.events_per_req":    ratio(events, reqs),
		"simevent.ns_per_event":      perPass(ps, func(p *passOut) float64 { return nsPer(p.m.wall, p.events) }),
		"cache.hit_frac":             ratio(c.cacheHits, reqs),
		"cache.destages_per_req":     ratio(c.destages, reqs),
		"diskmodel.spin_transitions": float64(c.spins) / n,
		"diskmodel.level_shifts":     float64(c.shifts) / n,
		"array.migrated_mb":          float64(c.migratedBytes) / n / (1 << 20),
		"array.retries_per_req":      ratio(c.retries, reqs),
		"array.fallback_frac":        ratio(c.fallbacks, reqs),
		"array.timeouts":             float64(c.timeouts) / n,
		"hibernator.epochs":          float64(c.epochs) / n,
		"hibernator.boosts":          float64(c.boosts) / n,
		"runtime.gc_cycles":          perPass(ps, func(p *passOut) float64 { return float64(p.m.gcCount) }),
		"runtime.heap_allocs":        perPass(ps, func(p *passOut) float64 { return float64(p.m.allocs) }),
		"runner.parallel_eff":        perPass(ps, func(p *passOut) float64 { return p.m.cpu / (p.m.wall * float64(width)) }),
		"served.submit_p50_ms":       median(sub) * 1000,
		"served.submit_p95_ms":       nearestRank(sub, 0.95) * 1000,
		"served.queue_p50_ms":        median(queue) * 1000,
		"served.run_p50_ms":          median(run) * 1000,
	}
	if allCPU > 0 {
		v["runtime.gc_cpu_frac"] = gcCPU / allCPU
	}
	if submissions > 0 {
		v["served.refused_frac"] = float64(refused) / float64(submissions)
		v["served.jobs_per_s"] = float64(jobs) / wall
	}
	for _, s := range Schemes {
		v["scheme."+s+".wall_s"] = perPass(ps, func(p *passOut) float64 { return p.ops[s] })
	}
	if tr != nil {
		traced := r.tracedRun
		if tr.nextCalls > 0 {
			v["trace.next_ns_per_req"] = float64(tr.nextNs) / float64(tr.nextCalls)
		}
		v["traced.overhead_frac"] = perPass(traced, func(p *passOut) float64 { return p.m.wall })/
			perPass(ps, func(p *passOut) float64 { return p.m.wall }) - 1
		self, incl := prof.fold(nil)
		for _, layer := range Layers {
			v["cpu."+layer+".self_s"] = self[layer] / float64(len(traced))
			v["cpu."+layer+".incl_s"] = incl[layer] / float64(len(traced))
		}
	}
	out := map[string]metric{}
	for _, m := range PerLayer {
		out[m.Name] = metric{v[m.Name], m.Unit}
	}
	for k, m := range extra {
		out[k] = m
	}
	for k, m := range wallMetrics(ps) {
		out[k] = m
	}
	return out
}

func nsPer(seconds float64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return seconds * 1e9 / float64(n)
}
