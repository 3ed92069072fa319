package hibernator_test

import (
	"runtime"
	"testing"

	"hibernator/internal/diskmodel"
	"hibernator/internal/dist"
	"hibernator/internal/experiments"
	"hibernator/internal/policy"
	"hibernator/internal/raid"
	"hibernator/internal/report"
	"hibernator/internal/sim"
	"hibernator/internal/trace"
)

// benchScale keeps each experiment benchmark to a few hundred simulated
// seconds per run; `go run ./cmd/hibexp` regenerates the full-scale
// results recorded in EXPERIMENTS.md.
const benchScale = 0.05

// One benchmark per reconstructed table/figure. Each iteration uses a
// seed unique to this benchmark AND iteration, so the memoized bake-offs
// can never short-circuit the work (a cache hit would make an iteration
// look instant, the framework would ramp b.N, and the later uncached
// iterations would stall the run for minutes).
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var space int64
	for _, c := range id {
		space = space*131 + int64(c)
	}
	b.ReportAllocs()
	var tables []*report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = e.Run(experiments.Opts{Scale: benchScale, Seed: space*1_000_000 + int64(i+1)})
		if err != nil {
			b.Fatal(err)
		}
	}
	rows := 0
	for _, t := range tables {
		rows += len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkT1(b *testing.B)  { benchExperiment(b, "T1") }
func BenchmarkT2(b *testing.B)  { benchExperiment(b, "T2") }
func BenchmarkT3(b *testing.B)  { benchExperiment(b, "T3") }
func BenchmarkF1(b *testing.B)  { benchExperiment(b, "F1") }
func BenchmarkF2(b *testing.B)  { benchExperiment(b, "F2") }
func BenchmarkF3(b *testing.B)  { benchExperiment(b, "F3") }
func BenchmarkF4(b *testing.B)  { benchExperiment(b, "F4") }
func BenchmarkF5(b *testing.B)  { benchExperiment(b, "F5") }
func BenchmarkF6(b *testing.B)  { benchExperiment(b, "F6") }
func BenchmarkF7(b *testing.B)  { benchExperiment(b, "F7") }
func BenchmarkF8(b *testing.B)  { benchExperiment(b, "F8") }
func BenchmarkF9(b *testing.B)  { benchExperiment(b, "F9") }
func BenchmarkF10(b *testing.B) { benchExperiment(b, "F10") }
func BenchmarkF11(b *testing.B) { benchExperiment(b, "F11") }
func BenchmarkX1(b *testing.B)  { benchExperiment(b, "X1") }
func BenchmarkX2(b *testing.B)  { benchExperiment(b, "X2") }
func BenchmarkX3(b *testing.B)  { benchExperiment(b, "X3") }
func BenchmarkX4(b *testing.B)  { benchExperiment(b, "X4") }

// BenchmarkSimulatorThroughput measures raw simulator speed: one
// sim.Run of the Base scheme on the bake-off geometry (4 RAID-5 groups
// of 4, 256 MiB write-back cache, 64 MiB extents) under 300 simulated
// seconds of the diurnal OLTP generator peaking at 100 req/s. It reports
// simulated requests per wall second and heap allocations and bytes per
// simulated request — the figures that bound how long full-scale
// experiments take.
func BenchmarkSimulatorThroughput(b *testing.B) {
	const dur = 300.0
	cfg := sim.Config{
		Spec: diskmodel.SingleSpeedUltrastar(), Groups: 4, GroupDisks: 4, Level: raid.RAID5,
		ExtentBytes: 64 << 20, CacheBytes: 256 << 20, RespWindow: 30, Seed: 1, ExpectedRotLatency: true,
	}
	vol, err := sim.LogicalBytes(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var reqs uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := trace.NewOLTP(trace.OLTPConfig{
			Seed: int64(101 + i), VolumeBytes: vol, Duration: dur,
			Rate: dist.DiurnalRate(20, 100, dur, 0.5), MaxRate: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(cfg, src, policy.NewBase(), dur)
		if err != nil {
			b.Fatal(err)
		}
		reqs += res.Requests
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if reqs == 0 {
		b.Fatal("no simulated requests")
	}
	b.ReportMetric(float64(reqs)/b.Elapsed().Seconds(), "sim-reqs/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(reqs), "allocs/req")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(reqs), "B/req")
}
