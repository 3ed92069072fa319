// Command perfbench is the repository benchmark. It drives the simulator,
// the fleet model and the durable job service from outside, through their
// public functions only, and reports end-to-end and per-layer metrics for
// one workload per process.
//
// Usage (from the repository root; run.py builds this program first):
//
//	python3 perfbench/run.py --workload oltp-bakeoff --seed 1 --seconds 20 --trace 0
//	python3 perfbench/run.py --workload all
//
// With -trace 0 the timed passes run untraced and the final JSON line
// carries the end-to-end metrics. With -trace 1 the same untraced passes
// run first, then a separate traced pass set (CPU profile with pprof
// labels, trace.Source timing wrapper, standalone storage kernels) feeds
// only the per-layer metrics. Every pass checks its outputs; a wrong
// output is counted as failed and makes the command exit 1.
//
// See README.md in this directory for the workloads, the metric
// definitions and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// DefaultSeed is the seed whose output digests are committed in
// digests.json. HeldOutSeed is reserved for confirming later performance
// claims: do not tune a change against it.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string // "full", or "tiny" for the determinism test
	digests  string
	tmp      string
	commit   string
	write    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", DefaultSeed, "workload seed (inputs are a pure function of it)")
	flag.Float64Var(&o.seconds, "seconds", 20, "host seconds each measured phase runs for")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced pass and reports per-layer metrics")
	flag.StringVar(&o.digests, "digests", "perfbench/digests.json", "committed output digests for the default seed")
	flag.StringVar(&o.tmp, "tmp", "", "directory for the job service's state (default: the OS temp dir)")
	flag.StringVar(&o.commit, "commit", "unknown", "git commit of the code under test, for the record")
	flag.BoolVar(&o.write, "write-digests", false, "record this run's digests into -digests instead of checking them")
	flag.Parse()
	o.trace = trace == 1
	o.size = "full"
	if err := o.validate(trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	meta := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": trace, "size": o.size,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": o.commit, "held_out_seed": HeldOutSeed,
	}
	mb, _ := json.Marshal(meta) // a flat map of scalars always marshals
	fmt.Printf("meta %s\n", mb)

	rep, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range rep.notes {
		fmt.Println(line)
	}
	printTable(rep.all)
	out := record{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.endToEnd}
	if o.trace {
		out.Metrics = rep.perLayer
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

func (o *options) validate(trace int) error {
	if _, ok := workloads[o.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the final output line.
type record struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printTable(all map[string]metric) {
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %16.6g %s\n", n, all[n].Value, all[n].Unit)
	}
}

// elapsed returns seconds since t as a float.
func elapsed(t time.Time) float64 { return time.Since(t).Seconds() }
