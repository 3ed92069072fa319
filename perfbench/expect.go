package main

import (
	"fmt"
	"sort"
)

// expectations checks, on a traced run, that the workload separates the
// layers as designed, and reports each expectation as holding or
// contradicted by the measurement. They never fail the run: a
// contradicted design expectation is a finding, not an output error.
func expectations(workload string, v map[string]metric, prof *profile) []string {
	var out []string
	expect := func(ok bool, what, format string, args ...any) {
		verdict := "holds"
		if !ok {
			verdict = "CONTRADICTED"
		}
		out = append(out, fmt.Sprintf("expect %s: %s (%s)", what, verdict, fmt.Sprintf(format, args...)))
	}
	val := func(name string) float64 { return v[name].Value }

	serviceCPU := val("cpu.served.incl_s") + val("cpu.journal.incl_s")
	if workload == "jobs-durable" {
		expect(val("cpu.served.incl_s") > 0 && val("cpu.journal.incl_s") > 0,
			"served and journal CPU appear", "served %.4f s, journal %.4f s per pass", val("cpu.served.incl_s"), val("cpu.journal.incl_s"))
	} else {
		expect(serviceCPU == 0, "no served or journal CPU", "%.4f s per pass", serviceCPU)
	}

	switch workload {
	case "oltp-bakeoff", "cello-wide":
		expect(val("array.retries_per_req") == 0, "array.retries_per_req is 0", "%g", val("array.retries_per_req"))
	case "fleet-faults":
		expect(val("array.retries_per_req") > 0, "array.retries_per_req is above 0", "%g", val("array.retries_per_req"))
	}
	switch workload {
	case "oltp-bakeoff":
		self, incl := prof.fold(nil)
		share := incl["hibernator"] / total(self)
		expect(share < 0.05, "cpu.hibernator.incl_s under 5% of the pass", "%.2f%%", 100*share)
	case "cello-wide":
		self, incl := prof.fold(func(s *sample) bool { return s.labels["scheme"] == "Hibernator" })
		top, second := largest(incl, "sim", "simevent", "bench")
		expect(top == "hibernator", "hibernator is the largest layer of the Hibernator run (sim, simevent and the benchmark, on every stack, aside)",
			"hibernator %.1f%%, largest %s %.1f%%, next %s %.1f%% of %.2f s",
			100*incl["hibernator"]/total(self), top, 100*incl[top]/total(self), second, 100*incl[second]/total(self), total(self))
	}
	return out
}

func total(m map[string]float64) float64 {
	t := 0.0
	for _, x := range m {
		t += x
	}
	return t
}

// largest returns the two layers with the most time, skipping the named
// ones.
func largest(m map[string]float64, skip ...string) (string, string) {
	var names []string
	for k := range m {
		ok := true
		for _, s := range skip {
			ok = ok && k != s
		}
		if ok {
			names = append(names, k)
		}
	}
	sort.Slice(names, func(i, j int) bool { return m[names[i]] > m[names[j]] })
	names = append(names, "", "")
	return names[0], names[1]
}
