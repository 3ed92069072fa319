package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// suiteDigest is the first 8 bytes (hex) of the sha256 of the workers=1
// suite rendering, as measured on amd64 with go1.24. A change that moves
// it changed what the reference suite prints; pin the new value only when
// that change is intended. Other architectures may fuse floating-point
// operations differently, so the pin is checked on amd64 only.
const suiteDigest = "a9e76fb024bca3fa"

// TestSimWorkersByteIdentical is the end-to-end determinism gate for the
// partitioned engine: the full `hibexp -run all -scale 0.05` output —
// every table rendered exactly as the binary prints it, plus its CSV
// form — must hash identically for -workers 1, 4 and 8. This is the
// user-visible counterpart of sim's TestWorkersByteIdentical: if any
// experiment's numbers move with the worker count, the parallel engine
// has reordered events somewhere. The workers=1 digest is also pinned
// (suiteDigest), so a change that moves every width alike is caught too.
func TestSimWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reference suite three times")
	}
	render := func(workers int) string {
		resetMemos() // memoized bake-offs would hide a divergent recompute
		var all string
		for _, e := range All() {
			tables, err := e.Run(Opts{Scale: 0.05, Seed: 1, Workers: 1, SimWorkers: workers})
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, e.ID, err)
			}
			all += renderAll(t, tables)
		}
		return all
	}
	base := render(1)
	baseSum := sha256.Sum256([]byte(base))
	digest := hex.EncodeToString(baseSum[:8])
	t.Logf("workers=1 output: %d bytes, sha256 %s", len(base), digest)
	if runtime.GOARCH == "amd64" && digest != suiteDigest {
		t.Errorf("workers=1 suite digest %s, want the pinned %s", digest, suiteDigest)
	}
	for _, w := range []int{4, 8} {
		got := render(w)
		if got != base {
			i := 0
			for i < len(base) && i < len(got) && base[i] == got[i] {
				i++
			}
			lo, hi := i-80, i+80
			if lo < 0 {
				lo = 0
			}
			clip := func(s string) string {
				if hi > len(s) {
					return s[lo:]
				}
				return s[lo:hi]
			}
			t.Errorf("workers=%d output diverged at byte %d:\n  workers=1: %q\n  workers=%d: %q",
				w, i, clip(base), w, clip(got))
		}
	}
}
