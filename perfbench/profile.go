package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is a decoded runtime/pprof CPU profile: for each sample its
// CPU nanoseconds, its call stack (leaf first, inlined frames expanded)
// and its pprof labels. Only the fields the layer folding needs are
// decoded; the format is profile.proto, gzip-compressed.
type profile struct {
	samples []sample
}

type sample struct {
	ns     int64
	funcs  []string // leaf first
	labels map[string]string
}

// parseProfile decodes a gzip-compressed profile.proto CPU profile.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // string-table indices of key and value
	}
	var (
		strs    []string
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]int64{}    // function id -> name index
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, rs := range samples {
		if len(rs.values) < 2 {
			return nil, errors.New("sample without a cpu/nanoseconds value")
		}
		s := sample{ns: rs.values[1]}
		for _, l := range rs.locs {
			for _, f := range locs[l] {
				s.funcs = append(s.funcs, str(funcs[f]))
			}
		}
		for _, kv := range rs.labels {
			if s.labels == nil {
				s.labels = map[string]string{}
			}
			s.labels[str(kv[0])] = str(kv[1])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// fields walks the protobuf message in b, calling f with each field's
// number and wire type and either its varint value or its bytes.
func fields(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fold sums the CPU seconds of the samples keep accepts (nil: all) into
// layers. A sample's self time goes to the first frame from the leaf up
// that belongs to a layer: a repository module, net or syscall. Runtime
// and other standard-library frames below it are charged to that layer,
// except runtime allocation work (runtime_malloc) and GC work, including
// assists (runtime_gc), which are layers of their own. Inclusive time
// goes once to every layer on the stack.
func (p *profile) fold(keep func(s *sample) bool) (self, incl map[string]float64) {
	self, incl = map[string]float64{}, map[string]float64{}
	for i := range p.samples {
		s := &p.samples[i]
		if keep != nil && !keep(s) {
			continue
		}
		sec := float64(s.ns) / 1e9
		gc, malloc := false, false
		own := ""
		seen := map[string]bool{}
		for _, fn := range s.funcs {
			if pkgOf(fn) == "runtime" {
				if own == "" {
					g, m := runtimeClass(strings.TrimPrefix(fn, "runtime."))
					gc, malloc = gc || g, malloc || m
				}
				continue
			}
			layer := layerOf(fn)
			if layer == "" {
				continue
			}
			if own == "" {
				own = layer
			}
			if !seen[layer] {
				seen[layer] = true
				incl[layer] += sec
			}
		}
		switch {
		case gc:
			own = "runtime_gc"
		case malloc:
			own = "runtime_malloc"
		case own == "":
			own = "other"
		}
		self[own] += sec
		if !seen[own] {
			incl[own] += sec
		}
	}
	return self, incl
}

// layerOf maps a non-runtime function symbol to its layer, or "" for
// standard-library frames that are charged to their caller.
func layerOf(fn string) string {
	pkg := pkgOf(fn)
	switch {
	case strings.HasPrefix(pkg, "hibernator/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "hibernator/internal/"), "/")
		return mod
	case pkg == "main":
		return "bench"
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "net"
	case pkg == "syscall" || pkg == "internal/poll" || pkg == "os" || strings.HasPrefix(pkg, "internal/syscall/"):
		return "syscall"
	}
	return ""
}

// pkgOf returns the import path of a function symbol such as
// "hibernator/internal/sim.Run" or "net/http.(*conn).serve".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

var (
	gcMarkers = []string{"gcBgMarkWorker", "gcDrain", "scanobject", "scanblock", "scanstack", "scanframe",
		"markroot", "greyobject", "gcAssistAlloc", "gcMark", "gcStart", "gcSweep", "bgsweep", "sweepone",
		"(*mspan).sweep", "(*sweepLocked)", "deductSweepCredit", "bgscavenge", "wbBuf", "gcWriteBarrier",
		"bulkBarrier", "findObject", "gcFlushBgCredit", "(*gcWork)", "(*mheap).reclaim", "gcResetMarkState"}
	mallocMarkers = []string{"malloc", "newobject", "newarray", "makeslice", "growslice", "makemap",
		"makechan", "rawstring", "rawbyteslice", "rawruneslice", "(*mcache)", "(*mcentral)", "nextFree"}
)

// runtimeClass says whether a runtime function does GC or allocation work.
func runtimeClass(name string) (gc, malloc bool) {
	for _, m := range gcMarkers {
		if strings.Contains(name, m) {
			return true, false
		}
	}
	for _, m := range mallocMarkers {
		if strings.Contains(name, m) {
			return false, true
		}
	}
	return false, false
}
