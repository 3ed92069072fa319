package array

import (
	"fmt"
	"slices"

	"hibernator/internal/raid"
)

// Submit issues a logical volume request. done receives the response time
// (completion minus submission) once every underlying physical operation
// has finished, including RAID-5 parity maintenance.
func (a *Array) Submit(off, size int64, write bool, done func(latency float64)) {
	if off < 0 || size <= 0 || off+size > a.LogicalBytes() {
		panic(fmt.Sprintf("array: request [%d,+%d) outside logical volume %d", off, size, a.LogicalBytes()))
	}
	start := a.engine.Now()
	a.inFlight++
	if a.auditor != nil {
		a.auditor.LogicalSubmit(start, a.inFlight)
	}
	f := a.newFanOut(false, true)
	f.foreground, f.start, f.write, f.done = true, start, write, done
	a.mapLogical(f, off, size, write)
	f.advance()
}

// SubmitBackground issues a logical request at background disk priority
// without touching the response-time statistics — cache destage and other
// housekeeping traffic.
func (a *Array) SubmitBackground(off, size int64, write bool, done func()) {
	if off < 0 || size <= 0 || off+size > a.LogicalBytes() {
		panic(fmt.Sprintf("array: background request [%d,+%d) outside logical volume", off, size))
	}
	f := a.newFanOut(true, true)
	f.cb = done
	a.mapLogical(f, off, size, write)
	f.advance()
}

// groupIO performs one contiguous I/O in a group's logical space (used by
// migration), honoring RAID write phases, and calls cb when all physical
// operations complete.
func (a *Array) groupIO(g *Group, goff, size int64, write, background bool, cb func()) {
	f := a.newFanOut(background, false)
	f.cb = cb
	f.add(g, goff, size, write)
	f.advance()
}

// mapLogical splits a logical range into per-extent pieces and files each
// piece's physical operations on f.
func (a *Array) mapLogical(f *fanOut, off, size int64, write bool) {
	eb := a.cfg.ExtentBytes
	for size > 0 {
		e := off / eb
		within := off % eb
		n := eb - within
		if n > size {
			n = size
		}
		loc := a.extentMap[e]
		a.extentAccesses[e]++
		g := a.groups[loc.Group]
		f.add(g, loc.Slot*eb+within, n, write)
		off += n
		size -= n
	}
}

// fanOut is one access in flight: the physical operations its pieces map
// to, with every piece's pre-reads filed ahead of every piece's writes,
// driven through the two-phase (pre-read, then write) protocol. Records
// are pooled on the Array; physDone is bound once, when the record is
// created, so dispatching an operation allocates nothing.
type fanOut struct {
	a *Array

	ios    []raid.PhysIO
	groups []*Group // groups[i] owns ios[i]
	reads  int      // ios[:reads] is the pre-read phase

	writing    bool // the write phase has been dispatched
	remaining  int  // operations of the current phase still outstanding
	background bool
	counted    bool // logical traffic: operations count in fanoutIOs

	// Completion. A foreground Submit records its submission time, kind
	// and callback; every other access calls cb.
	foreground bool
	start      float64
	write      bool
	done       func(latency float64)
	cb         func()

	physDone func()
	next     *fanOut // free list
}

// newFanOut takes a record from the pool.
func (a *Array) newFanOut(background, counted bool) *fanOut {
	f := a.freeFanOuts
	if f == nil {
		f = &fanOut{a: a}
		f.physDone = f.opDone
	} else {
		a.freeFanOuts = f.next
		f.next = nil
	}
	f.background, f.counted = background, counted
	return f
}

// add maps one contiguous access in g's logical space and files its
// reads behind the reads already filed and its writes at the end.
func (f *fanOut) add(g *Group, goff, size int64, write bool) {
	mark := len(f.ios)
	f.ios = g.geo.AppendMap(f.ios, goff, size, write)
	for range f.ios[mark:] {
		f.groups = append(f.groups, g)
	}
	r := mark
	for r < len(f.ios) && !f.ios[r].Write {
		r++
	}
	if r > mark && mark > f.reads {
		// Rotate the new reads ahead of the writes already filed.
		rotate(f.ios[f.reads:r], mark-f.reads)
		rotate(f.groups[f.reads:r], mark-f.reads)
	}
	f.reads += r - mark
}

// rotate moves s[:k] to the end of s, keeping both halves in order.
func rotate[T any](s []T, k int) {
	slices.Reverse(s[:k])
	slices.Reverse(s[k:])
	slices.Reverse(s)
}

// advance dispatches the next phase that has operations, or completes the
// access when none is left. Disk completions always arrive through the
// engine, never from inside dispatch, so remaining is set for the whole
// phase before the first operation can finish.
func (f *fanOut) advance() {
	lo, hi := 0, f.reads
	if f.writing || f.reads == 0 {
		f.writing = true
		lo, hi = f.reads, len(f.ios)
	}
	if lo == hi {
		f.finish()
		return
	}
	f.remaining = hi - lo
	for i := lo; i < hi; i++ {
		if f.counted {
			f.a.fanoutIOs++
		}
		f.a.dispatch(f.groups[i], f.ios[i], f.background, f.physDone)
	}
}

// opDone is physDone: one physical operation of the current phase
// finished.
func (f *fanOut) opDone() {
	f.remaining--
	if f.remaining > 0 {
		return
	}
	if !f.writing {
		f.writing = true
		f.advance()
		return
	}
	f.finish()
}

// finish returns the record to the pool and then runs the completion,
// which may reuse the record at once: everything it needs is copied out
// first.
func (f *fanOut) finish() {
	a := f.a
	foreground, start, write, done, cb := f.foreground, f.start, f.write, f.done, f.cb
	f.ios, f.groups = f.ios[:0], f.groups[:0]
	f.reads, f.writing, f.remaining = 0, false, 0
	f.foreground, f.done, f.cb = false, nil, nil
	f.next = a.freeFanOuts
	a.freeFanOuts = f
	if foreground {
		a.completeLogical(start, write, done)
		return
	}
	if cb != nil {
		cb()
	}
}

// completeLogical accounts one finished foreground request.
func (a *Array) completeLogical(start float64, write bool, done func(latency float64)) {
	lat := a.engine.Now() - start
	a.inFlight--
	a.completed++
	if a.auditor != nil {
		a.auditor.LogicalComplete(a.engine.Now(), a.inFlight)
	}
	a.resp.Add(lat)
	a.respPct.Add(lat)
	if a.onComplete != nil {
		a.onComplete(lat, write)
	}
	if done != nil {
		done(lat)
	}
}
