package array

import (
	"hibernator/internal/diskmodel"
	"hibernator/internal/obs"
	"hibernator/internal/raid"
	"hibernator/internal/simevent"
)

// RetryPolicy governs how the array reacts to transient physical-op
// errors and slow disks. The zero value disables everything: no retries,
// no deadlines, no health tracking — the array behaves exactly as if this
// type did not exist, which keeps zero-fault runs byte-identical.
//
// With faults armed, an op that completes with a transient error is
// retried on the same disk up to MaxRetries times, waiting
// Backoff*BackoffFactor^attempt simulated seconds before each retry.
// When retries exhaust (or on a deadline expiry) the op is served through
// the group's redundancy instead: RAID-5 reconstruct from the survivors,
// RAID-1 mirror read, RAID-0 data loss.
type RetryPolicy struct {
	// MaxRetries is how many same-disk retries follow a failed attempt.
	MaxRetries int
	// Backoff is the simulated-time delay before the first retry.
	Backoff float64
	// BackoffFactor multiplies the delay per subsequent retry
	// (1 = fixed backoff; 0 defaults to 1).
	BackoffFactor float64
	// OpDeadline bounds each attempt (queue wait + service). An attempt
	// that has not completed by then is abandoned — counted as a timeout,
	// served through redundancy — and its eventual completion is ignored.
	// 0 disables deadlines.
	OpDeadline float64

	// SuspectAfter marks a disk suspect once it has produced that many
	// errors (transient errors + timeouts). Suspect groups are avoided by
	// fault-aware policies. 0 disables.
	SuspectAfter int
	// EvictAfter evicts a disk (through the FailDisk path, triggering
	// degraded mode) once its error count reaches this. Eviction is
	// refused when it would lose data (e.g. RAID-5 already degraded); the
	// disk then stays suspect. 0 disables.
	EvictAfter int
	// AutoRebuild starts a background rebuild onto the first healthy
	// spare whenever a group member fails (injected or evicted).
	AutoRebuild bool
}

// enabled reports whether any part of the policy is armed; the Failed
// redirect below is gated on it so that legacy fail-stop behavior (X3)
// is bit-preserved when the policy is zero.
func (p *RetryPolicy) enabled() bool {
	return p.MaxRetries > 0 || p.OpDeadline > 0 || p.SuspectAfter > 0 || p.EvictAfter > 0 || p.AutoRebuild
}

// delay returns the backoff before retry number attempt+1 (0-based).
func (p *RetryPolicy) delay(attempt int) float64 {
	if p.Backoff <= 0 {
		return 0
	}
	f := p.BackoffFactor
	if f <= 0 {
		f = 1
	}
	d := p.Backoff
	for i := 0; i < attempt; i++ {
		d *= f
	}
	return d
}

// FaultStats aggregates the array's fault-handling counters.
type FaultStats struct {
	OpErrors  uint64 // physical ops that completed with a transient error
	Retries   uint64 // same-disk retries issued
	Timeouts  uint64 // attempts abandoned at the op deadline
	Fallbacks uint64 // ops served through redundancy after retries/timeouts
	Evictions uint64 // disks evicted by the error tracker or health policy
}

// FaultStats returns the fault-handling counters.
func (a *Array) FaultStats() FaultStats { return a.faultStats }

// physOp is one physical op's retry chain: the attempt in flight, its
// deadline, and the completion to run once the op is served. Records are
// pooled on the Array. Each embeds the diskmodel.Request it submits, and
// its disk-completion, deadline and retry callbacks are method values
// bound once, when the record is created, so an attempt allocates nothing.
//
// The disk's Done is the record's last reference: a record goes back to
// the pool only from diskDone, never when the deadline gives up on an
// attempt the disk still holds.
type physOp struct {
	a          *Array
	req        diskmodel.Request
	g          *Group
	disk       int
	io         raid.PhysIO
	background bool
	attempt    int
	onDone     func()

	// settled is set by whichever of the completion and the deadline
	// claims the attempt first; deadline is the pending expiry, if any.
	settled  bool
	deadline simevent.Event

	doneFn     func(*diskmodel.Request, float64)
	deadlineFn func()
	retryFn    func()
	next       *physOp // free list
}

// submitOne issues a single physical op on a specific member disk,
// applying the retry policy. onDone fires exactly once per op chain.
func (a *Array) submitOne(g *Group, disk int, io raid.PhysIO, background bool, onDone func()) {
	op := a.freeOps
	if op == nil {
		op = &physOp{a: a}
		op.doneFn, op.deadlineFn, op.retryFn = op.diskDone, op.expire, op.submit
	} else {
		a.freeOps = op.next
		op.next = nil
	}
	op.g, op.disk, op.io, op.background, op.attempt, op.onDone = g, disk, io, background, 0, onDone
	op.submit()
}

// release returns the record to the pool. Callers copy out whatever they
// still need first: the record may be reused by the next submitOne.
func (op *physOp) release() {
	a := op.a
	op.g, op.onDone = nil, nil
	op.next = a.freeOps
	a.freeOps = op
}

// submit is one try of the op: submit, and watch the deadline.
func (op *physOp) submit() {
	a := op.a
	op.settled = false
	op.deadline = simevent.Event{}
	op.req = diskmodel.Request{
		LBA:        op.io.Offset,
		Size:       op.io.Size,
		Write:      op.io.Write,
		Background: op.background,
		Done:       op.doneFn,
	}
	op.g.disks[op.disk].Submit(&op.req)
	if d := a.cfg.Retry.OpDeadline; d > 0 {
		op.deadline = a.engine.Schedule(d, op.deadlineFn)
	}
}

// settle claims the attempt for the caller; false means the other of the
// completion and the deadline already did.
func (op *physOp) settle() bool {
	if op.settled {
		return false
	}
	op.settled = true
	if op.deadline.Pending() {
		op.a.engine.Cancel(op.deadline)
	}
	return true
}

// diskDone is the attempt's disk completion. On a transient error it
// either backs off and retries (keeping the record) or falls back to the
// group's redundancy.
func (op *physOp) diskDone(r *diskmodel.Request, _ float64) {
	a, pol := op.a, &op.a.cfg.Retry
	if !op.settle() {
		op.release() // the deadline already gave up on this attempt
		return
	}
	g, disk, io, background, attempt, onDone := op.g, op.disk, op.io, op.background, op.attempt, op.onDone
	if r.Failed {
		op.release()
		// The disk died underneath us. With the policy armed the op is
		// re-served through redundancy; without it the legacy behavior
		// stands (completion counted, data loss accounted by the
		// caller's level).
		if pol.enabled() {
			a.redirect(g, disk, io, background, onDone)
		} else {
			onDone()
		}
		return
	}
	if r.Errored {
		a.faultStats.OpErrors++
		a.noteError(g, disk)
		if attempt < pol.MaxRetries {
			a.faultStats.Retries++
			a.cfg.Trace.Event(a.engine.Now(), obs.KindRetry,
				g.id, g.disks[disk].ID(), attempt, attempt+1, "transient error")
			op.attempt++
			a.engine.Schedule(pol.delay(attempt), op.retryFn)
			return
		}
		op.release()
		a.faultStats.Fallbacks++
		a.cfg.Trace.Event(a.engine.Now(), obs.KindFallback,
			g.id, g.disks[disk].ID(), attempt, -1, "retries exhausted")
		a.redirect(g, disk, io, background, onDone)
		return
	}
	op.release()
	onDone()
}

// expire is the attempt's deadline.
func (op *physOp) expire() {
	a, g, disk := op.a, op.g, op.disk
	// A timeout only helps when the redundancy it falls back on is
	// actually better off than the disk the op is stuck on; otherwise let
	// the op run to completion.
	if !a.redirectHelps(g, disk) {
		return
	}
	if !op.settle() {
		return
	}
	// The attempt is abandoned: whatever the disk eventually does with it
	// is ignored (the disk time is still spent — that is the cost of a
	// fail-slow drive), and its completion releases the record. Serve
	// through redundancy. Deliberately NOT fed to the error tracker: a
	// blown deadline measures queue congestion — a commanded speed shift,
	// a post-shift drain, a rebuild hammering the survivors — not disk
	// health, and charging it would evict healthy drives for the policy's
	// own stalls. Only transient errors count.
	a.faultStats.Timeouts++
	a.faultStats.Fallbacks++
	a.cfg.Trace.Event(a.engine.Now(), obs.KindTimeout,
		g.id, g.disks[disk].ID(), op.attempt, -1, "op deadline; served via redundancy")
	a.redirect(g, disk, op.io, op.background, op.onDone)
}

// redirectHelps decides whether abandoning a stuck attempt in favor of
// the group's redundancy is likely to finish sooner. It keeps the op
// deadline honest — three regimes say no:
//
//   - the group is degraded or rebuilding: redundancy is already spent
//     (or busy being restored) and abandoning the attempt could only
//     lose data. Slow beats gone.
//   - a survivor is mid-transition (spin-up, speed shift) or off: the
//     fallback ops would stall behind the same commanded transition that
//     is stalling this one.
//   - the survivors' queues are comparably backed up: the wait is
//     congestion (e.g. the drain after a speed shift), not a slow disk,
//     and fanning the op out to equally loaded survivors only adds work.
//
// Under a genuine fail-slow member the survivors are live with short
// queues, and the timeout fires as intended.
func (a *Array) redirectHelps(g *Group, stuck int) bool {
	if g.Degraded() || g.rebuilding {
		return false
	}
	var survivors []int
	switch g.geo.Level {
	case raid.RAID1:
		survivors = []int{stuck ^ 1}
	case raid.RAID5:
		for i := range g.disks {
			if i != stuck {
				survivors = append(survivors, i)
			}
		}
	default:
		// RAID-0 has no redundancy: a timeout could only trade latency
		// for data loss.
		return false
	}
	worst := 0
	for _, s := range survivors {
		d := g.disks[s]
		switch d.State() {
		case diskmodel.SpinningUp, diskmodel.ShiftingSpeed, diskmodel.Standby, diskmodel.Failed:
			return false
		}
		if q := d.QueueLen(); q > worst {
			worst = q
		}
	}
	return 2*worst <= g.disks[stuck].QueueLen()
}

// noteError feeds the per-disk error tracker and trips the suspect and
// evicted states. Disabled (both thresholds zero) it does nothing.
func (a *Array) noteError(g *Group, disk int) {
	pol := &a.cfg.Retry
	if pol.SuspectAfter <= 0 && pol.EvictAfter <= 0 {
		return
	}
	if g.failed[disk] {
		return
	}
	if g.errCount == nil {
		g.errCount = map[int]int{}
	}
	g.errCount[disk]++
	n := g.errCount[disk]
	if pol.EvictAfter > 0 && n >= pol.EvictAfter {
		a.evict(g, disk)
		return
	}
	if pol.SuspectAfter > 0 && n >= pol.SuspectAfter {
		if !g.suspect[disk] {
			a.cfg.Trace.Event(a.engine.Now(), obs.KindSuspect,
				g.id, g.disks[disk].ID(), n, -1, "error threshold")
		}
		g.markSuspect(disk)
	}
}

// evict pushes a disk out of service through the regular failure path
// (degraded mode, rebuild). When redundancy cannot absorb the eviction
// (second failure in a protection domain) the disk stays suspect instead:
// limping along with retries beats certain data loss.
func (a *Array) evict(g *Group, disk int) {
	id := g.disks[disk].ID()
	if err := a.FailDisk(g.id, disk); err != nil {
		if !g.suspect[disk] {
			a.cfg.Trace.Event(a.engine.Now(), obs.KindSuspect,
				g.id, id, g.errCount[disk], -1, "evict refused; kept suspect")
		}
		g.markSuspect(disk)
		return
	}
	a.faultStats.Evictions++
	a.cfg.Trace.Event(a.engine.Now(), obs.KindEvict,
		g.id, id, g.errCount[disk], -1, "error threshold")
	delete(g.suspect, disk)
}

// maybeAutoRebuild starts a background rebuild of a failed member onto
// the first live spare, if the policy asks for it and none is running.
func (a *Array) maybeAutoRebuild(g *Group, disk int) {
	if !a.cfg.Retry.AutoRebuild || g.rebuilding {
		return
	}
	for si, sp := range a.spares {
		if sp.State() != diskmodel.Failed {
			// Ignore the error: a concurrent rebuild or a racing failure
			// just means this attempt stands down.
			_ = a.Rebuild(g.id, disk, si, true, nil)
			return
		}
	}
}
