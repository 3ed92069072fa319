package sim

import (
	"hibernator/internal/array"
	"hibernator/internal/cache"
	"hibernator/internal/simevent"
	"hibernator/internal/trace"
)

// arrivals drives a run's workload through the router, the controller
// cache and the array. Exactly one arrival is scheduled at a time, with a
// callback bound once per run, and every request in service is a pooled
// record whose completion callbacks are bound once per record, so serving
// a request allocates nothing in steady state.
type arrivals struct {
	engine   *simevent.Engine
	cfg      *Config
	arr      *array.Array
	cache    *cache.Cache // nil without a controller cache
	res      *Result
	source   trace.Source
	duration float64

	router     Router
	arrivalObs ArrivalObserver
	sampler    *obsSampler // nil unless metrics sampling is armed
	// recordResponse accounts one response time.
	recordResponse func(lat float64, write bool)

	next     trace.Request // the scheduled arrival
	arriveFn func()
	free     *request
}

// request is one workload request between its arrival and its response.
// The record goes back to the pool before the response is recorded:
// everything the recording needs is copied out first.
type request struct {
	l         *arrivals
	r         trace.Request
	start     float64
	remaining int // cache-miss reads still outstanding

	hitFn    func()        // the cache-hit timer fired
	doneFn   func(float64) // the array served the request (no cache)
	missFn   func(float64) // one cache-miss read came back
	routedFn func()        // a Router finished the request
	next     *request      // free list
}

// pump schedules the workload's next request at its timestamp.
func (l *arrivals) pump() {
	r, ok := l.source.Next()
	if !ok || r.Time > l.duration {
		return
	}
	at := r.Time
	if at < l.engine.Now() {
		at = l.engine.Now()
	}
	l.next = r
	l.engine.At(at, l.arriveFn)
}

func (l *arrivals) arrive() {
	l.process(l.next)
	l.pump()
}

func (l *arrivals) process(r trace.Request) {
	if l.sampler != nil {
		l.sampler.onArrival(l.engine.Now())
	}
	if l.arrivalObs != nil {
		l.arrivalObs.OnArrival(r)
	}
	q := l.newRequest(r)
	if l.router != nil {
		q.start = l.engine.Now()
		if l.router.Route(r, q.routedFn) {
			return
		}
	}
	if l.cache == nil {
		l.arr.Submit(r.Off, r.Size, r.Write, q.doneFn)
		return
	}
	if r.Write {
		// Write-back: absorbed at cache speed; evictions destage in the
		// background.
		l.destage(l.cache.Write(r.Off, r.Size))
		l.res.CacheHits++
		l.engine.Schedule(CacheHitLatency, q.hitFn)
		return
	}
	misses, evictions := l.cache.Read(r.Off, r.Size)
	l.destage(evictions)
	if len(misses) == 0 {
		l.res.CacheHits++
		l.engine.Schedule(CacheHitLatency, q.hitFn)
		return
	}
	q.start = l.engine.Now()
	q.remaining = len(misses)
	for _, m := range misses {
		off, size := clampRange(m.Off, m.Size, l.arr.LogicalBytes())
		if size <= 0 {
			q.remaining--
			continue
		}
		l.arr.Submit(off, size, false, q.missFn)
	}
	if q.remaining == 0 { // whole request clamped away (volume edge)
		q.finish(CacheHitLatency)
	}
}

// destage writes cache ranges back to the array in the background.
func (l *arrivals) destage(ranges []cache.Range) {
	for _, rg := range ranges {
		off, size := clampRange(rg.Off, rg.Size, l.arr.LogicalBytes())
		if size <= 0 {
			continue
		}
		l.arr.SubmitBackground(off, size, true, nil)
	}
}

func (l *arrivals) newRequest(r trace.Request) *request {
	q := l.free
	if q == nil {
		q = &request{l: l}
		q.hitFn, q.doneFn, q.missFn, q.routedFn = q.hit, q.finish, q.missDone, q.routed
	} else {
		l.free = q.next
		q.next = nil
	}
	q.r, q.start, q.remaining = r, 0, 0
	return q
}

// finish releases the record and records the response, feeding the
// per-request hook when one is armed.
func (q *request) finish(lat float64) {
	l, r := q.l, q.r
	q.next = l.free
	l.free = q
	l.recordResponse(lat, r.Write)
	if l.cfg.OnResponse != nil {
		l.cfg.OnResponse(r, lat)
	}
}

func (q *request) hit() { q.finish(CacheHitLatency) }

func (q *request) routed() { q.finish(q.l.engine.Now() - q.start) }

func (q *request) missDone(float64) {
	q.remaining--
	if q.remaining == 0 {
		q.finish(q.l.engine.Now() - q.start + CacheHitLatency)
	}
}
