package policy

import (
	"container/list"
	"strconv"

	"hibernator/internal/diskmodel"
	"hibernator/internal/obs"
	"hibernator/internal/sim"
	"hibernator/internal/simevent"
	"hibernator/internal/trace"
)

// MAID (Massive Array of Idle Disks) routes the active working set through
// a small set of always-on cache disks (the array's spare disks) so the
// data disks can spin down. Reads that hit a cached chunk are served from
// cache disks; misses go to the array and trigger a background copy-in.
// Writes land on the cache disks (write-back) and destage in the
// background. Data-disk groups spin down after an idle threshold.
//
// The array must be configured with SpareDisks > 0.
type MAID struct {
	// ChunkBytes is the cache-disk allocation unit (default 1 MiB).
	ChunkBytes int64
	// IdleThreshold for data-disk spin-down (0 = break-even time).
	IdleThreshold float64
	// DestagePeriod / DestageMax drive write-back draining (defaults 5 s,
	// 8 chunks per tick).
	DestagePeriod float64
	DestageMax    int

	env    *sim.Env
	spares []*diskmodel.Disk
	slots  int64 // per spare disk

	lru        *list.List // front = most recent; values are chunk ids
	entries    map[int64]*list.Element
	where      map[int64]slotRef
	dirty      map[int64]bool
	dirtyOrder *list.List
	dirtyElem  map[int64]*list.Element
	free       []slotRef

	freeIOs *maidIO // pool of cache-disk I/O records

	hits, misses uint64
}

type slotRef struct {
	spare int
	slot  int64
}

// NewMAID returns a MAID policy with default tuning.
func NewMAID() *MAID { return &MAID{} }

// Name implements sim.Controller.
func (*MAID) Name() string { return "MAID" }

// Init implements sim.Controller.
func (m *MAID) Init(env *sim.Env) {
	m.env = env
	m.spares = env.Array.Spares()
	if len(m.spares) == 0 {
		panic("policy: MAID requires SpareDisks > 0 in the array config")
	}
	if m.ChunkBytes == 0 {
		m.ChunkBytes = 1 << 20
	}
	if m.IdleThreshold == 0 {
		m.IdleThreshold = BreakEvenTime(&env.Cfg.Spec)
	}
	if m.DestagePeriod == 0 {
		m.DestagePeriod = 5
	}
	if m.DestageMax == 0 {
		m.DestageMax = 8
	}
	m.slots = env.Cfg.Spec.CapacityBytes / m.ChunkBytes
	m.lru = list.New()
	m.entries = map[int64]*list.Element{}
	m.where = map[int64]slotRef{}
	m.dirty = map[int64]bool{}
	m.dirtyOrder = list.New()
	m.dirtyElem = map[int64]*list.Element{}
	for si := range m.spares {
		for s := int64(0); s < m.slots; s++ {
			m.free = append(m.free, slotRef{spare: si, slot: s})
		}
	}
	simevent.NewTicker(env.Engine, 1.0, func(now float64) {
		for _, g := range env.Array.Groups() {
			if g.IdleFor() >= m.IdleThreshold && g.Standby() {
				env.Trace.Event(now, obs.KindStandby, g.ID(), -1, -1, -1, "idle data group")
			}
		}
	})
	simevent.NewTicker(env.Engine, m.DestagePeriod, func(float64) { m.destage() })
}

// CacheStats returns chunk-level hit/miss counters.
func (m *MAID) CacheStats() (hits, misses uint64) { return m.hits, m.misses }

// SnapshotState implements sim.StateSnapshotter: the chunk cache's LRU
// recency order, slot placement, dirty FIFO, free-list depth and hit/miss
// counters fully determine MAID's future routing decisions.
func (m *MAID) SnapshotState(put func(key, value string)) {
	h := fnvOffset
	for el := m.lru.Front(); el != nil; el = el.Next() {
		c := el.Value.(int64)
		ref := m.where[c]
		h = fpMix(h, uint64(c))
		h = fpMix(h, uint64(ref.spare)<<32|uint64(uint32(ref.slot)))
		if m.dirty[c] {
			h = fpMix(h, 1)
		}
	}
	for el := m.dirtyOrder.Front(); el != nil; el = el.Next() {
		h = fpMix(h, uint64(el.Value.(int64)))
	}
	put("maid.cache.fp", strconv.FormatUint(h, 10))
	put("maid.cached", strconv.Itoa(m.lru.Len()))
	put("maid.dirty", strconv.Itoa(m.dirtyOrder.Len()))
	put("maid.free", strconv.Itoa(len(m.free)))
	put("maid.hits", strconv.FormatUint(m.hits, 10))
	put("maid.misses", strconv.FormatUint(m.misses, 10))
}

// Route implements sim.Router.
func (m *MAID) Route(r trace.Request, finish func()) bool {
	c0 := r.Off / m.ChunkBytes
	c1 := (r.Off + r.Size - 1) / m.ChunkBytes
	if r.Write {
		// Absorb the write on cache disks.
		io := m.newIO(finish)
		for c := c0; c <= c1; c++ {
			ref := m.ensure(c)
			m.markDirty(c)
			lo, hi := m.overlap(r, c)
			io.add(ref, lo, hi-lo, true, false)
		}
		io.submit()
		return true
	}
	// Read: serve only if every chunk is cached.
	for c := c0; c <= c1; c++ {
		if _, ok := m.entries[c]; !ok {
			m.misses++
			m.copyInLater(c0, c1)
			return false
		}
	}
	m.hits++
	io := m.newIO(finish)
	for c := c0; c <= c1; c++ {
		el := m.entries[c]
		m.lru.MoveToFront(el)
		ref := m.where[c]
		lo, hi := m.overlap(r, c)
		io.add(ref, lo, hi-lo, false, false)
	}
	io.submit()
	return true
}

// maidIO is a batch of cache-disk operations in flight: a routed
// request's spans, or one chunk's copy-in. Records are pooled on the MAID
// and embed their requests; done is bound once, so a warm pool routes a
// request without allocating.
type maidIO struct {
	m         *MAID
	ops       []maidOp
	remaining int
	finish    func() // called once every op completed; may be nil
	done      func(*diskmodel.Request, float64)
	next      *maidIO // free list
}

// maidOp is one cache-disk request and the spare disk it goes to.
type maidOp struct {
	spare int
	req   diskmodel.Request
}

// newIO takes a record from the pool.
func (m *MAID) newIO(finish func()) *maidIO {
	io := m.freeIOs
	if io == nil {
		io = &maidIO{m: m}
		io.done = io.opDone
	} else {
		m.freeIOs = io.next
		io.next = nil
	}
	io.finish = finish
	return io
}

// add files a request for size bytes at chunk offset lo of ref's slot.
func (io *maidIO) add(ref slotRef, lo, size int64, write, background bool) {
	io.ops = append(io.ops, maidOp{spare: ref.spare, req: diskmodel.Request{
		LBA: ref.slot*io.m.ChunkBytes + lo, Size: size, Write: write, Background: background,
		Done: io.done,
	}})
}

// submit issues every filed request, in filing order. Disk completions
// always arrive through the engine, so remaining is set before the first
// can finish.
func (io *maidIO) submit() {
	io.remaining = len(io.ops)
	for i := range io.ops {
		io.m.spares[io.ops[i].spare].Submit(&io.ops[i].req)
	}
}

// opDone is done: once the last request completes, return the record to
// the pool and run finish.
func (io *maidIO) opDone(*diskmodel.Request, float64) {
	io.remaining--
	if io.remaining > 0 {
		return
	}
	m, finish := io.m, io.finish
	io.ops, io.finish = io.ops[:0], nil
	io.next = m.freeIOs
	m.freeIOs = io
	if finish != nil {
		finish()
	}
}

// overlap returns the byte range of r within chunk c, chunk-relative.
func (m *MAID) overlap(r trace.Request, c int64) (lo, hi int64) {
	base := c * m.ChunkBytes
	lo, hi = r.Off-base, r.Off+r.Size-base
	if lo < 0 {
		lo = 0
	}
	if hi > m.ChunkBytes {
		hi = m.ChunkBytes
	}
	return lo, hi
}

// copyInLater installs missing chunks and writes them to cache disks in
// the background (the foreground array read brings the data into
// controller memory; only the cache-disk write costs extra I/O).
func (m *MAID) copyInLater(c0, c1 int64) {
	for c := c0; c <= c1; c++ {
		if _, ok := m.entries[c]; ok {
			continue
		}
		io := m.newIO(nil)
		io.add(m.ensure(c), 0, m.ChunkBytes, true, true)
		io.submit()
	}
}

// ensure returns the chunk's slot, inserting (and evicting) as needed.
func (m *MAID) ensure(c int64) slotRef {
	if el, ok := m.entries[c]; ok {
		m.lru.MoveToFront(el)
		return m.where[c]
	}
	var ref slotRef
	if len(m.free) > 0 {
		ref = m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
	} else {
		back := m.lru.Back()
		if back == nil {
			panic("policy: MAID cache has zero slots")
		}
		victim := back.Value.(int64)
		m.lru.Remove(back)
		delete(m.entries, victim)
		ref = m.where[victim]
		delete(m.where, victim)
		if m.dirty[victim] {
			m.writeBack(victim, ref)
			m.unmarkDirty(victim)
		}
	}
	m.entries[c] = m.lru.PushFront(c)
	m.where[c] = ref
	return ref
}

func (m *MAID) markDirty(c int64) {
	if m.dirty[c] {
		return
	}
	m.dirty[c] = true
	m.dirtyElem[c] = m.dirtyOrder.PushBack(c)
}

func (m *MAID) unmarkDirty(c int64) {
	if el, ok := m.dirtyElem[c]; ok {
		m.dirtyOrder.Remove(el)
		delete(m.dirtyElem, c)
	}
	delete(m.dirty, c)
}

// writeBack stages a dirty chunk to the array: background read from the
// cache disk, then background write to the data disks.
func (m *MAID) writeBack(c int64, ref slotRef) {
	arrOff := c * m.ChunkBytes
	limit := m.env.Array.LogicalBytes()
	if arrOff >= limit {
		return
	}
	size := m.ChunkBytes
	if arrOff+size > limit {
		size = limit - arrOff
	}
	m.spares[ref.spare].Submit(&diskmodel.Request{
		LBA: ref.slot * m.ChunkBytes, Size: size, Background: true,
		Done: func(_ *diskmodel.Request, _ float64) {
			m.env.Array.SubmitBackground(arrOff, size, true, nil)
		},
	})
}

func (m *MAID) destage() {
	for i := 0; i < m.DestageMax; i++ {
		front := m.dirtyOrder.Front()
		if front == nil {
			return
		}
		c := front.Value.(int64)
		ref, ok := m.where[c]
		if !ok {
			m.unmarkDirty(c)
			continue
		}
		m.writeBack(c, ref)
		m.unmarkDirty(c)
	}
}
