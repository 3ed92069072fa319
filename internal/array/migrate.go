package array

import (
	"fmt"
	"strconv"

	"hibernator/internal/obs"
)

// migrationChunk is the I/O unit migrations stream data in. One chunk's
// read must complete before its write issues, and chunks proceed strictly
// in sequence, which naturally rate-limits a migration to one outstanding
// chain per extent. Chunks are kept small enough that an in-service chunk
// cannot stall a foreground request behind it for long, even at the
// lowest spindle speed.
const migrationChunk = 256 << 10

// ErrNoFreeSlot is returned when the target group cannot accept an extent.
var ErrNoFreeSlot = fmt.Errorf("array: target group has no free extent slot")

// MigrateExtent moves logical extent e into toGroup, streaming the data as
// chunked background (or foreground, if background is false) I/O. The
// extent remains readable at its old location until the move completes,
// when the mapping flips atomically. done (optional) fires on completion.
//
// Errors: migrating to the current group, an extent already in flight, or
// a full target group.
func (a *Array) MigrateExtent(e, toGroup int, background bool, done func()) error {
	if e < 0 || e >= a.numExtent {
		return fmt.Errorf("array: extent %d outside [0,%d)", e, a.numExtent)
	}
	if toGroup < 0 || toGroup >= len(a.groups) {
		return fmt.Errorf("array: group %d outside [0,%d)", toGroup, len(a.groups))
	}
	src := a.extentMap[e]
	if src.Group == toGroup {
		return fmt.Errorf("array: extent %d already in group %d", e, toGroup)
	}
	if a.migrating[e] {
		return fmt.Errorf("array: extent %d is already migrating", e)
	}
	dst := a.groups[toGroup]
	slot, err := dst.allocSlot()
	if err != nil {
		return ErrNoFreeSlot
	}
	a.setMigrating(e, true)
	if a.cfg.Trace != nil { // guard: the reason string concatenation allocates
		a.cfg.Trace.Event(a.engine.Now(), obs.KindMigrateStart,
			toGroup, -1, src.Group, toGroup, "extent "+strconv.Itoa(e))
	}
	if a.auditor != nil {
		a.auditor.MigrateStart(a.engine.Now(), e, src.Group, toGroup)
	}
	mv := a.newMigration(background, done)
	mv.e1, mv.e2 = e, -1
	mv.loc1, mv.loc2 = src, Location{Group: toGroup, Slot: slot}
	mv.step()
	return nil
}

// SwapExtents exchanges two extents' contents via controller-memory
// staging (read both, then write both cross-wise, chunk by chunk). It is
// the migration primitive when no free slot exists. Both extents stay
// addressable at their old locations until the swap completes.
func (a *Array) SwapExtents(e1, e2 int, background bool, done func()) error {
	if e1 == e2 {
		return fmt.Errorf("array: cannot swap extent %d with itself", e1)
	}
	for _, e := range []int{e1, e2} {
		if e < 0 || e >= a.numExtent {
			return fmt.Errorf("array: extent %d outside [0,%d)", e, a.numExtent)
		}
	}
	if a.migrating[e1] || a.migrating[e2] {
		return fmt.Errorf("array: extent %d or %d is already migrating", e1, e2)
	}
	l1, l2 := a.extentMap[e1], a.extentMap[e2]
	if l1.Group == l2.Group {
		return fmt.Errorf("array: extents %d and %d share group %d; swap is pointless", e1, e2, l1.Group)
	}
	a.setMigrating(e1, true)
	a.setMigrating(e2, true)
	if a.cfg.Trace != nil {
		a.cfg.Trace.Event(a.engine.Now(), obs.KindSwapStart,
			l1.Group, -1, l1.Group, l2.Group, "extents "+strconv.Itoa(e1)+","+strconv.Itoa(e2))
	}
	if a.auditor != nil {
		a.auditor.SwapStart(a.engine.Now(), e1, e2, l1.Group, l2.Group)
	}
	mv := a.newMigration(background, done)
	mv.e1, mv.e2 = e1, e2
	mv.loc1, mv.loc2 = l1, l2
	mv.step()
	return nil
}

// migration is one extent move or swap in flight. Each chunk is read,
// then written: a move reads loc1 and writes loc2, a swap reads both
// locations and then writes both. Records are pooled on the Array and
// their phase callbacks are bound once, so a chunk allocates nothing.
type migration struct {
	a          *Array
	e1, e2     int      // e2 < 0: a move of e1 from loc1 to loc2
	loc1, loc2 Location // swap: e1's and e2's locations
	background bool
	done       func()

	off, n  int64 // the chunk in flight
	pending int   // operations of the chunk's current phase outstanding

	readDone, writeDone func()
	next                *migration // free list
}

// newMigration takes a record from the pool.
func (a *Array) newMigration(background bool, done func()) *migration {
	mv := a.freeMigrations
	if mv == nil {
		mv = &migration{a: a}
		mv.readDone, mv.writeDone = mv.chunkRead, mv.chunkWritten
	} else {
		a.freeMigrations = mv.next
		mv.next = nil
	}
	mv.background, mv.done, mv.off = background, done, 0
	return mv
}

// step issues the reads of the chunk at off, or finishes the migration
// once every chunk is written.
func (mv *migration) step() {
	eb := mv.a.cfg.ExtentBytes
	if mv.off >= eb {
		mv.finish()
		return
	}
	mv.n = min(int64(migrationChunk), eb-mv.off)
	if mv.e2 < 0 {
		mv.pending = 1
		mv.io(mv.loc1, false, mv.readDone)
		return
	}
	mv.pending = 2
	mv.io(mv.loc1, false, mv.readDone)
	mv.io(mv.loc2, false, mv.readDone)
}

// chunkRead is readDone: once the chunk's reads are in, issue its writes.
func (mv *migration) chunkRead() {
	mv.pending--
	if mv.pending != 0 {
		return
	}
	if mv.e2 < 0 {
		mv.pending = 1
		mv.io(mv.loc2, true, mv.writeDone)
		return
	}
	mv.pending = 2
	mv.io(mv.loc1, true, mv.writeDone)
	mv.io(mv.loc2, true, mv.writeDone)
}

// io reads or writes the chunk in flight at loc's slot.
func (mv *migration) io(loc Location, write bool, cb func()) {
	a := mv.a
	a.groupIO(a.groups[loc.Group], loc.Slot*a.cfg.ExtentBytes+mv.off, mv.n, write, mv.background, cb)
}

// chunkWritten is writeDone: once the chunk's writes land, go on to the
// next chunk.
func (mv *migration) chunkWritten() {
	mv.pending--
	if mv.pending != 0 {
		return
	}
	mv.off += int64(migrationChunk)
	mv.step()
}

// finish flips the mapping, returns the record to the pool and then runs
// done, which may start another migration on the same record.
func (mv *migration) finish() {
	a, eb := mv.a, mv.a.cfg.ExtentBytes
	e1, e2, l1, l2, done := mv.e1, mv.e2, mv.loc1, mv.loc2, mv.done
	mv.done = nil
	mv.next = a.freeMigrations
	a.freeMigrations = mv
	if e2 < 0 {
		// A move: free the old slot.
		a.groups[l1.Group].freeSlot(l1.Slot)
		a.extentMap[e1] = l2
		a.setMigrating(e1, false)
		a.migrations++
		a.migratedBytes += uint64(eb)
		if a.cfg.Trace != nil {
			a.cfg.Trace.Event(a.engine.Now(), obs.KindMigrateFinish,
				l2.Group, -1, l1.Group, l2.Group, "extent "+strconv.Itoa(e1))
		}
		if a.auditor != nil {
			a.auditor.MigrateFinish(a.engine.Now(), e1, l1.Group, l2.Group)
		}
	} else {
		a.extentMap[e1], a.extentMap[e2] = l2, l1
		a.setMigrating(e1, false)
		a.setMigrating(e2, false)
		a.migrations += 2
		a.migratedBytes += 2 * uint64(eb)
		if a.cfg.Trace != nil {
			a.cfg.Trace.Event(a.engine.Now(), obs.KindSwapFinish,
				l1.Group, -1, l1.Group, l2.Group, "extents "+strconv.Itoa(e1)+","+strconv.Itoa(e2))
		}
		if a.auditor != nil {
			a.auditor.SwapFinish(a.engine.Now(), e1, e2, l1.Group, l2.Group)
		}
	}
	if done != nil {
		done()
	}
}

// setMigrating marks or clears an extent's move in flight.
func (a *Array) setMigrating(e int, on bool) {
	a.migrating[e] = on
	if on {
		a.inFlightMigrations++
	} else {
		a.inFlightMigrations--
	}
}

// Migrating reports whether an extent has a move in flight.
func (a *Array) Migrating(e int) bool { return a.migrating[e] }

// TeleportSwap instantly exchanges two extents' locations with no I/O.
// This is a facility for oracle upper bounds and tests — real policies
// must pay for movement via MigrateExtent/SwapExtents.
func (a *Array) TeleportSwap(e1, e2 int) error {
	if e1 == e2 {
		return nil
	}
	for _, e := range []int{e1, e2} {
		if e < 0 || e >= a.numExtent {
			return fmt.Errorf("array: extent %d outside [0,%d)", e, a.numExtent)
		}
		if a.migrating[e] {
			return fmt.Errorf("array: extent %d is migrating; cannot teleport", e)
		}
	}
	a.extentMap[e1], a.extentMap[e2] = a.extentMap[e2], a.extentMap[e1]
	return nil
}
