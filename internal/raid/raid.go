// Package raid maps logical volume addresses onto the disks of a RAID
// group and expands writes into the physical operations parity maintenance
// requires. It is pure address arithmetic: the array layer turns the
// resulting PhysIO list into diskmodel requests.
//
// RAID-5 uses the left-symmetric layout (parity rotates across disks,
// starting at the last disk for row 0). Partial-stripe writes expand to
// read-modify-write (old data + old parity reads, new data + new parity
// writes); writes covering a full stripe row skip the pre-reads.
package raid

import "fmt"

// Level selects the redundancy scheme of a group.
type Level int

// Supported RAID levels.
const (
	RAID0 Level = iota
	RAID5
	// RAID1 stripes across mirror pairs (RAID-10): even disk counts,
	// reads served by one side of the pair (alternating by row), writes
	// duplicated to both.
	RAID1
)

// String names the level.
func (l Level) String() string {
	switch l {
	case RAID0:
		return "RAID0"
	case RAID5:
		return "RAID5"
	case RAID1:
		return "RAID1"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// IOKind classifies a physical operation for statistics.
type IOKind int

// Physical operation kinds.
const (
	DataRead IOKind = iota
	DataWrite
	ParityRead
	ParityWrite
)

// String names the kind.
func (k IOKind) String() string {
	switch k {
	case DataRead:
		return "data-read"
	case DataWrite:
		return "data-write"
	case ParityRead:
		return "parity-read"
	case ParityWrite:
		return "parity-write"
	default:
		return fmt.Sprintf("IOKind(%d)", int(k))
	}
}

// PhysIO is one physical disk operation within a group.
type PhysIO struct {
	Disk   int // index within the group
	Offset int64
	Size   int64
	Write  bool
	Kind   IOKind
}

// Geometry describes a RAID group.
type Geometry struct {
	Level      Level
	Disks      int
	StripeUnit int64 // bytes per strip
}

// Validate reports the first configuration error.
func (g Geometry) Validate() error {
	switch {
	case g.Disks <= 0:
		return fmt.Errorf("raid: group needs at least one disk, got %d", g.Disks)
	case g.StripeUnit <= 0:
		return fmt.Errorf("raid: stripe unit must be positive, got %d", g.StripeUnit)
	case g.Level == RAID5 && g.Disks < 3:
		return fmt.Errorf("raid: RAID5 needs >= 3 disks, got %d", g.Disks)
	case g.Level == RAID1 && (g.Disks < 2 || g.Disks%2 != 0):
		return fmt.Errorf("raid: RAID1 needs an even disk count >= 2, got %d", g.Disks)
	case g.Level != RAID0 && g.Level != RAID5 && g.Level != RAID1:
		return fmt.Errorf("raid: unsupported level %v", g.Level)
	}
	return nil
}

// dataDisks returns the number of strips per row that hold data.
func (g Geometry) dataDisks() int {
	switch g.Level {
	case RAID5:
		return g.Disks - 1
	case RAID1:
		return g.Disks / 2
	default:
		return g.Disks
	}
}

// LogicalCapacity returns the usable bytes given a per-disk capacity,
// rounded down to whole stripe rows.
func (g Geometry) LogicalCapacity(diskCapacity int64) int64 {
	rows := diskCapacity / g.StripeUnit
	return rows * int64(g.dataDisks()) * g.StripeUnit
}

// parityDisk returns which disk holds parity for a stripe row
// (left-symmetric rotation). RAID0 has none (-1).
func (g Geometry) parityDisk(row int64) int {
	if g.Level != RAID5 {
		return -1
	}
	return int((int64(g.Disks) - 1 - row%int64(g.Disks)) % int64(g.Disks))
}

// stripLocation places logical strip index s at (disk, row). For RAID1
// it returns the read-primary side of the mirror pair, alternating by row
// to spread read load.
func (g Geometry) stripLocation(s int64) (disk int, row int64) {
	dd := int64(g.dataDisks())
	row = s / dd
	j := s % dd
	switch g.Level {
	case RAID5:
		p := int64(g.parityDisk(row))
		disk = int((p + 1 + j) % int64(g.Disks))
	case RAID1:
		disk = int(2*j) + int(row%2)
	default:
		disk = int(j)
	}
	return disk, row
}

// mirrorOf returns the other side of a RAID1 pair.
func (g Geometry) mirrorOf(disk int) int { return disk ^ 1 }

// Map translates a logical byte access into the physical operations it
// requires; it is AppendMap into a fresh slice.
func (g Geometry) Map(off, size int64, write bool) []PhysIO {
	return g.AppendMap(nil, off, size, write)
}

// AppendMap appends the physical operations a logical byte access
// requires to dst and returns the extended slice; dst's existing entries
// are left untouched and never merged with. Reads touch only data strips;
// RAID5 writes additionally touch parity. The appended operations are
// ordered: all reads first, then all writes, since read-modify-write must
// complete its pre-reads before committing — the array layer preserves
// this two-phase structure. With enough capacity in dst it allocates
// nothing.
func (g Geometry) AppendMap(dst []PhysIO, off, size int64, write bool) []PhysIO {
	if off < 0 || size <= 0 {
		panic(fmt.Sprintf("raid: invalid access [%d,+%d)", off, size))
	}
	if write && g.Level == RAID5 {
		return g.appendRAID5Write(dst, off, size)
	}
	kind := DataRead
	if write {
		kind = DataWrite
	}
	base := len(dst)
	for end := off + size; off < end; {
		strip, within, n := g.piece(off, end)
		disk, row := g.stripLocation(strip)
		io := PhysIO{Disk: disk, Offset: row*g.StripeUnit + within, Size: n, Write: write, Kind: kind}
		dst = appendCoalesced(dst, base, io)
		if write && g.Level == RAID1 {
			io.Disk = g.mirrorOf(disk)
			dst = appendCoalesced(dst, base, io)
		}
		off += n
	}
	return dst
}

// piece returns the fragment of the access [off,end) that lies in the
// strip holding off: the strip index, the offset inside it and the size.
func (g Geometry) piece(off, end int64) (strip, within, n int64) {
	strip = off / g.StripeUnit
	within = off % g.StripeUnit
	n = g.StripeUnit - within
	if n > end-off {
		n = end - off
	}
	return strip, within, n
}

// appendCoalesced appends io to ops, merging it into the latest operation
// on the same disk when that one has the same kind and ends where io
// starts — a long sequential logical run lands as one streamed transfer
// per disk instead of a strip-sized I/O per row. Operations arrive in
// logical order, so per-disk operations come in ascending physical order
// and one stable pass suffices. Only ops[base:] is searched; the latest
// op of a disk is at most one entry per group member back.
func appendCoalesced(ops []PhysIO, base int, io PhysIO) []PhysIO {
	for i := len(ops) - 1; i >= base; i-- {
		prev := &ops[i]
		if prev.Disk != io.Disk {
			continue
		}
		if prev.Kind == io.Kind && prev.Offset+prev.Size == io.Offset {
			prev.Size += io.Size
			return ops
		}
		break
	}
	return append(ops, io)
}

// appendRAID5Write emits a RAID5 write row by row: pieces arrive in strip
// order, so each stripe row's pieces are consecutive. A row the access
// covers entirely is a full-stripe write (new data plus new parity); any
// other row is read-modify-write (old data and old parity reads, then new
// data and new parity writes). The parity I/O spans the union of the
// row's within-strip ranges. Reads are emitted in a first pass and writes
// in a second, each coalesced on its own.
func (g Geometry) appendRAID5Write(dst []PhysIO, off, size int64) []PhysIO {
	dd := int64(g.dataDisks())
	rowBytes := dd * g.StripeUnit
	end := off + size
	for _, write := range [2]bool{false, true} {
		base := len(dst)
		dataKind, parityKind := DataRead, ParityRead
		if write {
			dataKind, parityKind = DataWrite, ParityWrite
		}
		for rowOff := off; rowOff < end; {
			row := rowOff / rowBytes
			rowEnd := (row + 1) * rowBytes
			if rowEnd > end {
				rowEnd = end
			}
			full := rowEnd-rowOff == rowBytes
			if full && !write {
				rowOff = rowEnd
				continue // a full-stripe write skips the pre-reads
			}
			// Union of the row's within-strip ranges: a single piece
			// spans its own range, several span a whole strip.
			lo, hi := int64(0), g.StripeUnit
			for o := rowOff; o < rowEnd; {
				strip, within, n := g.piece(o, rowEnd)
				if o == rowOff && n == rowEnd-rowOff {
					lo, hi = within, within+n
				}
				disk, r := g.stripLocation(strip)
				dst = appendCoalesced(dst, base, PhysIO{Disk: disk, Offset: r*g.StripeUnit + within, Size: n, Write: write, Kind: dataKind})
				o += n
			}
			dst = appendCoalesced(dst, base, PhysIO{
				Disk: g.parityDisk(row), Offset: row*g.StripeUnit + lo, Size: hi - lo, Write: write, Kind: parityKind,
			})
			rowOff = rowEnd
		}
	}
	return dst
}
