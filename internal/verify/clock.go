package verify

// Static vector clocks are sparse: a node's clock names only the
// iterations ordered before it. Each clock is a run of packed entries
// (iteration<<32 | count) sorted by iteration, so a point lookup is a
// binary search, a join is a linear merge, and no clock holds a pointer.
// Runs are carved from arena blocks instead of being allocated one per
// node. The first block is sized from the program (small programs stay
// small) and later ones double up to arenaBlock entries.
//
// Dense rows (one count per analyzed iteration) were measured and
// rejected: they are faster on chained programs but cost w entries per
// retained node, which on data-oriented schemes at w=512 allocated 2.5x
// the map clocks.

// arenaBlock is the largest block size the arena grows to, in entries
// (64 KiB); a longer run gets a block of its own length.
const arenaBlock = 8 << 10

type clockArena struct {
	block []uint64
	next  int // size of the next block
}

// newClockArena returns an arena for a program of the given node count.
func newClockArena(nodes int) clockArena {
	return clockArena{next: min(arenaBlock, 2*nodes+16)}
}

// alloc returns a zeroed run of n entries whose capacity is exactly n, so
// appending to it can never overwrite a neighbour.
func (a *clockArena) alloc(n int) []uint64 {
	if n > cap(a.block)-len(a.block) {
		a.block = make([]uint64, 0, max(a.next, n))
		a.next = min(arenaBlock, 2*a.next)
	}
	off := len(a.block)
	a.block = a.block[:off+n]
	return a.block[off : off+n : off+n]
}

func (a *clockArena) clone(row []uint64) []uint64 {
	out := a.alloc(len(row))
	copy(out, row)
	return out
}

// packClock packs a clock entry. Iterations and counts fit 32 bits: every
// node of the window is materialized.
func packClock(iter int64, count int32) uint64 {
	return uint64(iter)<<32 | uint64(uint32(count))
}

// clockSearch returns the position of iter's entry in row, or where it
// would be inserted.
func clockSearch(row []uint64, iter int64) int {
	key := uint64(iter) << 32
	lo, hi := 0, len(row)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if row[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// clockAt returns row's count for iteration iter (0 when absent).
func clockAt(row []uint64, iter int64) int32 {
	if p := clockSearch(row, iter); p < len(row) && row[p]>>32 == uint64(iter) {
		return int32(uint32(row[p]))
	}
	return 0
}

// insertClock raises the count of e's iteration to at least e's, in place
// when the iteration is present; otherwise it inserts e and the run grows.
func insertClock(row []uint64, e uint64) []uint64 {
	p := clockSearch(row, int64(e>>32))
	if p < len(row) && row[p]>>32 == e>>32 {
		row[p] = max(row[p], e)
		return row
	}
	row = append(row, 0)
	copy(row[p+1:], row[p:])
	row[p] = e
	return row
}

// mergeClocks appends to dst the join of runs a and b: every iteration of
// either, at the larger count. With equal iterations in the high bits, the
// larger packed entry is the larger count.
func mergeClocks(dst, a, b []uint64) []uint64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch xi, yi := x>>32, y>>32; {
		case xi < yi:
			dst = append(dst, x)
			i++
		case xi > yi:
			dst = append(dst, y)
			j++
		default:
			dst = append(dst, max(x, y))
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
