// Package arena holds the two structures the engine's hot tables are
// built from: Index, the repository's one open-addressed hash index
// from a 32-bit hash to a dense uint32 ref, and Chunks, a grow-only
// arena of values addressed by such a ref. Index holds no pointer, and
// Chunks none beyond its values' own, so a table of pointer-free values
// costs the garbage collector nothing per element. Neither knows what
// its keys are: the prefix table (ptable), the interner of attribute
// blocks (bgp) and a shard's attrs handles (stream) each keep their
// keys and supply the equality and, for growth and deletion, the hash
// of a ref. The package imports no other package of the module, so
// every layer may use it.
package arena

import "math/bits"

// minCells is the size of an index's first cell array (1 KB).
const minCells = 256

// Index is an open-addressed hash index from a 32-bit hash to a uint32
// ref (a dense id, a handle) naming a key the caller stores elsewhere;
// the caller supplies key equality. Four pointer-free bytes per cell: a
// cell holds ref+1 in the bits under the mask and the hash's bits above
// it, and zero marks an empty cell. Find compares those high bits before
// it asks the caller, and what the cell drops — the hash's bits under
// the mask, a ref's home cell — Insert (when it grows) and Delete (when
// it shifts a cluster back) recompute through the caller's hashOf.
// Collisions resolve by linear probing and deletion shifts the cluster
// back, so the index holds no tombstones however long keys flap. It
// doubles, with one rehash in ref order, when three quarters full.
//
// A ref must stay below the cell count minus one, so that ref+1 fits
// under the mask. Insert grows the index until it does: a caller that
// keeps its refs dense, as all three do, never sees a larger index than
// its load asks for, and no caller meets a limit the ref's own 32 bits
// do not already set. The zero value is an empty index.
type Index struct {
	cells []uint32
	mask  uint32
	live  int
}

// Len returns the number of refs in the index.
func (x *Index) Len() int { return x.live }

// Cells returns the length of the cell array, 4 bytes a cell: the
// index's whole footprint.
func (x *Index) Cells() int { return len(x.cells) }

// Find returns the ref stored under hash h for which eq reports true.
// eq is only asked about refs whose hash agrees with h in the bits the
// cell keeps.
func (x *Index) Find(h uint32, eq func(ref uint32) bool) (uint32, bool) {
	if x.live == 0 {
		return 0, false
	}
	tag := h &^ x.mask
	for i := h & x.mask; ; i = (i + 1) & x.mask {
		c := x.cells[i]
		if c == 0 {
			return 0, false
		}
		if c&^x.mask == tag && eq(c&x.mask-1) {
			return c&x.mask - 1, true
		}
	}
}

// Insert adds ref under hash h. The caller guarantees its key is absent.
// hashOf must return the hash each ref already in the index was
// inserted under; Insert asks it about every one of them when it grows.
func (x *Index) Insert(h, ref uint32, hashOf func(ref uint32) uint32) {
	if (x.live+1)*4 > len(x.cells)*3 || ref >= x.mask {
		x.grow(ref, hashOf)
	}
	x.place(h, ref)
	x.live++
}

// grow doubles the cell array, more than once if ref would not fit under
// the new mask, and rehashes every live ref. It rehashes in ref order,
// collected in a bitmap first, so that hashOf reads the caller's keys
// front to back rather than in the old cells' random order.
func (x *Index) grow(ref uint32, hashOf func(ref uint32) uint32) {
	old, oldMask := x.cells, x.mask
	n := max(2*len(old), minCells)
	for uint64(ref) >= uint64(n-1) {
		n *= 2
	}
	var live []uint64
	if x.live > 0 {
		live = make([]uint64, (len(old)+63)/64) // every ref sits under the old mask
		for _, c := range old {
			if c != 0 {
				r := c&oldMask - 1
				live[r/64] |= 1 << (r % 64)
			}
		}
	}
	x.cells = make([]uint32, n)
	x.mask = uint32(n - 1)
	for w, word := range live {
		for ; word != 0; word &= word - 1 {
			r := uint32(w*64 + bits.TrailingZeros64(word))
			x.place(hashOf(r), r)
		}
	}
}

// place stores ref in the first empty cell of h's probe sequence.
func (x *Index) place(h, ref uint32) {
	i := h & x.mask
	for x.cells[i] != 0 {
		i = (i + 1) & x.mask
	}
	x.cells[i] = h&^x.mask | (ref + 1)
}

// Delete removes ref, which must have been inserted under hash h.
// hashOf is Insert's: Delete asks it about the refs it shifts back.
func (x *Index) Delete(h, ref uint32, hashOf func(ref uint32) uint32) {
	want := h&^x.mask | (ref + 1)
	i := h & x.mask
	for x.cells[i] != want {
		i = (i + 1) & x.mask
	}
	// Backward shift: pull each later member of the cluster into the hole
	// unless its home cell lies cyclically within (hole, member], where
	// the move would put it before its own probe start.
	for j := (i + 1) & x.mask; x.cells[j] != 0; j = (j + 1) & x.mask {
		home := hashOf(x.cells[j]&x.mask-1) & x.mask
		if (j-home)&x.mask < (j-i)&x.mask {
			continue
		}
		x.cells[i] = x.cells[j]
		i = j
	}
	x.cells[i] = 0
	x.live--
}
