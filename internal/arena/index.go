// Package arena holds the two structures the engine's hot tables are
// built from: Index, the repository's one open-addressed hash index
// from a 32-bit hash to a dense uint32 ref, and Chunks, a grow-only
// arena of values addressed by such a ref. Index holds no pointer, and
// Chunks none beyond its values' own, so a table of pointer-free values
// costs the garbage collector nothing per element. Neither knows what
// its keys are: the prefix table (ptable), the interner of attribute
// blocks (bgp) and a shard's attrs handles (stream) each keep their
// keys and supply the equality. The package imports no other package
// of the module, so every layer may use it.
package arena

// cell is one slot of an Index: the key's hash, kept so that growth and
// deletion never touch the keys, and the key's ref plus one (zero marks
// an empty cell).
type cell struct {
	h, ref uint32
}

// minCells is the size of an index's first cell array (2 KB).
const minCells = 256

// Index is an open-addressed hash index from a 32-bit hash to a uint32
// ref (a dense id, a handle) naming a key the caller stores elsewhere;
// the caller supplies key equality. Eight pointer-free bytes per cell.
// Collisions resolve by linear probing and deletion shifts the cluster
// back, so the index holds no tombstones however long keys flap. It
// doubles, with one rehash from the stored hashes, when three quarters
// full. The zero value is an empty index.
type Index struct {
	cells []cell
	mask  uint32
	live  int
}

// Len returns the number of refs in the index.
func (x *Index) Len() int { return x.live }

// Cells returns the length of the cell array, 8 bytes a cell: the
// index's whole footprint.
func (x *Index) Cells() int { return len(x.cells) }

// Find returns the ref stored under hash h for which eq reports true.
// eq is only asked about refs whose stored hash equals h.
func (x *Index) Find(h uint32, eq func(ref uint32) bool) (uint32, bool) {
	if x.live == 0 {
		return 0, false
	}
	for i := h & x.mask; ; i = (i + 1) & x.mask {
		c := x.cells[i]
		if c.ref == 0 {
			return 0, false
		}
		if c.h == h && eq(c.ref-1) {
			return c.ref - 1, true
		}
	}
}

// Insert adds ref under hash h. The caller guarantees its key is absent.
func (x *Index) Insert(h, ref uint32) {
	if (x.live+1)*4 > len(x.cells)*3 {
		old := x.cells
		x.cells = make([]cell, max(2*len(old), minCells))
		x.mask = uint32(len(x.cells) - 1)
		for _, c := range old {
			if c.ref != 0 {
				x.place(c)
			}
		}
	}
	x.place(cell{h: h, ref: ref + 1})
	x.live++
}

// place stores c in the first empty cell of its probe sequence.
func (x *Index) place(c cell) {
	i := c.h & x.mask
	for x.cells[i].ref != 0 {
		i = (i + 1) & x.mask
	}
	x.cells[i] = c
}

// Delete removes ref, which must have been inserted under hash h.
func (x *Index) Delete(h, ref uint32) {
	i := h & x.mask
	for x.cells[i].ref != ref+1 {
		i = (i + 1) & x.mask
	}
	// Backward shift: pull each later member of the cluster into the hole
	// unless its home cell lies cyclically within (hole, member], where
	// the move would put it before its own probe start.
	for j := (i + 1) & x.mask; x.cells[j].ref != 0; j = (j + 1) & x.mask {
		home := x.cells[j].h & x.mask
		if (j-home)&x.mask < (j-i)&x.mask {
			continue
		}
		x.cells[i] = x.cells[j]
		i = j
	}
	x.cells[i] = cell{}
	x.live--
}
