package arena

import (
	"math/rand"
	"reflect"
	"testing"

	"moas/internal/ptable/ptabletest"
)

// TestChunksStable pins the arena's contract: indices are dense, fresh
// elements are zero, and a pointer taken before growth still addresses
// its element after it.
func TestChunksStable(t *testing.T) {
	var c Chunks[[3]uint64]
	first := c.At(c.Alloc())
	first[0] = 42
	for i := 1; i < 5000; i++ {
		if got := c.Alloc(); got != uint32(i) {
			t.Fatalf("Alloc #%d returned %d", i, got)
		}
		if *c.At(uint32(i)) != ([3]uint64{}) {
			t.Fatalf("element %d not zero", i)
		}
		c.At(uint32(i))[1] = uint64(i)
	}
	if c.At(0) != first || first[0] != 42 {
		t.Fatal("element 0 moved while the arena grew")
	}
	if c.Len() != 5000 || len(c.chunks) < 2 {
		t.Fatalf("Len %d in %d chunks", c.Len(), len(c.chunks))
	}
	if got := len(c.chunks[0]) * 24; got > chunkBytes {
		t.Fatalf("chunk of %d bytes, want <= %d", got, chunkBytes)
	}
}

// TestIndexAgainstMap drives random inserts and deletes, with hashes
// drawn from a small range so probe clusters and equal hashes are
// common, through growth from the first cell array, and checks every
// Find against a map from key to hash. A ref is its key here, drawn
// from a range that widens as the test runs, so the index grows
// several times in between deletes. hashOf must only ever be asked
// about live refs, and Delete must have asked it while shifting
// clusters back at three sizes of the cell array or more. A cell is 4
// pointer-free bytes, and a ref may reach the cell count minus two.
func TestIndexAgainstMap(t *testing.T) {
	var x Index
	if typ := reflect.TypeOf(x.cells).Elem(); !ptabletest.PointerFree(typ) || typ.Size() != 4 {
		t.Fatalf("a cell is %s, %d bytes; want 4 pointer-free bytes", typ, typ.Size())
	}
	rng := rand.New(rand.NewSource(3))
	hash := func(key uint32) uint32 { return (key * 2654435761) % 509 }
	ref := make(map[uint32]bool)
	shifting := false
	shiftedAt := make(map[int]bool) // cell counts at which Delete asked hashOf
	hashOf := func(r uint32) uint32 {
		if !ref[r] {
			t.Fatalf("hashOf asked about ref %d, which is not in the index", r)
		}
		if shifting {
			shiftedAt[x.Cells()] = true
		}
		return hash(r)
	}
	grew := 0
	for step := 0; step < 20000; step++ {
		key := uint32(rng.Intn(min(1500, 200+step/8)))
		if ref[key] {
			shifting = true
			x.Delete(hash(key), key, hashOf)
			shifting = false
			delete(ref, key)
		} else {
			cells := x.Cells()
			x.Insert(hash(key), key, hashOf)
			ref[key] = true
			if x.Cells() != cells {
				grew++
			}
		}
		if x.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", step, x.Len(), len(ref))
		}
		probe := uint32(rng.Intn(1500))
		got, ok := x.Find(hash(probe), func(r uint32) bool { return r == probe })
		if ok != ref[probe] || (ok && got != probe) {
			t.Fatalf("step %d: Find(%d) = %d, %v; want present %v", step, probe, got, ok, ref[probe])
		}
	}
	if x.Cells() < minCells || x.Len()*4 > x.Cells()*3 || grew < 4 {
		t.Fatalf("%d refs in %d cells after %d growths", x.Len(), x.Cells(), grew)
	}
	if len(shiftedAt) < 3 {
		t.Fatalf("Delete asked hashOf for a shifted ref's home at cell counts %v only", shiftedAt)
	}
	for key := range ref {
		if _, ok := x.Find(hash(key), func(r uint32) bool { return r == key }); !ok {
			t.Fatalf("key %d lost", key)
		}
	}

	// The ref bound: a ref may reach the cell count minus two without
	// growing the index, and the next ref up grows it however few refs
	// it holds, so a sparse caller meets no limit.
	var y Index
	spread := func(r uint32) uint32 { return r * 0x9e3779b1 }
	y.Insert(spread(0), 0, spread)
	top := uint32(y.Cells() - 2)
	y.Insert(spread(top), top, spread)
	if y.Cells() != minCells {
		t.Fatalf("ref %d grew the index to %d cells", top, y.Cells())
	}
	y.Insert(spread(top+1), top+1, spread)
	if y.Cells() != 2*minCells {
		t.Fatalf("ref %d left %d cells, want %d", top+1, y.Cells(), 2*minCells)
	}
	far := uint32(1 << 20)
	y.Insert(spread(far), far, spread)
	for _, r := range []uint32{0, top, top + 1, far} {
		if got, ok := y.Find(spread(r), func(c uint32) bool { return c == r }); !ok || got != r {
			t.Fatalf("Find(%d) = %d, %v", r, got, ok)
		}
	}
	if y.Len() != 4 || uint32(y.Cells()-2) < far {
		t.Fatalf("%d refs up to %d in %d cells", y.Len(), far, y.Cells())
	}
}
