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
// drawn from a small range so probe clusters and equal stored hashes
// are common, through growth from the first cell array, and checks
// every Find against a map from key to hash. A ref is its key here.
func TestIndexAgainstMap(t *testing.T) {
	if typ := reflect.TypeOf(cell{}); !ptabletest.PointerFree(typ) {
		t.Fatalf("%s contains pointers", typ)
	}
	rng := rand.New(rand.NewSource(3))
	hash := func(key uint32) uint32 { return (key * 2654435761) % 509 }
	var x Index
	ref := make(map[uint32]bool)
	for step := 0; step < 20000; step++ {
		key := uint32(rng.Intn(1500))
		if ref[key] {
			x.Delete(hash(key), key)
			delete(ref, key)
		} else {
			x.Insert(hash(key), key)
			ref[key] = true
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
	if x.Cells() < minCells || x.Len()*4 > x.Cells()*3 {
		t.Fatalf("%d refs in %d cells", x.Len(), x.Cells())
	}
	for key := range ref {
		if _, ok := x.Find(hash(key), func(r uint32) bool { return r == key }); !ok {
			t.Fatalf("key %d lost", key)
		}
	}
}
