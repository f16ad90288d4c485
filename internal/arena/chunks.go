package arena

import (
	"math/bits"
	"unsafe"
)

// chunkBytes is the target size of one arena chunk. A chunk is carved
// once, zeroed once by the allocator and never copied, so an arena's
// allocation total is its retained size and a pointer from At stays
// valid for the arena's lifetime.
const chunkBytes = 16 << 10

// Chunks is a grow-only arena of T addressed by a dense uint32 index.
// It grows one fixed-size chunk at a time instead of by doubling: no
// element is ever copied or cleared twice, and for a pointer-free T the
// only words the garbage collector scans are the chunk headers. The
// zero value is an empty arena.
type Chunks[T any] struct {
	chunks [][]T
	n      uint32 // elements carved so far
	shift  uint8  // log2 of the chunk length; set by the first Alloc
	mask   uint32
}

// Alloc carves the next element, zero-valued, and returns its index.
func (c *Chunks[T]) Alloc() uint32 {
	if c.n&c.mask == 0 { // chunk boundary (always true on the zero value)
		if c.chunks == nil {
			var zero T
			per := chunkBytes / max(int(unsafe.Sizeof(zero)), 1)
			c.shift = uint8(bits.Len(uint(max(per, 1))) - 1)
			c.mask = 1<<c.shift - 1
		}
		c.chunks = append(c.chunks, make([]T, 1<<c.shift))
	}
	c.n++
	return c.n - 1
}

// At returns the element at index i, which must have been returned by
// Alloc. The pointer is stable: later Allocs never move it.
func (c *Chunks[T]) At(i uint32) *T {
	return &c.chunks[i>>c.shift][i&c.mask]
}

// Len returns the number of elements carved.
func (c *Chunks[T]) Len() int { return int(c.n) }
