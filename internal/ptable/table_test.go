package ptable

import (
	"math/rand"
	"reflect"
	"testing"

	"moas/internal/bgp"
	"moas/internal/ptable/ptabletest"
)

// model is the reference the table is checked against: a Go map from
// prefix to the id the table handed out and the value and mark stored
// under it.
type model struct {
	t      *testing.T
	tab    Table[uint64]
	ref    map[bgp.Prefix]modelEntry
	maxLen int
}

type modelEntry struct {
	id   uint32
	val  uint64
	mark uint8
}

// minCells is the length of an arena.Index's first cell array, which
// TestTableGrowthEdge checks.
const minCells = 256

func newModel(t *testing.T) *model {
	return &model{t: t, ref: make(map[bgp.Prefix]modelEntry)}
}

func (m *model) insert(p bgp.Prefix, val uint64) {
	m.t.Helper()
	h := uint32(Hash(p))
	if _, ok := m.ref[p]; ok {
		id, found := m.tab.Find(p, h)
		if !found || id != m.ref[p].id {
			m.t.Fatalf("Find(%s) = %d, %v; want %d, true", p, id, found, m.ref[p].id)
		}
		return
	}
	if _, found := m.tab.Find(p, h); found {
		m.t.Fatalf("Find(%s) hit an absent prefix", p)
	}
	id := m.tab.Insert(p, h)
	if got := *m.tab.At(id); got != 0 {
		m.t.Fatalf("Insert(%s) handed out id %d with stale value %d", p, id, got)
	}
	if got := m.tab.Mark(id); got != 0 {
		m.t.Fatalf("Insert(%s) handed out id %d with stale mark %d", p, id, got)
	}
	*m.tab.At(id) = val
	m.ref[p] = modelEntry{id: id, val: val}
	m.maxLen = max(m.maxLen, len(m.ref))
}

func (m *model) remove(p bgp.Prefix) {
	m.t.Helper()
	e, ok := m.ref[p]
	if !ok {
		if _, found := m.tab.Find(p, uint32(Hash(p))); found {
			m.t.Fatalf("Find(%s) hit an absent prefix", p)
		}
		return
	}
	m.tab.Delete(e.id)
	delete(m.ref, p)
}

// setMark marks p, if present, with mark&3.
func (m *model) setMark(p bgp.Prefix, mark uint8) {
	m.t.Helper()
	e, ok := m.ref[p]
	if !ok {
		return
	}
	m.tab.SetMark(e.id, mark)
	e.mark = mark & 3
	m.ref[p] = e
	if id, found := m.tab.Find(p, uint32(Hash(p))); !found || id != e.id || m.tab.Prefix(id) != p {
		m.t.Fatalf("after SetMark(%d, %d): Find(%s) = %d, %v", e.id, mark, p, id, found)
	}
}

// check compares the whole table with the reference.
func (m *model) check() {
	m.t.Helper()
	if m.tab.Len() != len(m.ref) {
		m.t.Fatalf("Len %d, want %d", m.tab.Len(), len(m.ref))
	}
	// Ids are recycled before the arena grows, so the arena never holds
	// more entries than were live at once.
	if m.tab.Carved() != m.maxLen {
		m.t.Fatalf("Carved %d, want the live high-water mark %d", m.tab.Carved(), m.maxLen)
	}
	ids := make(map[uint32]bgp.Prefix, len(m.ref))
	for p, e := range m.ref {
		id, ok := m.tab.Find(p, uint32(Hash(p)))
		if !ok || id != e.id {
			m.t.Fatalf("Find(%s) = %d, %v; want %d, true", p, id, ok, e.id)
		}
		if got := m.tab.Prefix(id); got != p {
			m.t.Fatalf("Prefix(%d) = %s, want %s", id, got, p)
		}
		if got := *m.tab.At(id); got != e.val {
			m.t.Fatalf("At(%d) = %d, want %d (%s)", id, got, e.val, p)
		}
		if got := m.tab.Mark(id); got != e.mark {
			m.t.Fatalf("Mark(%d) = %d, want %d (%s)", id, got, e.mark, p)
		}
		if q, dup := ids[id]; dup {
			m.t.Fatalf("id %d serves both %s and %s", id, p, q)
		}
		ids[id] = p
	}
	walked := 0
	m.tab.Walk(func(id uint32, p bgp.Prefix) bool {
		if ids[id] != p {
			m.t.Fatalf("Walk visited id %d as %s, want %s", id, p, ids[id])
		}
		walked++
		return true
	})
	if walked != len(m.ref) {
		m.t.Fatalf("Walk visited %d ids, want %d", walked, len(m.ref))
	}
}

func v4(addr uint32, bits uint8) bgp.Prefix { return bgp.PrefixFromUint32(addr, bits) }

func v6(hi, lo uint64, bits uint8) bgp.Prefix {
	var a [16]byte
	for i := 0; i < 8; i++ {
		a[i] = byte(hi >> (56 - 8*i))
		a[8+i] = byte(lo >> (56 - 8*i))
	}
	return bgp.PrefixFrom16(a, bits)
}

// randPrefix draws from a universe small enough that inserts, deletes
// and re-inserts of the same prefix are common: both families, every
// length from the default route to host routes.
func randPrefix(rng *rand.Rand) bgp.Prefix {
	if rng.Intn(3) == 0 {
		bits := uint8(rng.Intn(129))
		return v6(0x2001_0db8_0000_0000|uint64(rng.Intn(64))<<8, uint64(rng.Intn(4)), bits)
	}
	return v4(10<<24|uint32(rng.Intn(512))<<8|uint32(rng.Intn(2)), uint8(rng.Intn(33)))
}

// TestTableAgainstMap drives random insert / delete / re-insert / flap
// sequences and compares the table with a map after every few steps.
func TestTableAgainstMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newModel(t)
		for step := 0; step < 20000; step++ {
			p := randPrefix(rng)
			switch r := rng.Intn(11); {
			case r < 5:
				m.insert(p, rng.Uint64())
			case r < 8:
				m.remove(p)
			case r < 9:
				m.setMark(p, uint8(rng.Intn(4)))
			default: // flap: gone and straight back, as a withdrawn-then-reannounced prefix
				m.remove(p)
				m.insert(p, rng.Uint64())
			}
			if step%500 == 0 {
				m.check()
			}
		}
		m.check()
		for p := range m.ref {
			m.remove(p)
		}
		m.check()
	}
}

// TestTableEdgePrefixes covers the keys with the least entropy: the
// default route of either family (an all-zero address), host routes, and
// prefixes that differ only in length or only in family.
func TestTableEdgePrefixes(t *testing.T) {
	m := newModel(t)
	edge := []bgp.Prefix{
		v4(0, 0), v4(0, 1), v4(0, 32), v4(0xffffffff, 32), v4(0x80000000, 1),
		v6(0, 0, 0), v6(0, 0, 1), v6(0, 0, 128), v6(^uint64(0), ^uint64(0), 128),
		v6(0x0a00_0000_0000_0000, 0, 8), v4(0x0a000000, 8), // same leading bytes, different family
		{}, // the invalid zero prefix is still a distinct key
	}
	for i, p := range edge {
		m.insert(p, uint64(i)+1)
	}
	m.check()
	for _, p := range edge[:len(edge)/2] {
		m.remove(p)
	}
	m.check()
	for i, p := range edge {
		m.insert(p, uint64(i)+100)
	}
	m.check()
}

// colliding returns n IPv4 prefixes whose hashes agree on their low
// bits — one probe sequence in any table of up to 1<<bits slots.
func colliding(n int, bits uint) []bgp.Prefix {
	var out []bgp.Prefix
	want := uint32(Hash(v4(1<<8, 24))) & (1<<bits - 1)
	for a := uint32(1); len(out) < n; a++ {
		if p := v4(a<<8, 24); uint32(Hash(p))&(1<<bits-1) == want {
			out = append(out, p)
		}
	}
	return out
}

// TestTableCollisions puts one long cluster in the table — every key
// probing from the same home slot — then deletes from its middle, front
// and back, which is the backward-shift deletion's whole job, with
// unrelated keys around it and the cluster wrapping the slot array.
func TestTableCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cluster := colliding(96, 12)
	m := newModel(t)
	for i, p := range cluster {
		m.insert(p, uint64(i)+1)
		m.insert(randPrefix(rng), rng.Uint64())
	}
	m.check()
	for round := 0; round < 200; round++ {
		p := cluster[rng.Intn(len(cluster))]
		if rng.Intn(2) == 0 {
			m.remove(p)
		} else {
			m.insert(p, rng.Uint64())
		}
		if rng.Intn(4) == 0 {
			m.remove(randPrefix(rng))
		}
		m.check()
	}

	// A cluster whose home is the last slot wraps to the front.
	w := newModel(t)
	var wrap []bgp.Prefix
	for a := uint32(1); len(wrap) < 40; a++ {
		if p := v4(a<<8, 24); uint32(Hash(p))&(minCells-1) == minCells-1 {
			wrap = append(wrap, p)
		}
	}
	for i, p := range wrap {
		w.insert(p, uint64(i)+1)
	}
	w.check()
	for _, i := range rng.Perm(len(wrap)) {
		w.remove(wrap[i])
		w.check()
	}
}

// TestTableGrowthEdge fills the table to exactly its load limit, checks
// that the slot array has not grown yet, adds the one key that doubles
// it, and empties it again: every key must survive the rehash and the
// ids must be reused afterwards.
func TestTableGrowthEdge(t *testing.T) {
	m := newModel(t)
	limit := minCells * 3 / 4
	for i := 0; i < limit; i++ {
		m.insert(v4(uint32(i)<<8, 24), uint64(i)+1)
	}
	if m.tab.idx.Cells() != minCells {
		t.Fatalf("%d slots at the load limit of %d keys, want %d", m.tab.idx.Cells(), limit, minCells)
	}
	m.check()
	m.insert(v4(uint32(limit)<<8, 24), 7)
	if m.tab.idx.Cells() != 2*minCells {
		t.Fatalf("%d slots one key past the load limit, want %d", m.tab.idx.Cells(), 2*minCells)
	}
	m.check()
	for i := 0; i <= limit; i++ {
		m.remove(v4(uint32(i)<<8, 24))
	}
	m.check()
	for i := 0; i <= limit; i++ {
		m.insert(v6(uint64(i), 1, 128), uint64(i)+1)
	}
	m.check() // includes Carved == limit+1: the IPv6 keys took the recycled ids
}

// TestTablePointerFree is the guard on the table's own storage: nothing
// the garbage collector would have to trace per prefix, and an entry of
// an 8-byte value (the kernel's record) in 16 bytes, the mark included.
func TestTablePointerFree(t *testing.T) {
	if n := reflect.TypeOf(entry[uint64]{}).Size(); n > 16 {
		t.Errorf("an entry of an 8-byte value is %d bytes, want <= 16", n)
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(entry[uint64]{}),
		reflect.TypeOf(bgp.Prefix{}),
	} {
		if !ptabletest.PointerFree(typ) {
			t.Errorf("%s contains pointers", typ)
		}
	}
	if ptabletest.PointerFree(reflect.TypeOf(struct{ p *int }{})) || ptabletest.PointerFree(reflect.TypeOf([2][]byte{})) {
		t.Error("PointerFree accepts a pointer-bearing type")
	}
}

func TestShardSpread(t *testing.T) {
	const n, shards = 1 << 16, 8
	var counts [shards]int
	for i := uint32(0); i < n; i++ {
		counts[Shard(Hash(v4(i<<8, 24)), shards)]++
	}
	for i, c := range counts {
		if c < n/shards*9/10 || c > n/shards*11/10 {
			t.Errorf("shard %d holds %d of %d sequential /24s, want about %d", i, c, n, n/shards)
		}
	}
}

// benchPrefixes is the benchmark table: 1<<19 /24s spread over the
// IPv4 space, one in 16 an IPv6 /48 so the side arena is exercised too.
func benchPrefixes() ([]bgp.Prefix, []uint32) {
	const n = 1 << 19
	ps, hs := make([]bgp.Prefix, n), make([]uint32, n)
	for i := range ps {
		if i%16 == 0 {
			ps[i] = v6(0x2001_0db8_0000_0000|uint64(i)<<16, 0, 48)
		} else {
			ps[i] = v4(uint32(i)*2654435761&^0xff, 24)
		}
		hs[i] = uint32(Hash(ps[i]))
	}
	return ps, hs
}

// BenchmarkTableInsert builds a 1<<19-prefix table from empty per
// iteration; ns/prefix is the amortized cost of an insert. The grow leg
// has every growth of the index (and its rehash) in the figure, as a
// live feed pays it; the presized leg reserves the index first, as a
// restore does, and pays none.
func BenchmarkTableInsert(b *testing.B) {
	ps, hs := benchPrefixes()
	for _, presize := range []bool{false, true} {
		name := "grow"
		if presize {
			name = "presized"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				var tab Table[uint64]
				if presize {
					tab.Reserve(len(ps))
				}
				for i, p := range ps {
					if _, ok := tab.Find(p, hs[i]); !ok {
						*tab.At(tab.Insert(p, hs[i])) = uint64(i)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ps)), "ns/prefix")
		})
	}
}

// BenchmarkTableFind looks prefixes up in a full 1<<19-prefix table, in
// an order unrelated to their ids, as a route op does.
func BenchmarkTableFind(b *testing.B) {
	ps, hs := benchPrefixes()
	var tab Table[uint64]
	for i, p := range ps {
		tab.Insert(p, hs[i])
	}
	order := rand.New(rand.NewSource(1)).Perm(len(ps))
	b.ResetTimer()
	for i := range b.N {
		j := order[i%len(order)]
		if _, ok := tab.Find(ps[j], hs[j]); !ok {
			b.Fatalf("%s lost", ps[j])
		}
	}
}
