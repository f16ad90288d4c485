package ptable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"moas/internal/bgp"
)

// fuzzCluster is a set of prefixes that share one probe sequence, so
// the fuzzer can build and take apart long clusters at will.
var fuzzCluster = sync.OnceValue(func() []bgp.Prefix { return colliding(64, 10) })

// fuzzPrefix maps two input bytes onto a small prefix universe: IPv4 and
// IPv6 of every length, and the colliding cluster.
func fuzzPrefix(a, b byte) bgp.Prefix {
	switch {
	case a&0xc0 == 0xc0:
		return fuzzCluster()[int(b)%len(fuzzCluster())]
	case a&0x80 != 0:
		return v6(0x2001_0db8_0000_0000|uint64(a&0x3f)<<32, uint64(b>>6), b%129)
	}
	return v4(uint32(a)<<24|uint32(b>>6)<<8, b%33)
}

// fuzzSeeds are the committed starting points (see TestGenerateFuzzCorpus).
func fuzzSeeds() map[string][]byte {
	var grow, flap, cluster, mixed, mark []byte
	for i := 0; i < 250; i++ { // past the first growth edge
		grow = append(grow, 0, byte(i), 32)
	}
	for i := 0; i < 64; i++ { // insert, delete, re-insert the same keys
		flap = append(flap, 0, byte(i%8), 24, 1, byte(i%8), 24, 2, byte(i%8), 24)
	}
	for i := 0; i < 64; i++ {
		cluster = append(cluster, 0, 0xc0, byte(i))
	}
	for i := 0; i < 64; i += 3 {
		cluster = append(cluster, 1, 0xc0, byte(i))
	}
	for i := 0; i < 200; i++ {
		mixed = append(mixed, byte(i%3), byte(i*37), byte(i*91))
	}
	for i := 0; i < 64; i++ { // mark, grow past the mark, flap others, recycle
		mark = append(mark, 0, byte(i), 24, byte(3+4*(i%4)), byte(i), 24)
	}
	for i := 0; i < 200; i++ {
		mark = append(mark, 0, 0x40|byte(i), byte(i), 2, byte(i%64), 24)
	}
	for i := 0; i < 64; i += 2 {
		mark = append(mark, 1, byte(i), 24, 0, 0x80|byte(i), 64)
	}
	return map[string][]byte{
		"grow":    grow,
		"flap":    flap,
		"cluster": cluster,
		"mixed":   mixed,
		"mark":    mark,
		"edge":    {0, 0, 0, 0, 0x80, 0, 0, 0x80, 128, 0, 0, 32, 1, 0, 0, 0, 0, 0},
		"empty":   {},
	}
}

// FuzzPrefixTable is the table's differential claim under arbitrary op
// sequences: every three input bytes are one insert, delete, flap or
// SetMark of a prefix from the fuzz universe, applied to the table and
// to a map; the two must agree on membership, ids, values, marks and the
// live set throughout. So marks never change Find, Prefix, Walk or
// Delete, survive the inserts (and growths) of other prefixes, and read
// 0 on a recycled id.
func FuzzPrefixTable(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newModel(t)
		for step := 0; len(data) >= 3; step++ {
			p := fuzzPrefix(data[1], data[2])
			switch data[0] % 4 {
			case 0:
				m.insert(p, uint64(step)+1)
			case 1:
				m.remove(p)
			case 2:
				m.remove(p)
				m.insert(p, uint64(step)+1)
			case 3:
				m.setMark(p, data[0]>>2)
			}
			data = data[3:]
			if step%64 == 0 {
				m.check()
			}
		}
		m.check()
	})
}

// TestGenerateFuzzCorpus rewrites the committed seed corpus. Run with
// MOAS_GEN_FUZZ_CORPUS=1 after changing fuzzSeeds; it is a skip otherwise.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("MOAS_GEN_FUZZ_CORPUS") == "" {
		t.Skip("set MOAS_GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzPrefixTable")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range fuzzSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
