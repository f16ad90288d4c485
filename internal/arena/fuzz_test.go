package arena

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fuzzIndexSeeds are the committed starting points (see
// TestGenerateIndexFuzzCorpus): each is a hash width and a script.
func fuzzIndexSeeds() map[string]struct {
	width  uint8
	script []byte
} {
	var grow, flap, cluster []byte
	for i := 0; i < 40; i++ { // runs of 64: past three growths
		grow = append(grow, 2, byte(i), byte(i*64))
	}
	for i := 0; i < 30; i++ {
		grow = append(grow, 3, byte(i*3), byte(i*17))
	}
	for i := 0; i < 200; i++ {
		flap = append(flap, byte(i%2), 0, byte(i%9))
	}
	for i := 0; i < 24; i++ {
		cluster = append(cluster, 2, byte(i), 0, 1, byte(i), byte(i*5))
	}
	return map[string]struct {
		width  uint8
		script []byte
	}{
		"grow":    {11, grow},
		"grow-1":  {1, grow},
		"flap":    {0, flap},
		"cluster": {3, cluster},
		"empty":   {5, nil},
	}
}

// FuzzIndex is the index's differential claim under arbitrary scripts:
// every three input bytes insert, delete, or insert or delete a run of
// 64 keys, and the index must agree with a map on membership and refs
// throughout. Refs are dense and recycled, as every caller keeps them.
// The hash keeps only width%12 bits of the key's entropy, so long
// clusters and cells whose kept hash bits agree for different keys are
// the common case, and runs carry the index through several growths.
func FuzzIndex(f *testing.F) {
	for _, s := range fuzzIndexSeeds() {
		f.Add(s.width, s.script)
	}
	f.Fuzz(func(t *testing.T, width uint8, script []byte) {
		keep := uint32(1)<<(width%12) - 1
		hash := func(key uint32) uint32 { return (key & keep) * 0x9e3779b1 }
		const universe = 1024 // 2048 cells at the end: three growths
		var (
			x     Index
			refOf [universe]uint32 // key → ref+1; 0: absent
			keyOf []uint32         // ref → key; live iff refOf agrees
			free  []uint32
			n     int
		)
		live := func(r uint32) bool {
			return int(r) < len(keyOf) && refOf[keyOf[r]] == r+1
		}
		hashOf := func(r uint32) uint32 {
			if !live(r) {
				t.Fatalf("hashOf asked about ref %d, which is not in the index", r)
			}
			return hash(keyOf[r])
		}
		find := func(key uint32) (uint32, bool) {
			return x.Find(hash(key), func(r uint32) bool {
				if !live(r) {
					t.Fatalf("eq asked about ref %d, which is not in the index", r)
				}
				return keyOf[r] == key
			})
		}
		insert := func(key uint32) {
			if refOf[key] != 0 {
				return
			}
			var r uint32
			if n := len(free); n > 0 {
				r, free = free[n-1], free[:n-1]
				keyOf[r] = key
			} else {
				r = uint32(len(keyOf))
				keyOf = append(keyOf, key)
			}
			refOf[key] = r + 1
			x.Insert(hash(key), r, hashOf)
			n++
		}
		remove := func(key uint32) {
			if refOf[key] == 0 {
				return
			}
			r := refOf[key] - 1
			x.Delete(hash(key), r, hashOf)
			refOf[key] = 0
			free = append(free, r)
			n--
		}
		check := func(key uint32) {
			got, ok := find(key)
			if want := refOf[key]; ok != (want != 0) || (ok && got != want-1) {
				t.Fatalf("Find(%d) = %d, %v; want ref+1 %d", key, got, ok, want)
			}
		}
		for ; len(script) >= 3; script = script[3:] {
			key := (uint32(script[1])<<8 | uint32(script[2])) % universe
			switch script[0] % 4 {
			case 0:
				insert(key)
			case 1:
				remove(key)
			case 2:
				for k := key; k < key+64; k++ {
					insert(k % universe)
				}
			case 3:
				for k := key; k < key+64; k++ {
					remove(k % universe)
				}
			}
			check(key)
			check((key + 63) % universe)
			if x.Len() != n {
				t.Fatalf("Len %d, want %d", x.Len(), n)
			}
		}
		if x.Len() > 0 && (x.Len()*4 > x.Cells()*3 || len(keyOf)+1 >= x.Cells()) {
			t.Fatalf("%d refs, %d carved, in %d cells", x.Len(), len(keyOf), x.Cells())
		}
		for key := uint32(0); key < universe; key++ {
			check(key)
		}
	})
}

// TestGenerateIndexFuzzCorpus rewrites the committed seed corpus. Run
// with MOAS_GEN_FUZZ_CORPUS=1 after changing fuzzIndexSeeds; it is a
// skip otherwise.
func TestGenerateIndexFuzzCorpus(t *testing.T) {
	if os.Getenv("MOAS_GEN_FUZZ_CORPUS") == "" {
		t.Skip("set MOAS_GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzIndex")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, s := range fuzzIndexSeeds() {
		body := fmt.Sprintf("go test fuzz v1\nbyte(%q)\n[]byte(%q)\n", s.width, s.script)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
