package epilog

import (
	"errors"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"moas/internal/bgp"
	"moas/internal/vfs"
)

// countingFS counts the Write calls made on the files it opens.
type countingFS struct {
	vfs.FS
	writes atomic.Int64
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, &c.writes}, nil
}

type countingFile struct {
	vfs.File
	n *atomic.Int64
}

func (f countingFile) Write(p []byte) (int, error) {
	f.n.Add(1)
	return f.File.Write(p)
}

// closedBatch returns n closed episodes on distinct /24s starting at
// the first-th, so a query reads every one of them back.
func closedBatch(first, n int) []Episode {
	eps := make([]Episode, n)
	for i := range eps {
		eps[i] = Episode{
			Prefix:  bgp.PrefixFromUint32(10<<24|uint32(first+i)<<8, 24),
			Origins: []bgp.ASN{100, bgp.ASN(200 + i%7)},
			Seq:     uint64(first + i + 1),
			Start:   i % 5,
			End:     i%5 + i%3,
		}
	}
	return eps
}

// readSegment decodes a segment file's records in on-disk order.
func readSegment(t *testing.T, path string) []Episode {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []Episode
	if _, err := decodeSegment(b, func(e *Episode) error {
		out = append(out, cloneEpisode(e))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// One Append call is one write, whatever the batch size.
func TestAppendOneWritePerCall(t *testing.T) {
	for _, n := range []int{1, 64, 4096} {
		fs := &countingFS{FS: vfs.OS{}}
		l, err := Open(t.TempDir(), Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		eps := closedBatch(0, n)
		before := fs.writes.Load() // the segment header
		if err := l.Append(eps...); err != nil {
			t.Fatal(err)
		}
		if w := fs.writes.Load() - before; w != 1 {
			t.Fatalf("Append of %d episodes made %d writes, want 1", n, w)
		}
		if st := l.Stats(); st.Appended != uint64(n) || st.Segments != 1 {
			t.Fatalf("%d episodes: stats %+v", n, st)
		}
		if got := readSegment(t, l.path(l.seq)); !reflect.DeepEqual(got, eps) {
			t.Fatalf("%d episodes: segment holds %d records, not the batch in order", n, len(got))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A batch whose write tears mid-way goes to the pending queue whole;
// the heal truncates the torn bytes and writes it again, so nothing is
// lost or doubled and the segment reopens clean.
func TestTornBatchHeals(t *testing.T) {
	fs := vfs.NewFaulty(nil)
	dir := t.TempDir()
	l, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	first, torn, after := closedBatch(0, 16), closedBatch(16, 64), closedBatch(80, 8)
	if err := l.Append(first...); err != nil {
		t.Fatal(err)
	}
	fs.SetWriteBudget(100) // runs dry inside the next batch's bytes
	if err := l.Append(torn...); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("append across the budget: %v", err)
	}
	if h := l.Health(); !h.Degraded || h.Pending != len(torn) || h.Lost != 0 {
		t.Fatalf("Health after the torn batch: %+v", h)
	}
	fs.Heal()
	if err := l.Append(after...); err != nil { // first retry: repair, flush
		t.Fatalf("append after heal: %v", err)
	}
	h := l.Health()
	if h.Degraded || h.Pending != 0 || h.Lost != 0 || h.Healed != 1 {
		t.Fatalf("Health after heal: %+v", h)
	}
	all := append(append(append([]Episode(nil), first...), torn...), after...)
	if st := l.Stats(); st.Appended != uint64(len(all)) {
		t.Fatalf("Appended = %d, want %d records", st.Appended, len(all))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Truncated != 0 {
		t.Fatalf("reopen truncated %d bytes: the torn batch was left on disk", st.Truncated)
	}
	sortEpisodes(all)
	if got := mustQuery(t, l2, Query{Class: -1}); !reflect.DeepEqual(got, all) {
		t.Fatalf("readback: %d episodes, want the %d appended", len(got), len(all))
	}
}

// An invalid episode is refused without taking its neighbours with it.
func TestAppendRefusesInvalidKeepsNeighbours(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Appended out of canonical order, so the segment shows call order.
	a, b := ep("10.2.0.0/16", 1, 0, 1, false, 1, 2), ep("10.1.0.0/16", 1, 0, 2, false, 3, 4)
	bad := ep("10.3.0.0/16", 1, 0, 0, true, 9) // one origin
	if err := l.Append(a, bad, b); err == nil {
		t.Fatal("batch with a single-origin episode accepted")
	}
	if got := readSegment(t, l.path(l.seq)); !reflect.DeepEqual(got, []Episode{a, b}) {
		t.Fatalf("segment holds %+v, want the two valid neighbours in call order", got)
	}
	if st := l.Stats(); st.Appended != 2 {
		t.Fatalf("Appended = %d, want 2", st.Appended)
	}
}
