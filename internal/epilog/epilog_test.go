package epilog

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
)

func pfx(s string) bgp.Prefix { return bgp.MustParsePrefix(s) }

func ep(p string, seq uint64, start, end int, open bool, origins ...bgp.ASN) Episode {
	return Episode{
		Prefix:  pfx(p),
		Origins: origins,
		Class:   core.ClassDistinctPaths,
		Seq:     seq,
		Start:   start,
		End:     end,
		Open:    open,
	}
}

func mustAppend(t *testing.T, l *Log, eps ...Episode) {
	t.Helper()
	for _, e := range eps {
		if err := l.Append(e); err != nil {
			t.Fatalf("Append(%+v): %v", e, err)
		}
	}
}

func mustQuery(t *testing.T, l *Log, q Query) []Episode {
	t.Helper()
	eps, err := l.Query(q)
	if err != nil {
		t.Fatalf("Query(%+v): %v", q, err)
	}
	return eps
}

// lifecycle appends the record sequence the kernel hook would emit for
// one closed episode: an open record at start, then the closing record.
func lifecycle(t *testing.T, l *Log, p string, seq uint64, start, end int, origins ...bgp.ASN) {
	t.Helper()
	mustAppend(t, l,
		ep(p, seq, start, start, true, origins...),
		ep(p, seq+1, start, end, false, origins...),
	)
}

func TestAppendQueryFold(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Prefix A: one closed episode, then a live one that changed origins.
	lifecycle(t, l, "10.0.0.0/8", 1, 3, 5, 100, 200)
	mustAppend(t, l,
		ep("10.0.0.0/8", 3, 9, 9, true, 100, 300),
		ep("10.0.0.0/8", 4, 9, 11, true, 100, 300, 400), // supersedes seq 3
	)
	// Prefix B: closed only.
	lifecycle(t, l, "192.168.0.0/16", 1, 0, 0, 7, 8)

	got := mustQuery(t, l, Query{Class: -1, AsOf: 12})
	want := []Episode{
		ep("10.0.0.0/8", 2, 3, 5, false, 100, 200),
		ep("10.0.0.0/8", 4, 9, 12, true, 100, 300, 400),
		ep("192.168.0.0/16", 2, 0, 0, false, 7, 8),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestOpenSupersededByClose(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// The open record's seq is below the closing record's: not live.
	mustAppend(t, l,
		ep("10.0.0.0/8", 1, 3, 3, true, 100, 200),
		ep("10.0.0.0/8", 2, 3, 6, false, 100, 200),
	)
	got := mustQuery(t, l, Query{Class: -1, AsOf: 50})
	if len(got) != 1 || got[0].Open {
		t.Fatalf("want only the closed episode, got %+v", got)
	}
}

func TestDuplicateReemissionDedups(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	eps := []Episode{
		ep("10.0.0.0/8", 1, 3, 3, true, 100, 200),
		ep("10.0.0.0/8", 2, 3, 6, false, 100, 200),
		ep("10.1.0.0/16", 5, 4, 4, true, 1, 2),
	}
	// A checkpoint-resume overlap re-appends byte-identical records.
	mustAppend(t, l, eps...)
	mustAppend(t, l, eps...)

	got := mustQuery(t, l, Query{Class: -1, AsOf: 8})
	want := []Episode{
		ep("10.0.0.0/8", 2, 3, 6, false, 100, 200),
		ep("10.1.0.0/16", 5, 4, 8, true, 1, 2),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dedup mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestQueryFilters(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	a := ep("10.0.0.0/8", 1, 0, 9, false, 100, 200)
	b := ep("10.1.0.0/16", 1, 5, 40, false, 100, 300)
	b.Class = core.ClassSplitView
	c := ep("10.2.0.0/16", 1, 50, 50, true, 7, 8)
	mustAppend(t, l, a, b, c)

	cases := []struct {
		name string
		q    Query
		want []uint32 // third octet of each expected prefix
	}{
		{"all", Query{Class: -1, AsOf: 60}, []uint32{0, 1, 2}},
		{"time-range", Query{From: 10, To: 20, Class: -1, AsOf: 60}, []uint32{1}},
		{"from-only", Query{From: 41, Class: -1, AsOf: 60}, []uint32{2}},
		{"to-only", Query{To: 4, Class: -1, AsOf: 60}, []uint32{0}},
		{"prefix", Query{Prefix: ptr(pfx("10.1.0.0/16")), Class: -1, AsOf: 60}, []uint32{1}},
		{"origin", Query{Origin: 200, Class: -1, AsOf: 60}, []uint32{0}},
		{"class", Query{Class: int(core.ClassSplitView), AsOf: 60}, []uint32{1}},
		{"min-days", Query{MinDays: 11, Class: -1, AsOf: 60}, []uint32{1, 2}},
		{"limit", Query{Class: -1, AsOf: 60, Limit: 2}, []uint32{0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := mustQuery(t, l, tc.q)
			var octets []uint32
			for _, e := range got {
				octets = append(octets, uint32(e.Prefix.Addr4()[1]))
			}
			if !reflect.DeepEqual(octets, tc.want) {
				t.Fatalf("got prefixes %v, want %v (%+v)", octets, tc.want, got)
			}
		})
	}
}

func ptr[T any](v T) *T { return &v }

func TestSummary(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	mustAppend(t, l,
		ep("10.0.0.0/8", 1, 0, 0, false, 1, 2),   // 1 day
		ep("10.1.0.0/16", 1, 0, 4, false, 1, 2),  // 5 days
		ep("10.2.0.0/16", 1, 0, 10, false, 1, 2), // 11 days
		ep("10.3.0.0/16", 1, 0, 40, false, 1, 2), // 41 days, persistent
		ep("10.4.0.0/16", 1, 0, 0, true, 1, 2),   // open, rendered 100 days
	)
	s, err := l.Summary(Query{Class: -1, AsOf: 99})
	if err != nil {
		t.Fatal(err)
	}
	want := Summary{Total: 5, Open: 1, Closed: 4, Persistent: 2}
	want.ByClass[core.ClassDistinctPaths] = 5
	want.Durations = [5]int{1, 1, 1, 1, 1}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("summary = %+v, want %+v", s, want)
	}
}

func TestReopenContinues(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lifecycle(t, l, "10.0.0.0/8", 1, 0, 2, 1, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	lifecycle(t, l2, "10.1.0.0/16", 1, 5, 6, 3, 4)
	got := mustQuery(t, l2, Query{Class: -1})
	if len(got) != 2 {
		t.Fatalf("want 2 episodes after reopen, got %+v", got)
	}
	if st := l2.Stats(); st.Segments != 1 {
		t.Fatalf("expected a single reused segment, stats %+v", st)
	}
}

func TestRotationAndAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every append rotates; compaction after 4 sealed.
	l, err := Open(dir, Options{RotateBytes: 1, CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	for day := 0; day < 8; day++ {
		lifecycle(t, l, "10.0.0.0/8", uint64(2*day+1), 3*day, 3*day+1, 100, 200)
	}
	st := l.Stats()
	if st.Compactions == 0 {
		t.Fatalf("expected auto-compactions, stats %+v", st)
	}
	if st.Segments >= 16 {
		t.Fatalf("compaction did not shrink the segment count: %+v", st)
	}
	got := mustQuery(t, l, Query{Class: -1})
	if len(got) != 8 {
		t.Fatalf("want 8 closed episodes, got %d: %+v", len(got), got)
	}
	for _, e := range got {
		if e.Open {
			t.Fatalf("superseded open record survived: %+v", e)
		}
	}
}

func TestCompactDropsSupersededAndDuplicates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{RotateBytes: 1, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Each append seals a segment: open, open (origin change), close,
	// plus a duplicate of the close.
	mustAppend(t, l,
		ep("10.0.0.0/8", 1, 0, 0, true, 1, 2),
		ep("10.0.0.0/8", 2, 0, 1, true, 1, 2, 3),
		ep("10.0.0.0/8", 3, 0, 4, false, 1, 2, 3),
		ep("10.0.0.0/8", 3, 0, 4, false, 1, 2, 3),
		ep("10.1.0.0/16", 9, 2, 2, true, 5, 6),
	)
	before := mustQuery(t, l, Query{Class: -1, AsOf: 7})
	l.mu.Lock()
	err = l.compactLocked()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	after := mustQuery(t, l, Query{Class: -1, AsOf: 7})
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("compaction changed the fold:\n before %+v\n after  %+v", before, after)
	}

	// The merged segment holds exactly the close and the live open:
	// the two superseded opens and the duplicate close are gone.
	var kept int
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		segs = append(segs, e.Name())
	}
	b, err := os.ReadFile(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSegment(b, func(*Episode) error { kept++; return nil }); err != nil {
		t.Fatal(err)
	}
	if kept != 2 {
		t.Fatalf("compacted segment holds %d records (segments %v), want 2", kept, segs)
	}
	if st := l.Stats(); st.Segments != 2 { // merged + active
		t.Fatalf("stats after compact: %+v (files %v)", st, segs)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lifecycle(t, l, "10.0.0.0/8", 1, 0, 2, 1, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, segName(1))
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		muck func() error
	}{
		{"half-record", func() error { return os.WriteFile(seg, whole[:len(whole)-3], 0o644) }},
		{"garbage-tail", func() error {
			return os.WriteFile(seg, append(append([]byte(nil), whole...), 0xFF, 0x07, 0x01), 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.muck(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after %s: %v", tc.name, err)
			}
			defer l2.Close()
			if st := l2.Stats(); st.Truncated == 0 {
				t.Fatalf("no torn-tail truncation recorded: %+v", st)
			}
			// The damaged tail is gone; whole records survive and the
			// log accepts appends again.
			got := mustQuery(t, l2, Query{Class: -1})
			for _, e := range got {
				if e.Prefix != pfx("10.0.0.0/8") {
					t.Fatalf("unexpected episode %+v", e)
				}
			}
			lifecycle(t, l2, "10.9.0.0/16", 1, 5, 5, 7, 8)
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			// Restore the intact image for the next case.
			if err := os.WriteFile(seg, whole, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTornHeaderRestarts(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("ME"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lifecycle(t, l, "10.0.0.0/8", 1, 0, 0, 1, 2)
	if got := mustQuery(t, l, Query{Class: -1}); len(got) != 1 {
		t.Fatalf("got %+v", got)
	}
}

func TestForeignFileRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("NOPE not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want bad-magic error, got %v", err)
	}
}

func TestFutureVersionRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), append([]byte(magic), 2), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, errVersion) {
		t.Fatalf("want version error, got %v", err)
	}
}

func TestOpenRemovesStrayTemps(t *testing.T) {
	dir := t.TempDir()
	stray := filepath.Join(dir, ".tmp-mepl-12345")
	if err := os.WriteFile(stray, []byte("half a compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray temp survived Open: %v", err)
	}
}

func TestLifecycleErrors(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Invalid episodes are rejected without poisoning the log.
	if err := l.Append(ep("10.0.0.0/8", 1, 0, 0, true, 9)); err == nil {
		t.Fatal("single-origin episode accepted")
	}
	if err := l.Append(ep("10.0.0.0/8", 0, 0, 0, true, 1, 2)); err == nil {
		t.Fatal("seq-0 episode accepted")
	}
	if err := l.Append(ep("10.0.0.0/8", 1, 5, 4, true, 1, 2)); err == nil {
		t.Fatal("end-before-start episode accepted")
	}
	if err := l.Append(ep("10.0.0.0/8", 1, 0, 0, true, 1, 2)); err != nil {
		t.Fatalf("valid append after rejected ones: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(ep("10.0.0.0/8", 2, 0, 0, true, 1, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestAppendAllocs(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	e := ep("10.0.0.0/8", 1, 0, 3, true, 100, 200, 300)
	if err := l.Append(e); err != nil { // warm the scratch buffers
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		e.Seq++
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Append allocates %v times per record on the warm path", avg)
	}
	// A shard batch's worth in one call: the scratch grows once, then
	// holds the whole batch.
	batch := closedBatch(0, 64)
	if err := l.Append(batch...); err != nil {
		t.Fatal(err)
	}
	avg = testing.AllocsPerRun(100, func() {
		for i := range batch {
			batch[i].Seq += uint64(len(batch))
		}
		if err := l.Append(batch...); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Append of %d episodes allocates %v times on the warm path", len(batch), avg)
	}
}
