package epilog

import (
	"errors"
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/vfs"
)

func degEpisode(seq uint64, day int) Episode {
	return Episode{
		Prefix:  bgp.MustParsePrefix("10.0.0.0/8"),
		Origins: []bgp.ASN{100, 200},
		Class:   core.Class(0),
		Seq:     seq,
		Start:   day,
		End:     day,
	}
}

// A write failure must degrade the log — buffering, not latching — and
// a heal must flush the pending queue and clear the degraded state.
func TestDegradeBufferHeal(t *testing.T) {
	fs := vfs.NewFaulty(nil)
	lg, err := Open(t.TempDir(), Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()

	if err := lg.Append(degEpisode(1, 0)); err != nil {
		t.Fatal(err)
	}
	// Fail every write until healed.
	fs.AddFault(vfs.Fault{Op: vfs.OpWrite, Err: vfs.ErrNoSpace})
	if err := lg.Append(degEpisode(2, 1)); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("append under fault: %v", err)
	}
	if h := lg.Health(); !h.Degraded || h.Error != vfs.ErrNoSpace.Error() {
		t.Fatalf("Health while degraded: %+v", h)
	}
	for seq := uint64(3); seq <= 6; seq++ {
		lg.Append(degEpisode(seq, int(seq)-1))
	}
	h := lg.Health()
	if !h.Degraded || h.Pending != 5 || h.Lost != 0 || h.Retries == 0 {
		t.Fatalf("Health while degraded: %+v", h)
	}
	// Reads stay truthful while degraded: pending episodes fold in.
	eps, err := lg.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 6 {
		t.Fatalf("query while degraded: %d episodes, want 6", len(eps))
	}

	fs.Heal()
	// Retry pacing skips some appends; keep appending until healed.
	seq := uint64(7)
	for lg.Health().Degraded && seq < 300 {
		if err := lg.Append(degEpisode(seq, 6)); err != nil && !errors.Is(err, vfs.ErrNoSpace) {
			t.Fatal(err)
		}
		seq++
	}
	h = lg.Health()
	if h.Degraded || h.Error != "" || h.Pending != 0 || h.Healed != 1 {
		t.Fatalf("Health after heal: %+v", h)
	}
	// Everything — including the originally failed episodes — is on
	// disk: a fresh Log over the same dir sees the full history.
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	lg2, err := Open(lg.dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	eps, err = lg2.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(eps)) != seq-1 {
		t.Fatalf("reopened query: %d episodes, want %d", len(eps), seq-1)
	}
}

// Torn bytes from a failed write must be truncated before the next
// write so the on-disk segment never carries garbage mid-file.
func TestDegradeTornWriteRepair(t *testing.T) {
	fs := vfs.NewFaulty(nil)
	lg, err := Open(t.TempDir(), Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if err := lg.Append(degEpisode(1, 0)); err != nil {
		t.Fatal(err)
	}
	fs.AddFault(vfs.Fault{Op: vfs.OpWrite, Count: 1, Torn: 3})
	if err := lg.Append(degEpisode(2, 1)); err == nil {
		t.Fatal("torn write did not error")
	}
	// Query across the torn tail still sees all the truth (whole
	// records from disk + pending).
	eps, err := lg.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 {
		t.Fatalf("query across torn tail: %d episodes, want 2", len(eps))
	}
	// Next append repairs (truncate) and flushes.
	if err := lg.Append(degEpisode(3, 2)); err != nil {
		t.Fatal(err)
	}
	if h := lg.Health(); h.Degraded || h.Healed != 1 {
		t.Fatalf("Health after repair: %+v", h)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	lg2, err := Open(lg.dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if lg2.Stats().Truncated != 0 {
		t.Fatalf("reopen truncated %d bytes: repair left garbage on disk", lg2.Stats().Truncated)
	}
	eps, err = lg2.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 3 {
		t.Fatalf("reopened query: %d episodes, want 3", len(eps))
	}
}

// The pending queue is bounded: overflow is dropped and counted as a
// permanent, reported loss — never unbounded memory.
func TestDegradePendingOverflow(t *testing.T) {
	fs := vfs.NewFaulty(nil)
	lg, err := Open(t.TempDir(), Options{FS: fs, MaxPending: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	fs.AddFault(vfs.Fault{Op: vfs.OpWrite, Err: vfs.ErrNoSpace})
	for seq := uint64(1); seq <= 10; seq++ {
		lg.Append(degEpisode(seq, 0))
	}
	h := lg.Health()
	if h.Pending != 3 || h.Lost != 7 {
		t.Fatalf("Health after overflow: %+v", h)
	}
}

// A rotation sync failure degrades without losing the already-written
// records, and the rotation completes once healed.
func TestDegradeRotateSyncFailure(t *testing.T) {
	fs := vfs.NewFaulty(nil)
	lg, err := Open(t.TempDir(), Options{FS: fs, RotateBytes: 64, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	fs.AddFault(vfs.Fault{Op: vfs.OpSync})
	var appended uint64
	for seq := uint64(1); seq <= 20; seq++ {
		lg.Append(degEpisode(seq, 0))
		appended = seq
		if lg.Health().Degraded {
			break
		}
	}
	if !lg.Health().Degraded {
		t.Fatal("sync failure did not degrade")
	}
	fs.Heal()
	for seq := appended + 1; lg.Health().Degraded && seq < 300; seq++ {
		lg.Append(degEpisode(seq, 0))
		appended = seq
	}
	if h := lg.Health(); h.Degraded {
		t.Fatalf("still degraded after heal: %+v", h)
	}
	if st := lg.Stats(); st.Segments < 2 {
		t.Fatalf("rotation never completed: %+v", st)
	}
	eps, err := lg.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(eps)) != appended {
		t.Fatalf("query: %d episodes, want %d", len(eps), appended)
	}
}
