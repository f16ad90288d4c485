package collector

import (
	"bytes"
	"io"
	"testing"
	"time"

	"moas/internal/rib"
	"moas/internal/scenario"
)

// writeArchiveByTableDiff is the reference WriteUpdateArchive is held to:
// every observed day's complete table materialized and diffed against the
// previous day's.
func writeArchiveByTableDiff(w io.Writer, sc *scenario.Scenario) error {
	prev := rib.NewTableView()
	for _, day := range sc.ObservedDays {
		next := sc.TableViewAt(day)
		if err := WriteViewUpdates(w, prev, next, sc.DayStamp(day)); err != nil {
			return err
		}
		prev = next
	}
	return nil
}

// TestUpdateArchiveMatchesTableDiff: the incremental writer — first day
// from the table, every later day from the episodes that left and entered
// the active set — emits the bytes of the day-by-day full-table diff, on
// the quiet fixture, on the one with a storm's mass churn (prefixes
// changing hands between consecutive days) and on the served small scale.
func TestUpdateArchiveMatchesTableDiff(t *testing.T) {
	served, err := scenario.Build(scenario.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	for name, sc := range map[string]*scenario.Scenario{
		"small": smallScenario(t), "storm": stormScenario(t), "TestSpec": served,
	} {
		var want, got bytes.Buffer
		if err := writeArchiveByTableDiff(&want, sc); err != nil {
			t.Fatal(err)
		}
		if err := WriteUpdateArchive(&got, sc); err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 {
			t.Fatalf("%s: reference archive is empty", name)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: incremental archive (%d bytes) differs from the table-diff archive (%d bytes)",
				name, got.Len(), want.Len())
		}
	}
}

// countWriter counts bytes and drops them.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) { *c += countWriter(len(p)); return len(p), nil }

// TestFullScaleUpdateArchive writes the paper-scale archive (1279
// observed days): the size is the table-diff writer's, measured once
// when the writer became incremental (it needed 4 min 53 s), and the
// whole archive must come out in seconds — moasd -scenario full waits
// on it.
func TestFullScaleUpdateArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full-scale scenario")
	}
	sc, err := scenario.Build(scenario.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	var n countWriter
	start := time.Now()
	if err := WriteUpdateArchive(&n, sc); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	t.Logf("full-scale archive: %d bytes in %s", n, took)
	if took > 30*time.Second {
		t.Fatalf("full-scale archive took %s, want < 30s", took)
	}
	if n != 59692629 {
		t.Fatalf("full-scale archive is %d bytes, want 59692629", n)
	}
}
