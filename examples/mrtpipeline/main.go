// MRT pipeline: serialize one day of the synthetic Route Views table to a
// genuine MRT TABLE_DUMP file, parse it back, and run detection over the
// parsed view — the full archive-to-analysis path the paper's tooling
// followed over the NLANR/PCH collections.
package main

import (
	"fmt"
	"log"
	"os"

	"moas/internal/collector"
	"moas/internal/core"
	"moas/internal/scenario"
)

func main() {
	spec := scenario.TestSpec()
	sc, err := scenario.Build(spec)
	if err != nil {
		log.Fatal(err)
	}
	day := sc.ObservedDays[0]

	f, err := os.CreateTemp("", "rib.*.mrt")
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(f.Name())

	if err := collector.WriteDay(f, sc, day); err != nil {
		log.Fatal(err)
	}
	info, _ := f.Stat()
	fmt.Printf("wrote %s: %d bytes of MRT TABLE_DUMP for %s\n",
		f.Name(), info.Size(), sc.DayDate(day).Format("2006-01-02"))

	if _, err := f.Seek(0, 0); err != nil {
		log.Fatal(err)
	}
	view, _, err := collector.ReadDay(f)
	if err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("parsed back %d prefixes\n", view.Len())

	det := core.NewDetector()
	obs := det.ObserveView(day, view)
	fmt.Printf("detected %d MOAS conflicts (%d AS_SET routes excluded per §III)\n",
		obs.Count(), obs.ExcludedASSet)
	for _, c := range obs.Conflicts[:min(5, len(obs.Conflicts))] {
		fmt.Printf("  %-18s origins=%v class=%s\n", c.Prefix, c.Origins, c.Class)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
