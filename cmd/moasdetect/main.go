// Command moasdetect runs MOAS conflict detection over a directory of
// daily MRT TABLE_DUMP archives (as produced by moasgen, or any archive in
// the NLANR/PCH layout) — the paper's §III methodology as a tool.
//
// Usage:
//
//	moasdetect -in DIR [-csv FILE]
//
// Files are processed in name order; each file is one observation day,
// a TABLE_DUMP or TABLE_DUMP_V2 dump of either address family, plain or
// gzipped (detected by content, not by the .gz suffix). Records it takes
// no routes from (BGP4MP, ...) are counted per file, and each non-zero
// count is printed with its reason. The summary goes to stdout; -csv
// additionally writes one line per conflict: prefix, first day, last
// day, days observed, origins, class.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"moas/internal/collector"
	"moas/internal/core"
	"moas/internal/mrt"
)

func main() {
	in := flag.String("in", "", "directory of MRT table dumps (required)")
	csvPath := flag.String("csv", "", "write per-conflict CSV to this file")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "moasdetect: -in is required")
		os.Exit(2)
	}
	entries, err := os.ReadDir(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "moasdetect: %v\n", err)
		os.Exit(1)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && (strings.HasSuffix(e.Name(), ".mrt") || strings.HasSuffix(e.Name(), ".mrt.gz")) {
			files = append(files, filepath.Join(*in, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		fmt.Fprintf(os.Stderr, "moasdetect: no .mrt files in %s\n", *in)
		os.Exit(1)
	}

	det := core.NewDetector()
	for day, name := range files {
		f, err := mrt.Open(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "moasdetect: %v\n", err)
			os.Exit(1)
		}
		view, skipped, err := collector.ReadDay(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "moasdetect: %s: %v\n", name, err)
			os.Exit(1)
		}
		obs := det.ObserveView(day, view)
		fmt.Printf("%s: %d prefixes, %d MOAS conflicts, %d AS_SET routes excluded\n",
			filepath.Base(name), obs.TotalPrefixes, obs.Count(), obs.ExcludedASSet)
		for _, reason := range slices.Sorted(maps.Keys(skipped)) {
			fmt.Printf("%s: skipped %d records: %s\n", filepath.Base(name), skipped[reason], reason)
		}
	}

	reg := det.Registry()
	fmt.Printf("total distinct conflicts: %d over %d days\n", reg.Len(), len(files))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "moasdetect: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		fmt.Fprintln(f, "prefix,first_day,last_day,days_observed,origins,dominant_class")
		for _, c := range reg.Conflicts() {
			origins := make([]string, len(c.OriginsEver))
			for i, o := range c.OriginsEver {
				origins[i] = o.String()
			}
			fmt.Fprintf(f, "%s,%d,%d,%d,%s,%s\n",
				c.Prefix, c.FirstDay, c.LastDay, c.DaysObserved,
				strings.Join(origins, " "), c.DominantClass())
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
}
