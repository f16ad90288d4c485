package bench

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the contract file at the repository root.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json is written by hand to the driver's contract; the
// catalog is what the code prints. They must describe the same metrics.
func TestBenchmarkJSONAgreesWithCatalog(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(Workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, Workloads[i])
		}
	}
	var e2e, layer []Def
	for _, d := range Catalog {
		switch {
		case d.Driven():
			e2e = append(e2e, d)
		case d.Name != "failed_share":
			layer = append(layer, d)
		}
	}
	if len(doc.EndToEnd) != len(e2e) || len(doc.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the catalog %d and %d",
			len(doc.EndToEnd), len(doc.PerLayer), len(e2e), len(layer))
	}
	for i, m := range doc.EndToEnd {
		if d := e2e[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalog says %s %s %s %g", i, m, d.Name, d.Unit, d.Better, d.Bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range doc.PerLayer {
		if d := layer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalog says %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
	}
}

func TestREADMEGlossaryNamesEveryMetricAndWorkload(t *testing.T) {
	blob, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(blob)
	for _, d := range Catalog {
		if !strings.Contains(readme, "`"+d.Name+"`") {
			t.Errorf("README.md does not mention metric `%s`", d.Name)
		}
	}
	for _, w := range Workloads {
		if !strings.Contains(readme, "`"+w+"`") {
			t.Errorf("README.md does not mention workload `%s`", w)
		}
	}
}
