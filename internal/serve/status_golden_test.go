package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStatusDocumentGolden pins the scenario status document — the
// payload of the create, detail, list and transition endpoints — byte for
// byte: one scenario per source kind in state created, the list over all
// of them, and the synth one again after it ran to done (state text, a
// finite calendar, non-zero hub counters). Regenerate with
// MOAS_GEN_GOLDEN=1 only after a deliberate change to the document.
func TestStatusDocumentGolden(t *testing.T) {
	const golden = "testdata/status_golden.txt"
	want, readErr := os.ReadFile(golden)
	goldenPath, err := filepath.Abs(golden) // the test leaves this directory below
	if err != nil {
		t.Fatal(err)
	}
	// A relative MRT path keeps the document free of temp-dir names; a
	// created scenario only needs the file to exist.
	t.Chdir(t.TempDir())
	if err := os.WriteFile("updates.mrt", nil, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	client := srv.Client()

	var got bytes.Buffer
	record := func(method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		doc, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString("== " + method + " " + path + " " + body + "\n" + resp.Status + "\n")
		got.Write(doc)
	}
	record("POST", "/scenarios", `{"id":"s","source":"synth","scale":"small","shards":2,"days_per_sec":5000}`)
	record("POST", "/scenarios", `{"id":"m","source":"mrt","path":"updates.mrt","decode_workers":2}`)
	record("POST", "/scenarios", `{"id":"r","source":"rislive","url":"ws://127.0.0.1:1/feed","max_attrs":64}`)
	record("POST", "/scenarios", `{"id":"b","source":"bgp","listen":"127.0.0.1:0","history":8}`)
	for _, id := range []string{"s", "m", "r", "b"} {
		record("GET", "/scenarios/"+id, "")
	}
	record("GET", "/scenarios", "")
	// Not recorded: a running scenario's counters race the request.
	if resp, err := client.Post(srv.URL+"/scenarios/s/start", "", nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	waitState(t, client, srv.URL+"/scenarios/s", "done")
	record("GET", "/scenarios/s", "")
	record("POST", "/scenarios/s/pause", "")

	if os.Getenv("MOAS_GEN_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("status documents differ from %s:\n%s", golden, got.Bytes())
	}
}
