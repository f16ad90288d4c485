package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestScenarioLimit: Limits.MaxScenarios turns further creates into 429
// with a JSON error body; deleting a scenario frees the slot.
func TestScenarioLimit(t *testing.T) {
	reg := NewRegistry()
	reg.Limits = Limits{MaxScenarios: 2}
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	client := srv.Client()

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, client, srv.URL+"/scenarios",
			map[string]any{"id": fmt.Sprintf("s%d", i), "source": "synth", "scale": "small"})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create s%d: %d %v", i, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "s2", "source": "synth", "scale": "small"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create beyond limit: %d, want 429", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("429 content type %q", ct)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "limit") {
		t.Fatalf("429 body = %v, want an error mentioning the limit", body)
	}

	req, _ := http.NewRequest("DELETE", srv.URL+"/scenarios/s0", nil)
	delResp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if resp, body := postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "s2", "source": "synth", "scale": "small"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create after delete: %d %v", resp.StatusCode, body)
	}
}

// sseConnect opens an event stream, asserts the handshake, and returns a
// line reader (the response is closed via t.Cleanup).
func sseConnect(t *testing.T, client *http.Client, url, lastEventID string) (*http.Response, *bufio.Reader) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp, bufio.NewReader(resp.Body)
}

// TestSubscriberLimitHTTP: the per-scenario SSE cap turns the second
// concurrent subscriber into 429 with a JSON error body.
func TestSubscriberLimitHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.Limits = Limits{MaxSubscribers: 1}
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	client := srv.Client()

	if resp, body := postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "only", "source": "synth", "scale": "small"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	resp, br := sseConnect(t, client, srv.URL+"/scenarios/only/events", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first subscriber: %d", resp.StatusCode)
	}
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, ": subscribed") {
		t.Fatalf("SSE handshake line %q, err %v", line, err)
	}

	second, _ := sseConnect(t, client, srv.URL+"/scenarios/only/events", "")
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second subscriber: %d, want 429", second.StatusCode)
	}
	var errBody struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(second.Body).Decode(&errBody); err != nil || errBody.Error == "" {
		t.Fatalf("429 body not a JSON error: %v %+v", err, errBody)
	}
	reg.Delete("only")
}

// readEventIDs reads SSE blocks until n "id:" lines were seen (or the
// stream errors), returning the ids in order and any gap event's missed
// count.
func readEventIDs(t *testing.T, br *bufio.Reader, n int) (ids []uint64, missed uint64) {
	t.Helper()
	for len(ids) < n {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended after %d/%d ids: %v", len(ids), n, err)
		}
		switch {
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(strings.TrimSpace(strings.TrimPrefix(line, "id: ")), 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q", line)
			}
			ids = append(ids, id)
		case strings.HasPrefix(line, "event: gap"):
			data, err := br.ReadString('\n')
			if err != nil || !strings.HasPrefix(data, "data: ") {
				t.Fatalf("gap data line %q, err %v", data, err)
			}
			var g struct {
				Missed uint64 `json:"missed"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(data, "data: ")), &g); err != nil {
				t.Fatal(err)
			}
			missed = g.Missed
		}
	}
	return ids, missed
}

// TestSSEResume: a client that reconnects with Last-Event-ID picks up
// exactly where it left off from the scenario's ring buffer; one that
// fell past the ring gets a gap event with the lost count, then the
// ring's remainder.
func TestSSEResume(t *testing.T) {
	reg := NewRegistry()
	reg.Limits = Limits{EventRing: 16}
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	client := srv.Client()

	// Run the replay to completion first: every event is published, the
	// last 16 sit in the ring, and clients connect afterwards — pure
	// resume, no live racing.
	resp, body := postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "ev", "source": "synth", "scale": "small", "shards": 2, "start": true})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	waitState(t, client, srv.URL+"/scenarios/ev", "done")

	var st struct {
		LastEventID    uint64 `json:"last_event_id"`
		ResumeBuffered int    `json:"resume_buffered"`
	}
	getJSON(t, client, srv.URL+"/scenarios/ev", &st)
	if st.LastEventID < 32 || st.ResumeBuffered != 16 {
		t.Fatalf("scenario published %d events, ring %d; need >= 32 and 16", st.LastEventID, st.ResumeBuffered)
	}

	// Client A saw everything up to lastID-4: it gets exactly the last 4.
	_, br := sseConnect(t, client, srv.URL+"/scenarios/ev/events", fmt.Sprint(st.LastEventID-4))
	ids, missed := readEventIDs(t, br, 4)
	if missed != 0 {
		t.Fatalf("in-ring resume reported %d missed", missed)
	}
	for i, id := range ids {
		if want := st.LastEventID - 3 + uint64(i); id != want {
			t.Fatalf("resumed id[%d] = %d, want %d", i, id, want)
		}
	}

	// Client B saw only event 1: the ring has recycled, so it gets a gap
	// report plus the 16 retained events.
	_, br = sseConnect(t, client, srv.URL+"/scenarios/ev/events", "1")
	ids, missed = readEventIDs(t, br, 16)
	if want := st.LastEventID - 1 - 16; missed != want {
		t.Fatalf("gap reported %d missed, want %d", missed, want)
	}
	if ids[0] != st.LastEventID-15 || ids[15] != st.LastEventID {
		t.Fatalf("ring replay ids %d..%d, want %d..%d", ids[0], ids[15], st.LastEventID-15, st.LastEventID)
	}

	// A malformed Last-Event-ID is a clean 400.
	badResp, _ := sseConnect(t, client, srv.URL+"/scenarios/ev/events", "not-a-number")
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID: %d, want 400", badResp.StatusCode)
	}
	reg.Delete("ev")
}

// TestEventTypesFilterValidation: ?types= names event types, and a name
// no event carries is a 400 naming the four types — it used to filter
// out every event, so a typo gave an empty stream forever.
func TestEventTypesFilterValidation(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(srv.Close) // after sseConnect's cleanups close the streams
	client := srv.Client()
	if resp, body := postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "ev", "source": "synth", "scale": "small"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	for _, types := range []string{"conflict-strat", "conflict-start,bogus", "conflict-start,"} {
		resp, br := sseConnect(t, client, srv.URL+"/scenarios/ev/events?types="+types, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("types=%s: %d, want 400", types, resp.StatusCode)
		}
		var body struct{ Error string }
		if err := json.NewDecoder(br).Decode(&body); err != nil {
			t.Fatalf("types=%s: body not JSON: %v", types, err)
		}
		for _, name := range []string{"conflict-start", "origin-change", "class-change", "conflict-end"} {
			if !strings.Contains(body.Error, name) {
				t.Fatalf("types=%s: error %q does not name %s", types, body.Error, name)
			}
		}
	}
	resp, br := sseConnect(t, client, srv.URL+"/scenarios/ev/events?types=conflict-start,%20class-change", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid filter: %d, want 200", resp.StatusCode)
	}
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, ": subscribed") {
		t.Fatalf("valid filter: first line %q, %v", line, err)
	}
	resp.Body.Close()
	reg.Delete("ev")
}
