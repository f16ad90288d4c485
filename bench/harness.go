// Package bench is moasbench: an end-to-end and per-layer benchmark of
// the served MOAS pipeline. It boots the real serve stack in-process
// behind a loopback listener, drives it the way a user of moasd does
// (HTTP creates, starts and queries, an SSE subscriber, scripted BGP
// sessions), checks every result against the generator's ground truth,
// and times the layers from outside through their public functions.
// README.md is the glossary and the guide to reading its output.
package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"moas/internal/serve"
)

// Options selects and sizes one run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is the time budget of a workload's timed phase: replay
	// reps stop once it is spent (never below Scale.MinReps), and the
	// live open loop lasts exactly this long.
	Seconds int
	// Trace adds the per-layer measurements after the end-to-end phases.
	Trace bool
	Scale Scale
	// Root is the directory every temp file lives under; the caller
	// removes it.
	Root string
	// TraceDir receives trace-<workload>.json on a traced run.
	TraceDir string
	// Log receives progress lines, each stamped with the seconds since
	// the package was loaded (nil = discard).
	Log io.Writer
}

var loaded = time.Now()

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, "[%6.1fs] "+format+"\n", append([]any{time.Since(loaded).Seconds()}, args...)...)
	}
}

// stack is one booted daemon: a registry behind serve's HTTP handler on
// a loopback listener, as cmd/moasd wires it.
type stack struct {
	reg    *serve.Registry
	srv    *http.Server
	base   string // http://127.0.0.1:port
	client *http.Client
	served chan struct{} // closed when Serve returns
}

// boot starts a daemon whose checkpoints and episode logs live under
// dir. The auto-checkpoint interval is an hour, so the only checkpoints
// taken are the ones a workload asks for.
func boot(dir string, durable bool) (*stack, error) {
	reg := serve.NewRegistry()
	reg.EpisodeDir = filepath.Join(dir, "episodes")
	if durable {
		reg.Durability = serve.Durability{Dir: filepath.Join(dir, "checkpoints"), Interval: time.Hour}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &stack{
		reg:    reg,
		srv:    &http.Server{Handler: serve.NewHandler(reg)},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{},
		served: make(chan struct{}),
	}
	go func() {
		defer close(st.served)
		_ = st.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return st, nil
}

// close shuts the daemon down as moasd's signal handler does: stop the
// HTTP server, then the registry (which writes final checkpoints when
// durability is on).
func (st *stack) close() {
	st.client.CloseIdleConnections()
	_ = st.srv.Close()
	<-st.served
	st.reg.Close()
}

// drop deletes the scenario and stops the daemon. Unlike a graceful
// close, Delete writes no final checkpoint (and removes the scenario's
// files), which is both the cheap way to dispose of a multi-second
// checkpoint's worth of state and the reason crash images are copied
// beforehand.
func (st *stack) drop(id string) {
	st.reg.Delete(id)
	st.close()
}

// freeMemory collects what the previous rep held and returns it to the
// OS (FreeOSMemory forces the collection itself), so reps do not
// inherit each other's heap.
func freeMemory() { debug.FreeOSMemory() }

// heapInuseMB reports what is still in use after two forced
// collections: the second empties what the first only moved to the
// victim caches of sync.Pools (a 100 MB JSON buffer, after a readback).
func heapInuseMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// do issues one request and returns the status and body.
func (st *stack) do(method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, st.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	return resp.StatusCode, blob, err
}

// must issues a request that has to answer want; anything else is an
// error carrying the response body.
func (st *stack) must(method, path string, body any, want int) ([]byte, error) {
	code, blob, err := st.do(method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, code, want, bytes.TrimSpace(blob))
	}
	return blob, nil
}

// getJSON decodes a 200 response into v.
func (st *stack) getJSON(path string, v any) error {
	blob, err := st.must("GET", path, nil, http.StatusOK)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// scenarioStatus is the slice of GET /scenarios/{id} the harness reads.
type scenarioStatus struct {
	State           string `json:"state"`
	Error           string `json:"error"`
	TotalDays       int    `json:"total_days"`
	ClosedDays      int    `json:"closed_days"`
	EventsPublished uint64 `json:"events_published"`
}

// statsDoc is the slice of GET /scenarios/{id}/stats the harness reads.
type statsDoc struct {
	Messages        uint64 `json:"messages"`
	Ops             uint64 `json:"ops"`
	ActiveConflicts int    `json:"active_conflicts"`
	TotalConflicts  int    `json:"total_conflicts"`
}

// pollEvery is the status poll period: against replays that take
// seconds it bounds the timing error well under a percent.
const pollEvery = 5 * time.Millisecond

// poll GETs path into a T every pollEvery until ok accepts the answer
// and returns it with the time it was read; the deadline is an error
// that names what was being waited for.
func poll[T any](st *stack, path string, timeout time.Duration, what string, ok func(*T) bool) (time.Time, T, error) {
	deadline := time.Now().Add(timeout)
	for {
		var v T
		if err := st.getJSON(path, &v); err != nil {
			return time.Time{}, v, err
		}
		now := time.Now()
		if ok(&v) {
			return now, v, nil
		}
		if now.After(deadline) {
			return now, v, fmt.Errorf("GET %s: no %s after %s, last answer %+v", path, what, timeout, v)
		}
		time.Sleep(pollEvery)
	}
}

// waitFor polls the scenario's status until ok accepts it, returning
// when it did. A failed scenario or the deadline is an error.
func (st *stack) waitFor(id string, timeout time.Duration, what string, ok func(*scenarioStatus) bool) (time.Time, error) {
	at, s, err := poll(st, "/scenarios/"+id, timeout, what, func(s *scenarioStatus) bool {
		return s.State == "failed" || ok(s)
	})
	if err == nil && s.State == "failed" {
		err = fmt.Errorf("scenario %s failed: %s", id, s.Error)
	}
	return at, err
}

// waitMessages polls /stats until the engine has applied n updates.
func (st *stack) waitMessages(id string, n int, timeout time.Duration) (time.Time, statsDoc, error) {
	return poll(st, "/scenarios/"+id+"/stats", timeout, fmt.Sprintf("%d applied updates", n), func(s *statsDoc) bool {
		return int(s.Messages) >= n
	})
}

func isDone(s *scenarioStatus) bool { return s.State == "done" }

// replayTimeout bounds any single wait; generous next to the seconds a
// full-size replay takes, small next to the driver's per-run limit.
const replayTimeout = 120 * time.Second

// runMRT creates an MRT-file scenario, starts it and waits for done,
// returning the wall time from POST start to the first poll that saw
// done.
func (st *stack) runMRT(id, path string) (time.Duration, error) {
	cfg := map[string]any{"id": id, "source": "mrt", "path": path}
	if _, err := st.must("POST", "/scenarios", cfg, http.StatusCreated); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if _, err := st.must("POST", "/scenarios/"+id+"/start", nil, http.StatusOK); err != nil {
		return 0, err
	}
	done, err := st.waitFor(id, replayTimeout, "done", isDone)
	return done.Sub(t0), err
}

// timeGET measures one GET in milliseconds; a non-200 is an error.
func (st *stack) timeGET(path string) (float64, error) {
	t0 := time.Now()
	_, err := st.must("GET", path, nil, http.StatusOK)
	return ms(time.Since(t0)), err
}

// sseEvent is one conflict lifecycle event as the subscriber saw it.
type sseEvent struct {
	at     time.Time
	kind   string // "conflict-start", "conflict-end", ...
	prefix string
}

// subscribe opens the scenario's SSE stream and returns once the
// subscription is live. Events are parsed on the reader goroutine and
// handed to fn; the returned stop function ends the stream and waits
// for the goroutine, reporting whether the hub dropped the subscriber.
func (st *stack) subscribe(id string, fn func(sseEvent)) (stop func() (dropped bool), err error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", st.base+"/scenarios/"+id+"/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	// The handler writes ": subscribed" once the hub has registered us.
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, ": subscribed") {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET events: no subscription banner (%q, %v)", line, err)
	}
	done := make(chan bool)
	go func() {
		dropped := false
		var kind string
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				break // cancelled, or the hub closed the stream
			}
			switch {
			case bytes.HasPrefix(line, []byte("event: ")):
				kind = string(bytes.TrimSpace(line[len("event: "):]))
				dropped = dropped || kind == "dropped"
			case bytes.HasPrefix(line, []byte("data: ")):
				fn(sseEvent{at: time.Now(), kind: kind, prefix: jsonString(line, "prefix")})
			}
		}
		done <- dropped
	}()
	return func() bool {
		cancel()
		dropped := <-done
		resp.Body.Close()
		return dropped
	}, nil
}

// jsonString extracts a string field from one flat JSON line without
// decoding the document: the subscriber shares two cores with the
// program it is timing.
func jsonString(line []byte, field string) string {
	key := []byte(`"` + field + `":"`)
	i := bytes.Index(line, key)
	if i < 0 {
		return ""
	}
	rest := line[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}
