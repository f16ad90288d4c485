package bench

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"moas/internal/bgp"
	"moas/internal/source/bgpd"
)

const (
	liveID = "live"
	// eventSLO is the latency limit event_slo_share counts against.
	eventSLO = 50 * time.Millisecond
	// voidLateness: a generator later than this measured itself.
	voidLateness = 5 * time.Millisecond
	// voidShare is the share of expected events that may be void before
	// the whole run is: event_slo_share's bound, beyond which the share
	// could no longer be resolved to it.
	voidShare = 0.02
	// queryPeriod spaces the open-loop queries: 20/s per endpoint.
	queryPeriod = 50 * time.Millisecond
	// transferChunk is the write size of the back-pressured table
	// transfer; TCP flow control paces it to what the speaker drains.
	transferChunk = 64 << 10
)

// openLoopMetrics are the open loop's latency readings: what a void run
// withholds.
var openLoopMetrics = []string{
	"event_latency_p50_ms", "event_slo_share", "query_conflicts_p50_ms",
	"serve.event_latency_p99_ms", "serve.event_latency_max_ms", "serve.query_prefix_p50_ms",
}

// freePort asks the kernel for a free loopback port and releases it for
// the scenario's BGP speaker to bind.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// dialPeers opens the scripted sessions, retrying while the speaker
// (which binds after POST start) is not listening yet. Hold time 0
// turns keepalives off: the script sends nothing but UPDATEs.
func dialPeers(addr string) ([liveSessions]*bgpd.ScriptedPeer, error) {
	var peers [liveSessions]*bgpd.ScriptedPeer
	deadline := time.Now().Add(5 * time.Second)
	for s := range peers {
		for {
			p, err := bgpd.DialScripted(addr, bgp.ASN(livePeerAS+s), 0)
			if err == nil {
				peers[s] = p
				break
			}
			if time.Now().After(deadline) {
				for _, q := range peers[:s] {
					q.Close()
				}
				return peers, fmt.Errorf("dial bgp speaker %s: %w", addr, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return peers, nil
}

// runLive is live-serve: a BGP-fed scenario takes a back-pressured table
// transfer, then an open loop at a fixed update rate beside open-loop
// queries, with one SSE subscriber timing conflict events from the
// moment their cause was due on the wire.
func runLive(o *Options, r *Result, t *tally) (*layerInput, error) {
	sc := o.Scale
	ticks := o.Seconds * int(time.Second/liveTick)
	feed, err := setUp(o, r, func(string) (*liveFeed, error) {
		return newLiveFeed(o.Seed, sc.LiveTable, sc.LiveRate, sc.LiveHoldMS, ticks), nil
	})
	if err != nil {
		return nil, err
	}
	// Only the per-layer composition reads the feed as a file: the table
	// transfer as MRT records, so it has the same bytes to walk here as
	// on the replay workloads.
	var transfer *archive
	if o.Trace {
		dir, err := os.MkdirTemp(o.Root, "transfer-")
		if err != nil {
			return nil, err
		}
		if transfer, err = feed.writeArchive(filepath.Join(dir, "transfer.mrt")); err != nil {
			return nil, err
		}
	}
	o.logf("%s: %d-prefix transfer, %d ticks of %d updates, %d conflicts",
		o.Workload, feed.Table, ticks, feed.PerTick, len(feed.Truth))

	freeMemory()
	dir, err := os.MkdirTemp(o.Root, "live-")
	if err != nil {
		return nil, err
	}
	st, err := boot(dir, false)
	if err != nil {
		return nil, err
	}
	defer st.close()
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	// The subscriber buffer is a user-set knob; at ~10k events/s the
	// default 1024 is a tenth of a second of slack.
	cfg := map[string]any{"id": liveID, "source": "bgp", "listen": addr, "event_buffer": 1 << 16}
	if _, err := st.must("POST", "/scenarios", cfg, http.StatusCreated); err != nil {
		return nil, err
	}
	if _, err := st.must("POST", "/scenarios/"+liveID+"/start", nil, http.StatusOK); err != nil {
		return nil, err
	}
	peers, err := dialPeers(addr)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, p := range peers {
			p.Close()
		}
	}()

	// Receipt times per conflict prefix, written by the subscriber
	// goroutine and read after it has stopped.
	startAt := make([]time.Time, len(feed.Truth))
	endAt := make([]time.Time, len(feed.Truth))
	var received int
	stop, err := st.subscribe(liveID, func(ev sseEvent) {
		p, err := bgp.ParsePrefix(ev.prefix)
		if err != nil {
			return
		}
		i, ok := liveIndex(p, len(feed.Truth))
		if !ok {
			return
		}
		switch ev.kind {
		case "conflict-start":
			startAt[i] = ev.at
			received++
		case "conflict-end":
			endAt[i] = ev.at
			received++
		}
	})
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			stop()
		}
	}()

	// (a) Table transfer, back-pressured: each session writes its share
	// as fast as TCP accepts it.
	var wg sync.WaitGroup
	sendErr := make([]error, liveSessions)
	t0 := time.Now()
	for s, p := range peers {
		wg.Add(1)
		go func(s int, p *bgpd.ScriptedPeer) {
			defer wg.Done()
			for b := feed.Transfer[s]; len(b) > 0 && sendErr[s] == nil; {
				n := min(len(b), transferChunk)
				sendErr[s] = p.SendRaw(b[:n])
				b = b[n:]
			}
		}(s, p)
	}
	wg.Wait()
	for _, err := range sendErr {
		if err != nil {
			return nil, fmt.Errorf("table transfer: %w", err)
		}
	}
	applied, stats, err := st.waitMessages(liveID, feed.Table, replayTimeout)
	if err != nil {
		return nil, err
	}
	wall := applied.Sub(t0).Seconds()
	r.set("ingest_ops_per_s", float64(stats.Ops)/wall)
	r.set("ingest_updates_per_s", float64(feed.Table)/wall)
	r.set("live_updates_per_s", float64(feed.Table)/wall)
	o.logf("  transfer: %d updates in %.2fs", feed.Table, wall)

	// (b) Open loop. One goroutine per session sends each tick's bytes
	// when the tick is due; two more issue the queries on their own
	// schedule. Everything is timed from due times.
	start := time.Now().Add(50 * time.Millisecond)
	var senders [liveSessions]*schedule
	for s, p := range peers {
		senders[s] = newSchedule(start, liveTick, ticks)
		wg.Add(1)
		go func(sched *schedule, s int, p *bgpd.ScriptedPeer) {
			defer wg.Done()
			for tick := range feed.Ticks {
				sched.wait(tick)
				sched.ready(tick, time.Now())
				if b := feed.Ticks[tick][s]; len(b) > 0 && sendErr[s] == nil {
					sendErr[s] = p.SendRaw(b)
				}
				sched.wrote(time.Now())
			}
		}(senders[s], s, p)
	}
	conflictsPerTick := feed.PerTick / liveConflicts
	queries := ticks * int(liveTick) / int(queryPeriod)
	queryMetrics := [2]string{"query_conflicts_p50_ms", "serve.query_prefix_p50_ms"}
	var queryMS [2][]float64 // latencies from due time of the on-time queries
	var queryErrs [2]int
	for q := range queryMetrics {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			sched := newSchedule(start, queryPeriod, queries)
			for i := 0; i < queries; i++ {
				sched.wait(i)
				path := "/scenarios/" + liveID + "/conflicts?limit=100"
				if q == 1 {
					// A prefix whose conflict opened when this query was due.
					at := min(i*int(queryPeriod/liveTick)*conflictsPerTick, len(feed.Truth)-1)
					path = "/scenarios/" + liveID + "/prefix/" + feed.Truth[at].Prefix.String()
				}
				sched.ready(i, time.Now())
				_, err := st.must("GET", path, nil, http.StatusOK)
				done := time.Now()
				sched.wrote(done)
				switch {
				case err != nil:
					queryErrs[q]++
				case sched.late[i] <= voidLateness:
					queryMS[q] = append(queryMS[q], sched.latencyMS(i, done))
				}
			}
		}(q)
	}
	wg.Wait()
	for _, err := range sendErr {
		if err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
	}
	// Let the tail drain: every update applied, then a moment for the
	// last events to cross the hub and the socket.
	if _, _, err := st.waitMessages(liveID, feed.Updates(), 10*time.Second); err != nil {
		return nil, err
	}
	expected := len(feed.StartTick)
	for _, tick := range feed.EndTick {
		if tick >= 0 {
			expected++
		}
	}
	// A timeout here is not an error: events that never arrive are
	// counted as failed below.
	_, _ = st.waitFor(liveID, 2*time.Second, "published events", func(s *scenarioStatus) bool { return int(s.EventsPublished) >= expected })
	time.Sleep(20 * time.Millisecond)
	dropped := stop()
	stopped = true

	// Event latency, from the tick the cause was due in. An event whose
	// cause went out more than voidLateness late is void, not slow: the
	// generator measured itself, so the event counts neither as expected
	// nor as received in any latency metric (the gate still wants it
	// delivered).
	evSched := newSchedule(start, liveTick, 0)
	var events []timedSample
	within, missing, voided := 0, 0, 0
	collect := func(ticksOf []int, at []time.Time) {
		for i, tick := range ticksOf {
			switch {
			case tick < 0:
			case at[i].IsZero():
				missing++
			case senders[(i+1)%liveSessions].late[tick] > voidLateness: // the rival's session sent it
				voided++
			default:
				lat := evSched.latencyMS(tick, at[i])
				events = append(events, timedSample{evSched.offset(tick), lat})
				if lat <= ms(eventSLO) {
					within++
				}
			}
		}
	}
	collect(feed.StartTick, startAt)
	collect(feed.EndTick, endAt)
	t.add(expected)
	t.fail(missing, "%d of %d expected conflict events never reached the subscriber (%d received)", missing, expected, received)
	t.check(!dropped, "the hub dropped the SSE subscriber")
	var late time.Duration
	for _, sched := range senders {
		late = max(late, slices.Max(sched.late))
	}
	r.set("serve.gen_late_max_ms", ms(late))
	if expected > 0 {
		r.set("serve.gen_void_share", float64(voided)/float64(expected))
	}
	// With more void events than the SLO share's bound can absorb, the
	// run itself is void and reports no open-loop latency at all.
	r.Void = float64(voided) > voidShare*float64(expected)
	o.logf("  open loop: %d/%d events, %d void, generator at most %v late", expected-missing, expected, voided, late)
	if len(events) > 0 {
		all := make([]float64, len(events))
		for i, e := range events {
			all[i] = e.ms
		}
		r.set("event_slo_share", float64(within)/float64(expected-voided))
		r.setSamples("event_latency_p50_ms", medianOfWindowMedians(events, time.Second), windowMedians(events, time.Second))
		s := sorted(all)
		if p := tailPercentile(len(s)); p > 0 {
			r.setSamples("serve.event_latency_p99_ms", quantileSorted(s, p/100), all)
		}
		r.setSamples("serve.event_latency_max_ms", s[len(s)-1], all)
	}
	for q, name := range queryMetrics {
		t.add(queries)
		t.fail(queryErrs[q], "%d of %d open-loop %s requests failed", queryErrs[q], queries, name)
		if len(queryMS[q]) > 0 {
			r.setLatency(name, queryMS[q])
		}
	}
	if r.Void {
		r.drop(openLoopMetrics)
	}

	// Correctness of the ingest itself.
	if _, err := st.checkCounts(liveID, feed.Updates(), feed.Truth, false, t); err != nil {
		return nil, err
	}
	if err := st.checkEpisodes(liveID, feed.Truth, false, t); err != nil {
		return nil, err
	}
	feed.Transfer, feed.Ticks = [liveSessions][]byte{}, nil // the generator's bytes are not the program's heap
	resident := heapInuseMB()
	servedCounters(st, liveID, r)
	st.close()
	reportHeap(r, []float64{resident})
	return &layerInput{archive: transfer, truth: feed.Truth}, nil
}
