package rislive

import (
	"io"
	"testing"
	"time"

	"moas/internal/bgp"
	"moas/internal/source"
)

// drain runs the client's Next loop until Close, counting delivered
// records, and reports the loop's exit so the test can safely inspect
// Next-goroutine state (the backoff) afterwards.
func drain(c *Client) (records chan uint64, done chan struct{}) {
	records = make(chan uint64, 64)
	done = make(chan struct{})
	go func() {
		defer close(done)
		var rec source.Record
		for {
			if err := c.Next(&rec); err != nil {
				if err != io.EOF {
					panic(err)
				}
				return
			}
			records <- rec.Seq
		}
	}()
	return records, done
}

// flap forces the client through n accept-then-drop cycles: every
// redial completes the websocket upgrade and is immediately severed, so
// the dial "succeeds" while the feed stays dead.
func flap(t *testing.T, f *Fake, n int) {
	t.Helper()
	target := f.Connects() + n
	f.KillOnConnect.Store(true)
	f.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for f.Connects() < target {
		if time.Now().After(deadline) {
			t.Fatalf("only %d connects, want %d", f.Connects(), target)
		}
		time.Sleep(time.Millisecond)
	}
	f.KillOnConnect.Store(false)
}

// A server that accepts and immediately drops must not reset the
// reconnect backoff on each "successful" dial — that regression turns
// transport flap into a hot reconnect loop. The schedule may only be
// forgiven after a sustained healthy read window.
func TestBackoffSurvivesAcceptThenDrop(t *testing.T) {
	f, c := newPair(t, Config{
		Interner:     new(bgp.AttrsInterner),
		Backoff:      source.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
		HealthyAfter: time.Hour, // never healthy within this test
	})
	records, done := drain(c)

	flap(t, f, 5)
	if err := f.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Delivery still works after the flap storm.
	f.Send(Msg{Timestamp: 86400, Peer: "10.0.0.1", PeerASN: 65001, Path: []any{uint32(65001)},
		Announcements: []Announcement{{NextHop: "10.0.0.1", Prefixes: []string{"192.0.2.0/24"}}}})
	select {
	case <-records:
	case <-time.After(5 * time.Second):
		t.Fatal("no record delivered after reattach")
	}

	c.Close()
	<-done // happens-before: the backoff is Next-goroutine state
	if got := c.backoff.Fails(); got == 0 {
		t.Fatal("backoff reset despite accept-then-drop flaps; want accumulated failures")
	}
}

// The flip side: once the connection delivers for HealthyAfter, the
// schedule resets, so the next real outage starts from the base delay.
func TestBackoffResetsAfterHealthyWindow(t *testing.T) {
	f, c := newPair(t, Config{
		Interner:     new(bgp.AttrsInterner),
		Backoff:      source.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
		HealthyAfter: 50 * time.Millisecond,
	})
	records, done := drain(c)

	flap(t, f, 3)
	if err := f.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	msg := Msg{Timestamp: 86400, Peer: "10.0.0.1", PeerASN: 65001, Path: []any{uint32(65001)},
		Announcements: []Announcement{{NextHop: "10.0.0.1", Prefixes: []string{"192.0.2.0/24"}}}}
	// Outlive the healthy window, then deliver: the read lands with the
	// connection past HealthyAfter and forgives the schedule.
	time.Sleep(100 * time.Millisecond)
	f.Send(msg)
	select {
	case <-records:
	case <-time.After(5 * time.Second):
		t.Fatal("no record delivered after reattach")
	}

	c.Close()
	<-done
	if got := c.backoff.Fails(); got != 0 {
		t.Fatalf("backoff.Fails() = %d after a healthy window, want 0", got)
	}
}
