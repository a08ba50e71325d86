package scenario

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/replaynet"
)

// releaseClock records the wall time each event leaves the stage below it.
type releaseClock struct {
	EventSource
	at []time.Time
}

func (r *releaseClock) Next() (Event, bool) {
	e, ok := r.EventSource.Next()
	if ok {
		r.at = append(r.at, time.Now())
	}
	return e, ok
}

// TestPacedOpenLoopFramesOnTime pins the open-loop driver's flush
// contract under a paced source: every EVENT frame reaches the server
// within 20ms of its pacer release, even when the next release is seconds
// of trace time (half a wall second) away. A driver that only flushes when
// the next event arrives delivers each frame one gap late.
func TestPacedOpenLoopFramesOnTime(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	arrivals := make(chan []time.Time, 1)
	go func() {
		var got []time.Time
		defer func() { arrivals <- got }()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		for {
			var hdr [5]byte
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return
			}
			if _, err := io.CopyN(io.Discard, br, int64(binary.BigEndian.Uint32(hdr[1:]))); err != nil {
				return
			}
			switch hdr[0] {
			case 'E':
				got = append(got, time.Now())
			case 'S': // answer the final STATS request with an empty REPORT
				c.Write([]byte{'R', 0, 0, 0, 2, '{', '}'})
			case 'B':
				return
			}
		}
	}()

	clock := &releaseClock{EventSource: NewPacer(context.Background(), evenlySpaced(4, 5), 10)}
	if _, err := ReplayTCP(ln.Addr().String(), clock, replaynet.ReplayOpts{}); err != nil {
		t.Fatal(err)
	}
	got := <-arrivals
	if len(got) != len(clock.at) {
		t.Fatalf("server saw %d frames, pacer released %d", len(got), len(clock.at))
	}
	for i := range got {
		if late := got[i].Sub(clock.at[i]); late > 20*time.Millisecond {
			t.Errorf("frame %d arrived %v after its pacer release (want ≤ 20ms)", i, late)
		}
	}
}

// TestPacedClosedLoopLatency pins the closed-loop driver's liveness under
// a paced source: flash-crowd at compression 900 against a fresh
// in-process server must keep per-transaction latency at loopback scale
// and deliver every event exactly once. A driver that stops flushing and
// folding ACKs while its source sleeps reads seconds here.
func TestPacedClosedLoopLatency(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{UEs: 1, Parallelism: 1}
	st, err := spec.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Drain(st)
	st.Close()
	if err != nil {
		t.Fatal(err)
	}

	srv, err := replaynet.ListenAndServe("127.0.0.1:0", events.Gen4G)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st, err = spec.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cst, err := ReplayClosed(srv.Addr().String(), NewPacer(context.Background(), st, 900), replaynet.ClosedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(sum.Events); cst.Sent != want || cst.Acked != want {
		t.Fatalf("sent %d, acked %d, want %d each", cst.Sent, cst.Acked, want)
	}
	if cst.P99Latency >= 10*time.Millisecond {
		t.Fatalf("paced closed-loop p99 transaction latency %v, want < 10ms (mean %v)", cst.P99Latency, cst.MeanLatency)
	}
}
