package replaynet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/trace"
)

// ReplayOpts tunes a driver run. The driver sends events as the source
// releases them; trace-time pacing belongs to the source (wrap it in a
// scenario.Pacer).
type ReplayOpts struct {
	// Deadline bounds the total wall-clock replay duration; 0 means none.
	Deadline time.Duration
}

// ReplayEvent is one wire-bound control-plane event: a virtual timestamp,
// the UE it belongs to (any stable 64-bit key) and the event type.
type ReplayEvent struct {
	Time float64
	UE   uint64
	Type events.Type
}

// EventSource feeds ReplayStream a time-ordered event sequence, one event
// per call; ok=false ends the replay. Sources may be arbitrarily long — the
// client never buffers them.
type EventSource interface {
	NextReplayEvent() (ev ReplayEvent, ok bool, err error)
}

// Replay connects to a replaynet server at addr, writes the dataset's merged
// event sequence onto the wire and returns the server's final stats. Events
// across all streams are interleaved in timestamp order, exactly the load a
// real core would see from the UE population.
func Replay(addr string, d *trace.Dataset, opts ReplayOpts) (Stats, error) {
	var all []ReplayEvent
	for ue := range d.Streams {
		for _, e := range d.Streams[ue].Events {
			all = append(all, ReplayEvent{Time: e.Time, UE: uint64(ue), Type: e.Type})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	i := 0
	next := func() (ReplayEvent, bool, error) {
		if i >= len(all) {
			return ReplayEvent{}, false, nil
		}
		ev := all[i]
		i++
		return ev, true, nil
	}
	return ReplayStream(addr, d.Generation, sourceFunc(next), opts)
}

// sourceFunc adapts a closure to an EventSource.
type sourceFunc func() (ReplayEvent, bool, error)

func (f sourceFunc) NextReplayEvent() (ReplayEvent, bool, error) { return f() }

// ReplayStream connects to a replaynet server at addr and writes a
// time-ordered event sequence pulled incrementally from src onto the wire —
// the streaming counterpart of Replay that the scenario engine uses to
// drive a server with million-UE workloads in bounded memory. 64-bit UE
// keys are mapped to the protocol's 32-bit UE indices in first-seen order.
func ReplayStream(addr string, gen events.Generation, src EventSource, opts ReplayOpts) (Stats, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return Stats{}, fmt.Errorf("replaynet: dial %s: %w", addr, err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)

	if err := writeFrame(bw, frameHello, []byte{byte(gen)}); err != nil {
		return Stats{}, err
	}

	pump := startPump(src)
	defer pump.stop()
	start := time.Now()
	ueIdx := make(map[uint64]uint32)
	for {
		var it pulled
		select {
		case it = <-pump.ch:
		default:
			// The source is blocked (a pacer wait, a generation stall): what
			// is buffered goes onto the wire now, not a wait later.
			if err := bw.Flush(); err != nil {
				return Stats{}, fmt.Errorf("replaynet: flushing: %w", err)
			}
			it = <-pump.ch
		}
		if it.err != nil {
			return Stats{}, fmt.Errorf("replaynet: event source: %w", it.err)
		}
		if !it.ok {
			break
		}
		if opts.Deadline > 0 && time.Since(start) > opts.Deadline {
			break
		}
		ev := it.ev
		idx, seen := ueIdx[ev.UE]
		if !seen {
			idx = uint32(len(ueIdx))
			ueIdx[ev.UE] = idx
		}
		if err := writeFrame(bw, frameEvent, eventPayload(idx, int64(ev.Time*1e6), byte(ev.Type))); err != nil {
			return Stats{}, err
		}
	}

	// Ask for the final stats.
	if err := writeFrame(bw, frameStats, nil); err != nil {
		return Stats{}, err
	}
	if err := bw.Flush(); err != nil {
		return Stats{}, fmt.Errorf("replaynet: flushing: %w", err)
	}
	ft, payload, err := readFrame(br)
	if err != nil {
		return Stats{}, fmt.Errorf("replaynet: reading report: %w", err)
	}
	if ft != frameReport {
		return Stats{}, fmt.Errorf("replaynet: expected REPORT frame, got %q", byte(ft))
	}
	var st Stats
	if err := json.Unmarshal(payload, &st); err != nil {
		return Stats{}, fmt.Errorf("replaynet: decoding report: %w", err)
	}
	if err := writeFrame(bw, frameBye, nil); err == nil {
		_ = bw.Flush()
	}
	return st, nil
}

// pumpDepth bounds how far a pump may run ahead of its driver. A source
// that is always ready (unpaced) then hands events over in runs of up to
// this many instead of one goroutine switch each; 64 frames are under
// 2 KiB, within one 4 KiB write buffer.
const pumpDepth = 64

// pulled is one source pull: an event, end of source (ok=false) or an error.
type pulled struct {
	ev  ReplayEvent
	ok  bool
	err error
}

// pump pulls an EventSource on its own goroutine, so a driver can tell "no
// event ready" from "event ready" without blocking. Both replay drivers go
// through one: while the source blocks (a wall-clock pacer, a generation
// stall) the driver flushes its write buffer and folds ACKs before it
// waits, instead of sitting on them until the next event.
type pump struct {
	ch   chan pulled
	quit chan struct{}
	done chan struct{}
}

// startPump starts pulling src. The pump ends after delivering end of
// source or an error, or at stop.
func startPump(src EventSource) *pump {
	p := &pump{ch: make(chan pulled, pumpDepth), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for {
			ev, ok, err := src.NextReplayEvent()
			select {
			case p.ch <- pulled{ev, ok, err}:
			case <-p.quit:
				return
			}
			if !ok || err != nil {
				return
			}
		}
	}()
	return p
}

// stop ends the pump and joins it, waiting out a pull in progress: once
// stop returns no goroutine touches the source, so the caller may close it.
func (p *pump) stop() {
	close(p.quit)
	<-p.done
}
