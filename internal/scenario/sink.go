package scenario

import (
	"bufio"
	"compress/gzip"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/mcn"
	"cptgpt/internal/replaynet"
	"cptgpt/internal/tracez"
)

// Summary aggregates a drained scenario stream in O(1) memory.
type Summary struct {
	// Events is the total emitted event count; ByType breaks it down.
	Events int
	ByType [events.NumTypes]int
	// FirstTime/LastTime bound the emitted timestamps.
	FirstTime float64
	LastTime  float64
	// PeakRate is the highest event rate (events/s) over any aligned
	// 60-second window; PeakWindowStart is that window's start.
	PeakRate        float64
	PeakWindowStart float64
}

// summaryWindow is the rate-metering window width for Summary.PeakRate.
const summaryWindow = 60.0

// Drain consumes the source to exhaustion, returning its summary — the
// "count" sink. It is also the cheapest way to force a full scenario run.
func Drain(st EventSource) (Summary, error) {
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	var sum Summary
	defer func() { sp.End(int64(sum.Events), "count") }()
	var winStart float64
	winCount := 0
	first := true
	flush := func() {
		if rate := float64(winCount) / summaryWindow; rate > sum.PeakRate {
			sum.PeakRate = rate
			sum.PeakWindowStart = winStart
		}
	}
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		if first {
			sum.FirstTime = e.Time
			winStart = float64(int(e.Time/summaryWindow)) * summaryWindow
			first = false
		}
		for e.Time >= winStart+summaryWindow {
			flush()
			winStart += summaryWindow
			winCount = 0
		}
		winCount++
		sum.Events++
		if e.Type.Valid() {
			sum.ByType[e.Type]++
		}
		sum.LastTime = e.Time
	}
	if !first {
		flush()
	}
	return sum, st.Err()
}

// eventLine is the JSONL encoding of one scenario event.
type eventLine struct {
	Time   float64 `json:"t"`
	UEID   string  `json:"ue_id"`
	Device string  `json:"device_type"`
	Type   string  `json:"event_type"`
}

// LineWriter encodes scenario events one at a time in the jsonl or csv
// interchange format, exposing the encoder's flush boundary: after Flush,
// every event passed to Write has fully reached the underlying writer.
// The file sinks are built on it, and the daemon binds its journal
// checkpoints to it (FileSink.Bind) to align durable sink byte cursors
// with event boundaries.
type LineWriter struct {
	ueid func(Event) string
	bw   *bufio.Writer // jsonl path
	enc  *json.Encoder
	cw   *csv.Writer // csv path (owns its own buffering)
	row  []string
	n    int
}

// NewLineWriter builds a per-event encoder for format "jsonl" or "csv",
// rendering UE identifiers through ueid. For CSV, header selects whether
// the column header is emitted first — a resumed sink already has one on
// disk; jsonl ignores it.
func NewLineWriter(w io.Writer, format string, ueid func(Event) string, header bool) (*LineWriter, error) {
	lw := &LineWriter{ueid: ueid}
	switch format {
	case "jsonl":
		lw.bw = bufio.NewWriter(w)
		lw.enc = json.NewEncoder(lw.bw)
	case "csv":
		lw.cw = csv.NewWriter(w)
		lw.row = make([]string, 4)
		if header {
			if err := lw.cw.Write([]string{"ue_id", "device_type", "timestamp", "event_type"}); err != nil {
				return nil, fmt.Errorf("scenario: writing CSV header: %w", err)
			}
		}
	default:
		return nil, fmt.Errorf("scenario: unknown line format %q (want jsonl or csv)", format)
	}
	return lw, nil
}

// Write encodes one event.
func (lw *LineWriter) Write(e Event) error {
	if lw.enc != nil {
		if err := lw.enc.Encode(eventLine{
			Time: e.Time, UEID: lw.ueid(e),
			Device: e.Device.String(), Type: e.Type.String(),
		}); err != nil {
			return fmt.Errorf("scenario: writing event %d: %w", lw.n, err)
		}
	} else {
		lw.row[0] = lw.ueid(e)
		lw.row[1] = e.Device.String()
		lw.row[2] = strconv.FormatFloat(e.Time, 'f', -1, 64)
		lw.row[3] = e.Type.String()
		if err := lw.cw.Write(lw.row); err != nil {
			return fmt.Errorf("scenario: writing CSV row %d: %w", lw.n, err)
		}
	}
	lw.n++
	return nil
}

// Flush pushes every written event through to the underlying writer.
func (lw *LineWriter) Flush() error {
	if lw.bw != nil {
		return lw.bw.Flush()
	}
	lw.cw.Flush()
	return lw.cw.Error()
}

// Count returns the number of events written.
func (lw *LineWriter) Count() int { return lw.n }

// WriteJSONL drains the stream to w as one JSON object per event (the
// event-interleaved counterpart of the per-stream trace format: scenario
// output arrives in time order across UEs, so per-UE grouping would require
// unbounded buffering). Returns the event count. The csv counterpart is
// RunSink with kind "csv".
func WriteJSONL(w io.Writer, st EventSource) (int, error) {
	lw, _ := NewLineWriter(w, "jsonl", st.UEID, true) // jsonl never errs
	err := drainLines(st, lw, "jsonl")
	return lw.n, err
}

// drainLines encodes every event of src through lw and flushes the
// encoder — also after an error, so a failed or budget-ended file is
// complete up to its last encoded event, never cut mid-line.
func drainLines(src EventSource, lw *LineWriter, format string) error {
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	defer func() { sp.End(int64(lw.n), format) }()
	var err error
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		if err = lw.Write(e); err != nil {
			break
		}
	}
	if err == nil {
		err = src.Err()
	}
	if ferr := lw.Flush(); err == nil {
		err = ferr
	}
	return err
}

// mcnAdapter presents an EventSource as an mcn.ArrivalSource.
type mcnAdapter struct{ st EventSource }

func (a mcnAdapter) NextArrival() (mcn.Arrival, bool, error) {
	e, ok := a.st.Next()
	if !ok {
		return mcn.Arrival{}, false, a.st.Err()
	}
	return mcn.Arrival{Time: e.Time, UE: e.UE, Type: e.Type}, true, nil
}

// RunMCN drains the source through the simulated mobile-core control-plane
// function — the scenario engine's flagship sink. Memory stays bounded by
// the MCN's per-UE state, never by the event count.
func RunMCN(st EventSource, cfg mcn.Config) (*mcn.Report, error) {
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	rep, err := mcn.RunStream(st.Generation(), mcnAdapter{st}, cfg)
	if rep != nil {
		sp.End(int64(rep.Events), "mcn")
	} else {
		sp.End(0, "mcn")
	}
	return rep, err
}

// replayAdapter presents an EventSource as a replaynet.EventSource.
type replayAdapter struct{ st EventSource }

func (a replayAdapter) NextReplayEvent() (replaynet.ReplayEvent, bool, error) {
	e, ok := a.st.Next()
	if !ok {
		return replaynet.ReplayEvent{}, false, a.st.Err()
	}
	return replaynet.ReplayEvent{Time: e.Time, UE: e.UE, Type: e.Type}, true, nil
}

// ReplayTCP drains the stream onto a replaynet server — the networked MCN
// load-test sink.
func ReplayTCP(addr string, st EventSource, opts replaynet.ReplayOpts) (replaynet.Stats, error) {
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	stats, err := replaynet.ReplayStream(addr, st.Generation(), replayAdapter{st}, opts)
	sp.End(int64(stats.Events), "replay")
	return stats, err
}

// ReplayClosed drains the stream onto a replaynet server in closed loop:
// every event is an acknowledged signaling transaction, in-flight count is
// governed by a CUBIC-style window and delivery is exactly-once across
// connection failures. The congestion-controlled counterpart of ReplayTCP.
func ReplayClosed(addr string, st EventSource, opts replaynet.ClosedOpts) (replaynet.ClosedStats, error) {
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	stats, err := replaynet.ReplayClosed(addr, st.Generation(), replayAdapter{st}, opts)
	sp.End(stats.Acked, "replay-closed")
	return stats, err
}

// ReplaySLOSearch drives the stream against a replaynet server with the
// closed-loop SLO-search controller, ramping the offered event rate to find
// the maximum sustained load whose p99 transaction latency meets the SLO.
func ReplaySLOSearch(addr string, st EventSource, opts replaynet.ClosedOpts, search replaynet.SearchOpts) (replaynet.SearchResult, error) {
	return replaynet.SLOSearch(addr, st.Generation(), replayAdapter{st}, opts, search)
}

// File-sink degrade policies (SinkSpec.Degrade). "fail", the default,
// fails the run on a hard write error; "drop" and "pause" put a circuit
// breaker in the caller's writer chain that discards writes, or blocks the
// drain, while the output is broken.
const (
	DegradeFail  = "fail"
	DegradePause = "pause"
	DegradeDrop  = "drop"
)

// SinkSpec names a run's sink and its arguments: the one description both
// front ends fill in (cptscenario from its flags, cptserved from POST
// /runs) and RunSink executes. Kind is a registry name (count, also "",
// mcn, jsonl, csv or replay); Out the jsonl/csv path (".gz" compresses,
// "-" is standard output under the default opener); Addr the replaynet
// server; ClosedLoop selects the acknowledged replay driver; Degrade is
// the file-sink failure policy.
type SinkSpec struct {
	Kind, Out, Addr string
	ClosedLoop      bool
	Degrade         string
}

// sinkKind is one registry entry: which arguments the sink takes (both
// required when taken) and how it drains a source.
type sinkKind struct {
	out, addr bool
	run       func(src EventSource, s SinkSpec, in SinkInputs) (SinkResult, error)
}

// sinkKinds is the sink registry; the empty kind is count.
var sinkKinds = map[string]sinkKind{
	"":       {run: runCount},
	"count":  {run: runCount},
	"mcn":    {run: runMCN},
	"jsonl":  {out: true, run: runFile},
	"csv":    {out: true, run: runFile},
	"replay": {addr: true, run: runReplay},
}

// SinkArgs reports which arguments sink kind takes: an output path, a
// server address. Front ends with flag defaults pass only these along.
func SinkArgs(kind string) (out, addr bool) {
	k := sinkKinds[kind]
	return k.out, k.addr
}

// Validate checks the spec against the registry: a known kind, exactly
// the arguments it takes, closed loop only on replay and a degrade policy
// only on the file sinks.
func (s SinkSpec) Validate() error {
	k, ok := sinkKinds[s.Kind]
	switch {
	case !ok:
		return fmt.Errorf("unknown sink %q (want count, mcn, jsonl, csv or replay)", s.Kind)
	case k.out && s.Out == "":
		return fmt.Errorf("sink %q requires out (server-side output path)", s.Kind)
	case !k.out && s.Out != "":
		return fmt.Errorf("sink %q takes no out path", s.Kind)
	case k.addr && s.Addr == "":
		return fmt.Errorf("sink %q requires addr (replaynet server address)", s.Kind)
	case !k.addr && s.Addr != "":
		return fmt.Errorf("sink %q takes no addr", s.Kind)
	case s.ClosedLoop && !k.addr:
		return errors.New("closed_loop only applies to the replay sink")
	}
	switch s.Degrade {
	case "", DegradeFail:
	case DegradeDrop, DegradePause:
		if !k.out {
			return fmt.Errorf("degrade %q only applies to the jsonl and csv sinks", s.Degrade)
		}
	default:
		return fmt.Errorf("unknown degrade policy %q (want fail, drop or pause)", s.Degrade)
	}
	return nil
}

// SinkInputs carries what a caller wires into the sinks beyond the spec,
// each with its live-stats and histogram hooks: File opens the jsonl/csv
// writer chain (nil: createFile(Out)), MCN configures the simulator (nil:
// mcn.DefaultConfig()) and Closed the closed-loop replay driver.
type SinkInputs struct {
	File   func() (*FileSink, error)
	MCN    *mcn.Config
	Closed replaynet.ClosedOpts
}

// FileSink is an opened jsonl/csv destination: lines go to W; Lines > 0
// marks a resumed destination that already holds that many events and so
// the csv header; Bind, when set, receives the line encoder before the
// first event (the seam a checkpoint hook flushes through); Close, when
// set, finishes the destination after the drain.
type FileSink struct {
	W     io.Writer
	Lines int64
	Bind  func(*LineWriter)
	Close func() error
}

// createFile opens path for a file sink: "-" is standard output, and a
// ".gz" path is gzip-compressed transparently.
func createFile(path string) (*FileSink, error) {
	if path == "-" {
		return &FileSink{W: os.Stdout}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return &FileSink{W: f, Close: f.Close}, nil
	}
	gz := gzip.NewWriter(f)
	return &FileSink{W: gz, Close: func() error {
		if err := gz.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}}, nil
}

// SinkResult is a finished sink's typed outcome: Kind plus what that kind
// fills — Count (count), MCN (mcn), Lines and Out (jsonl/csv; the count
// includes a resumed prefix), Replay (open-loop replay) or Closed
// (closed-loop replay).
type SinkResult struct {
	Kind   string
	Count  *Summary
	MCN    *mcn.Report
	Lines  int64
	Out    string
	Replay *replaynet.Stats
	Closed *replaynet.ClosedStats
}

// RunSink drains src into the sink s names: the one sink executor behind
// cptscenario and cptserved. It validates s first. Pacing, budgets and
// checkpoint taps compose upstream of it as EventSource stages.
func RunSink(src EventSource, s SinkSpec, in SinkInputs) (SinkResult, error) {
	if err := s.Validate(); err != nil {
		return SinkResult{}, err
	}
	res, err := sinkKinds[s.Kind].run(src, s, in)
	res.Kind = s.Kind
	return res, err
}

func runCount(src EventSource, _ SinkSpec, _ SinkInputs) (SinkResult, error) {
	sum, err := Drain(src)
	return SinkResult{Count: &sum}, err
}

func runMCN(src EventSource, _ SinkSpec, in SinkInputs) (SinkResult, error) {
	cfg := mcn.DefaultConfig()
	if in.MCN != nil {
		cfg = *in.MCN
	}
	rep, err := RunMCN(src, cfg)
	return SinkResult{MCN: rep}, err
}

func runFile(src EventSource, s SinkSpec, in SinkInputs) (SinkResult, error) {
	open := in.File
	if open == nil {
		open = func() (*FileSink, error) { return createFile(s.Out) }
	}
	fs, err := open()
	if err != nil {
		return SinkResult{}, err
	}
	lw, err := NewLineWriter(fs.W, s.Kind, src.UEID, fs.Lines == 0)
	if err == nil {
		if fs.Bind != nil {
			fs.Bind(lw)
		}
		err = drainLines(src, lw, s.Kind)
	}
	if fs.Close != nil {
		if cerr := fs.Close(); err == nil {
			err = cerr
		}
	}
	if lw == nil {
		return SinkResult{}, err
	}
	return SinkResult{Lines: fs.Lines + int64(lw.Count()), Out: s.Out}, err
}

func runReplay(src EventSource, s SinkSpec, in SinkInputs) (SinkResult, error) {
	if s.ClosedLoop {
		st, err := ReplayClosed(s.Addr, src, in.Closed)
		return SinkResult{Closed: &st}, err
	}
	st, err := ReplayTCP(s.Addr, src, replaynet.ReplayOpts{})
	return SinkResult{Replay: &st}, err
}

// Fields renders the result as the daemon's run-result JSON object.
func (r SinkResult) Fields() map[string]any {
	switch {
	case r.Count != nil:
		return map[string]any{
			"events":            r.Count.Events,
			"first_time":        r.Count.FirstTime,
			"last_time":         r.Count.LastTime,
			"peak_rate":         r.Count.PeakRate,
			"peak_window_start": r.Count.PeakWindowStart,
		}
	case r.MCN != nil:
		return map[string]any{
			"events":          r.MCN.Events,
			"rejected":        r.MCN.Rejected,
			"ues":             r.MCN.UEs,
			"latency_mean_ms": 1e3 * r.MCN.MeanLatencySec,
			"latency_p95_ms":  1e3 * r.MCN.P95LatencySec,
			"latency_p99_ms":  1e3 * r.MCN.P99LatencySec,
			"peak_rate":       r.MCN.PeakRate,
			"max_instances":   r.MCN.MaxInstancesUsed,
		}
	case r.Closed != nil:
		return map[string]any{
			"events":          r.Closed.Server.Events,
			"rejected":        r.Closed.Server.Rejected,
			"duplicates":      r.Closed.Server.Duplicates,
			"sent":            r.Closed.Sent,
			"acked":           r.Closed.Acked,
			"retransmits":     r.Closed.Retransmits,
			"reconnects":      r.Closed.Reconnects,
			"latency_mean_ms": float64(r.Closed.MeanLatency) / 1e6,
			"latency_p99_ms":  float64(r.Closed.P99Latency) / 1e6,
			"achieved_rate":   r.Closed.AchievedRate,
		}
	case r.Replay != nil:
		return map[string]any{
			"events":             r.Replay.Events,
			"rejected":           r.Replay.Rejected,
			"peak_connected_ues": r.Replay.PeakConnectedUEs,
		}
	default:
		return map[string]any{"events": r.Lines, "out": r.Out}
	}
}

// Report writes the result as the cptscenario command's summary: the
// Fields the daemon reports, one per line, plus the count sink's per-type
// breakdown.
func (r SinkResult) Report(w io.Writer, name string, wall time.Duration) {
	fmt.Fprintf(w, "scenario %s: %s sink finished in %v\n", name, r.Kind, wall.Round(time.Millisecond))
	f := r.Fields()
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-18s %v\n", k, f[k])
	}
	if r.Count != nil {
		for t, n := range r.Count.ByType {
			if n > 0 {
				fmt.Fprintf(w, "  %-18s %d\n", events.Type(t), n)
			}
		}
	}
}
