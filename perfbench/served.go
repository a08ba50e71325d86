package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/mcn"
	"cptgpt/internal/replaynet"
	"cptgpt/internal/scenario"
	"cptgpt/internal/served"
)

// pollInterval is how often an operation polls GET /runs/{id}. The
// operation's end is the daemon's own finished_at stamp, so the interval
// bounds only the polling cost, not the timing's resolution.
const pollInterval = 10 * time.Millisecond

// daemon is a cptserved instance on a loopback listener, with its own
// spill and journal directories, and for the replay workload its own
// replaynet server.
type daemon struct {
	dir    string
	srv    *served.Server
	hs     *http.Server
	serve  chan error
	base   string
	client *http.Client
	replay *replaynet.Server
}

// startDaemon starts a daemon (and optionally a replay server) and waits
// until /healthz answers 200.
func startDaemon(b *bench, journal, replay bool) (d *daemon, err error) {
	dir, err := b.scratch("daemon-")
	if err != nil {
		return nil, err
	}
	d = &daemon{dir: dir, client: &http.Client{Timeout: 30 * time.Second}}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	opts := served.Options{TempDir: filepath.Join(dir, "spill"), Parallelism: workers}
	if journal {
		opts.JournalDir = filepath.Join(dir, "journal")
	}
	for _, p := range []string{opts.TempDir, opts.JournalDir} {
		if p == "" {
			continue
		}
		if err := os.MkdirAll(p, 0o755); err != nil {
			return d, err
		}
	}
	if replay {
		if d.replay, err = replaynet.ListenAndServe("127.0.0.1:0", events.Gen4G); err != nil {
			return d, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	d.srv = served.New(opts)
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.serve = make(chan error, 1)
	go func() { d.serve <- d.hs.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			return d, fmt.Errorf("daemon not healthy after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// warmUp runs a small flash-crowd into the count sink, so the daemon's
// lazy set-up (connections, worker pool, telemetry registry) is done
// before the measured run.
func (d *daemon) warmUp(spec *scenario.Spec, ues int) error {
	_, _, _, err := d.await(served.StartRequest{Spec: spec, UEs: ues, Sink: "count", Parallelism: workers})
	return err
}

// close stops the daemon, its listener and the replay server, waits for
// each, and removes the daemon's directories.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if d.srv != nil {
		errs = append(errs, d.srv.Close(ctx))
	}
	if d.hs != nil {
		errs = append(errs, d.hs.Shutdown(ctx))
		if err := <-d.serve; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	d.client.CloseIdleConnections()
	if d.replay != nil {
		errs = append(errs, d.replay.Close())
	}
	errs = append(errs, os.RemoveAll(d.dir))
	return errors.Join(errs...)
}

// getJSON decodes GET path into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (d *daemon) metrics() (string, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// servedRun is one daemon operation's raw observations.
type servedRun struct {
	info   served.RunInfo
	stats  served.RunStats
	submit time.Duration
	wall   float64 // POST to the daemon's finished_at stamp
	allocs uint64
	rssMB  float64
}

// await POSTs req, waits for the run to reach a terminal state and
// returns it with the POST's latency and the wall span from the POST to
// the daemon's finished_at stamp.
func (d *daemon) await(req served.StartRequest) (info served.RunInfo, submit time.Duration, wall float64, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return info, 0, 0, err
	}
	t0 := time.Now()
	resp, err := d.client.Post(d.base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return info, 0, 0, err
	}
	submit = time.Since(t0)
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		return info, 0, 0, err
	}
	if resp.StatusCode != http.StatusCreated {
		return info, 0, 0, fmt.Errorf("POST /runs: %s (%s)", resp.Status, info.Error)
	}
	for {
		if err := d.getJSON("/runs/"+info.ID, &info); err != nil {
			return info, 0, 0, err
		}
		if info.FinishedAt != nil {
			break
		}
		time.Sleep(pollInterval)
	}
	if info.State != served.StateDone {
		return info, 0, 0, fmt.Errorf("run %s ended %s: %s", info.ID, info.State, info.Error)
	}
	return info, submit, info.FinishedAt.Sub(t0).Seconds(), nil
}

// submit is await under measurement: peak RSS and heap allocations over
// the run, then its final stats.
func (d *daemon) submit(req served.StartRequest) (sr servedRun, err error) {
	rss := startRSS()
	m0 := mallocs()
	sr.info, sr.submit, sr.wall, err = d.await(req)
	sr.allocs = mallocs() - m0
	sr.rssMB = rss.peakMB()
	if err != nil {
		return sr, err
	}
	return sr, d.getJSON("/runs/"+sr.info.ID+"/stats", &sr.stats)
}

// layers returns the daemon-side per-layer metrics every served operation
// has: submit latency and the generating/streaming state durations.
func (sr *servedRun) layers() map[string]float64 {
	total := sr.info.FinishedAt.Sub(sr.info.StartedAt).Seconds()
	return map[string]float64{
		"served.submit_ms":    float64(sr.submit) / 1e6,
		"served.generating_s": total - sr.stats.WallSeconds,
		"served.streaming_s":  sr.stats.WallSeconds,
	}
}

// resultInt reads an integer field of a run's result.
func resultInt(info served.RunInfo, key string) (int64, error) {
	v, ok := info.Result[key].(float64)
	if !ok {
		return 0, fmt.Errorf("run result has no %q: %v", key, info.Result)
	}
	return int64(v), nil
}

// servedFixture is one daemon operation's fresh state.
type servedFixture struct {
	b    *bench
	d    *daemon
	spec *scenario.Spec
	out  string // jsonl output path (served-jsonl)
}

func setupServedJSONL(b *bench) (fixture, error) {
	spec, err := flashSpec(b.cfg.seed)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(b, true, false)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(d.dir, "out")
	if err = os.Mkdir(out, 0o755); err == nil {
		err = d.warmUp(spec, b.cfg.sizes.warmUEs)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	f := &servedFixture{b: b, d: d, spec: spec, out: filepath.Join(out, "run.jsonl")}
	return jsonlFixture{f}, nil
}

func setupServedReplay(b *bench) (fixture, error) {
	spec, err := flashSpec(b.cfg.seed)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(b, false, true)
	if err != nil {
		return nil, err
	}
	if err := d.warmUp(spec, b.cfg.sizes.warmUEs); err != nil {
		d.close()
		return nil, err
	}
	return replayFixture{&servedFixture{b: b, d: d, spec: spec}}, nil
}

func (f *servedFixture) close() error { return f.d.close() }

// jsonlFixture runs flash-crowd unpaced through the journaled daemon into
// its jsonl sink.
type jsonlFixture struct{ *servedFixture }

func (f jsonlFixture) run(traced bool) (r opResult, err error) {
	// The journal counters are daemon-wide; the run's share is the delta
	// across it (the warm-up run is journaled too).
	var before string
	if traced {
		if before, err = f.d.metrics(); err != nil {
			return r, err
		}
	}
	sr, err := f.d.submit(served.StartRequest{
		Spec: f.spec, UEs: f.b.cfg.sizes.jsonlUEs, Sink: "jsonl", Out: f.out, Parallelism: workers,
	})
	if err != nil {
		return r, err
	}
	if r.events, err = resultInt(sr.info, "events"); err != nil {
		return r, err
	}
	// The daemon's file must be byte-identical to WriteJSONL of the same
	// spec and seed in process; runBench compares the hashes.
	h, size, err := fnvFile(f.out)
	if err != nil {
		return r, err
	}
	r.wall, r.digest, r.rssMB = sr.wall, h, sr.rssMB
	r.allocs = float64(sr.allocs) / float64(r.events)
	r.viol = -1 // the jsonl sink does not score; the reference run does
	if !traced {
		return r, nil
	}
	r.layers = sr.layers()
	r.layers["served.sink_bytes_per_s"] = float64(size) / sr.stats.WallSeconds
	text, err := f.d.metrics()
	if err != nil {
		return r, err
	}
	for _, m := range []struct{ layer, series string }{
		{"runlog.appends", "cptserved_journal_appends_total"},
		{"runlog.fsyncs", "cptserved_journal_fsyncs_total"},
		{"runlog.bytes", "cptserved_journal_bytes_total"},
	} {
		v0, err := promValue(before, m.series)
		if err != nil {
			return r, err
		}
		v1, err := promValue(text, m.series)
		if err != nil {
			return r, err
		}
		r.layers[m.layer] = v1 - v0
	}
	return r, nil
}

// referenceJSONL writes the seed's scenario with WriteJSONL in process and
// scores the same events with the mcn simulator.
func referenceJSONL(b *bench) (reference, error) {
	spec, err := flashSpec(b.cfg.seed)
	if err != nil {
		return reference{}, err
	}
	opts := scenario.RunOpts{UEs: b.cfg.sizes.jsonlUEs, Parallelism: workers, TempDir: b.dir}
	st, err := spec.Open(opts)
	if err != nil {
		return reference{}, err
	}
	w := newFNVWriter()
	n, err := scenario.WriteJSONL(w, st)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return reference{}, err
	}
	if st, err = spec.Open(opts); err != nil {
		return reference{}, err
	}
	defer st.Close()
	rep, err := scenario.RunMCN(st, mcn.DefaultConfig())
	if err != nil {
		return reference{}, err
	}
	if rep.Events != n {
		return reference{}, fmt.Errorf("reference: mcn scored %d events, jsonl wrote %d", rep.Events, n)
	}
	return reference{digest: w.h, events: int64(n), viol: float64(rep.Rejected) / float64(n)}, nil
}

// replayFixture runs flash-crowd paced through the daemon into a
// closed-loop replay sink aimed at the operation's own replaynet server.
type replayFixture struct{ *servedFixture }

func (f replayFixture) run(traced bool) (r opResult, err error) {
	sz := f.b.cfg.sizes
	sr, err := f.d.submit(served.StartRequest{
		Spec: f.spec, UEs: sz.replayUEs, Compression: sz.compression, Parallelism: workers,
		Sink: "replay", Addr: f.d.replay.Addr().String(), ClosedLoop: true,
	})
	if err != nil {
		return r, err
	}
	got := map[string]int64{}
	for _, k := range []string{"events", "rejected", "duplicates", "sent", "acked", "retransmits", "reconnects"} {
		if got[k], err = resultInt(sr.info, k); err != nil {
			return r, err
		}
	}
	// Every released event must be sent and acknowledged exactly once.
	if rel := sr.stats.Events; got["sent"] != rel || got["acked"] != rel || got["events"] != rel || got["duplicates"] != 0 {
		return r, fmt.Errorf("closed loop: released %d, sent %d, acked %d, server applied %d, duplicates %d",
			rel, got["sent"], got["acked"], got["events"], got["duplicates"])
	}
	r.events = sr.stats.Events
	r.wall, r.rssMB = sr.wall, sr.rssMB
	r.allocs = float64(sr.allocs) / float64(r.events)
	r.viol = float64(got["rejected"]) / float64(r.events)
	if !traced {
		return r, nil
	}
	r.layers = sr.layers()
	r.layers["scenario.pacer_shed"] = float64(sr.stats.ShedEvents)
	r.layers["replaynet.ack_ratio"] = float64(got["acked"]) / float64(got["sent"])
	r.layers["replaynet.retransmits"] = float64(got["retransmits"])
	r.layers["replaynet.reconnects"] = float64(got["reconnects"])
	if sr.stats.Replay != nil {
		r.layers["replaynet.srtt_ms"] = sr.stats.Replay.SRTTMs
	}
	text, err := f.d.metrics()
	if err != nil {
		return r, err
	}
	sel := `run="` + sr.info.ID + `"`
	for _, h := range []struct{ prefix, series string }{
		{"lag", "cptserved_pacer_lag_seconds"},
		{"txn", "cptserved_replay_rtt_seconds"},
	} {
		hist, err := parseHist(text, h.series, sel)
		if err != nil {
			return r, err
		}
		r.layers[h.prefix+"_p50_ms"] = 1e3 * hist.quantile(0.5)
		r.layers[h.prefix+"_p99_ms"] = 1e3 * hist.quantile(0.99)
		r.layers[h.prefix+"_samples"] = hist.count
	}
	return r, nil
}

// referenceReplay counts the seed's events in process: the number every
// paced run must release, send and have acknowledged.
func referenceReplay(b *bench) (reference, error) {
	spec, err := flashSpec(b.cfg.seed)
	if err != nil {
		return reference{}, err
	}
	st, err := spec.Open(scenario.RunOpts{UEs: b.cfg.sizes.replayUEs, Parallelism: workers, TempDir: b.dir})
	if err != nil {
		return reference{}, err
	}
	defer st.Close()
	sum, err := scenario.Drain(st)
	if err != nil {
		return reference{}, err
	}
	return reference{events: int64(sum.Events)}, nil
}
