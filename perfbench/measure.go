package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rssSampler polls the process's resident set size while a measured phase
// runs and keeps the peak. Linux's VmHWM is a process-lifetime high-water
// mark that set-up would dominate, so the phase's own peak has to be
// sampled.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak int64
}

// rssInterval is the sampling period: short against the ~1 s operations,
// long enough that the sampler costs well under 1% of one core.
const rssInterval = 2 * time.Millisecond

// startRSS returns the heap to the OS, so the phase starts from its live
// set rather than from set-up's garbage, and starts sampling.
func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		close(s.done)
		return s
	}
	page := int64(os.Getpagesize())
	buf := make([]byte, 128)
	sample := func() {
		n, err := f.ReadAt(buf, 0)
		if n == 0 && err != nil {
			return
		}
		fields := bytes.Fields(buf[:n])
		if len(fields) < 2 {
			return
		}
		pages, err := strconv.ParseInt(string(fields[1]), 10, 64)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.peak = max(s.peak, pages*page)
		s.mu.Unlock()
	}
	sample()
	go func() {
		defer close(s.done)
		defer f.Close()
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return s
}

// peakMB stops the sampler, waits for it to exit and returns the peak in
// MiB (0 when /proc is unavailable).
func (s *rssSampler) peakMB() float64 {
	select {
	case <-s.done:
	default:
		close(s.stop)
		<-s.done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peak) / (1 << 20)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fnvOffset and fnvPrime are the 64-bit FNV-1a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvBytes folds p into an FNV-1a hash.
func fnvBytes(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// fnvFile hashes a file's bytes with FNV-1a and returns the hash and size.
func fnvFile(path string) (uint64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	w := newFNVWriter()
	if _, err := io.Copy(w, f); err != nil {
		return 0, 0, fmt.Errorf("hashing %s: %w", path, err)
	}
	return w.h, w.n, nil
}

// fnvWriter is an io.Writer that hashes what it is given.
type fnvWriter struct {
	h uint64
	n int64
}

func newFNVWriter() *fnvWriter { return &fnvWriter{h: fnvOffset} }

func (w *fnvWriter) Write(p []byte) (int, error) {
	w.h = fnvBytes(w.h, p)
	w.n += int64(len(p))
	return len(p), nil
}

// promHist is one Prometheus histogram series read back from a /metrics
// scrape: cumulative counts at each finite upper edge, plus the total.
type promHist struct {
	edges []float64
	cum   []float64
	count float64
}

// parseHist extracts the histogram family name whose labels include
// selector (e.g. `run="run-1"`) from a Prometheus text exposition.
func parseHist(text, name, selector string) (promHist, error) {
	var h promHist
	found := false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, selector) {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(line, name+"_bucket{"):
			i := strings.Index(line, `le="`)
			if i < 0 {
				continue
			}
			le := line[i+4:]
			le = le[:strings.IndexByte(le, '"')]
			if le == "+Inf" {
				continue
			}
			edge, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return h, fmt.Errorf("%s: bad le %q", name, le)
			}
			h.edges = append(h.edges, edge)
			h.cum = append(h.cum, v)
			found = true
		case strings.HasPrefix(line, name+"_count{"):
			h.count = v
			found = true
		}
	}
	if !found {
		return h, fmt.Errorf("metric %s{%s} not in scrape", name, selector)
	}
	return h, nil
}

// quantile interpolates the q-quantile linearly within the bucket the
// q·count-th sample falls into. A quantile in the overflow bucket reads as
// the last finite edge.
func (h promHist) quantile(q float64) float64 {
	if h.count == 0 || len(h.edges) == 0 {
		return math.NaN()
	}
	rank := q * h.count
	lo, prev := 0.0, 0.0
	for i, edge := range h.edges {
		if h.cum[i] >= rank {
			in := h.cum[i] - prev
			if in <= 0 {
				return edge
			}
			return lo + (edge-lo)*(rank-prev)/in
		}
		lo, prev = edge, h.cum[i]
	}
	return h.edges[len(h.edges)-1]
}

// promValue reads the single sample of a counter or gauge series.
func promValue(text, name string) (float64, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		return strconv.ParseFloat(line[sp+1:], 64)
	}
	return 0, fmt.Errorf("metric %s not in scrape", name)
}
