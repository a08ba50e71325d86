package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"cptgpt/internal/events"
)

// jsonlHeader is the first line of a JSONL trace file. JSONL is the
// preferred on-disk format because it streams and keeps per-UE grouping
// explicit: the header is followed by one Stream object per line.
type jsonlHeader struct {
	Format     string `json:"format"`
	Generation string `json:"generation"`
	Streams    int    `json:"streams"`
}

// StreamWriter writes a trace incrementally, one UE stream at a time, in
// the JSONL trace format: callers that synthesize millions of streams hand
// each batch to the writer as it is produced instead of materializing a
// whole Dataset first. The stream count in the header is written as -1
// (unknown); StreamReader reads until EOF whatever the count says.
type StreamWriter struct {
	bw      *bufio.Writer
	enc     *json.Encoder
	gz      *gzip.Writer
	f       *os.File
	wrote   int
	started bool
	gen     events.Generation
}

// NewStreamWriter starts a JSONL trace on w. The header is emitted lazily
// on the first WriteStream (or on Close for an empty trace).
func NewStreamWriter(w io.Writer, gen events.Generation) *StreamWriter {
	bw := bufio.NewWriter(w)
	return &StreamWriter{bw: bw, enc: json.NewEncoder(bw), gen: gen}
}

// CreateStream opens path and returns a StreamWriter over it. A ".gz"
// suffix transparently gzip-compresses the output; the trace format is
// chosen from the extension under the ".gz" (only JSONL is supported for
// streaming writes). Close flushes and closes the file.
func CreateStream(path string, gen events.Generation) (*StreamWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: creating %s: %w", path, err)
	}
	var w io.Writer = f
	var gz *gzip.Writer
	if isGzip(path) {
		gz = gzip.NewWriter(f)
		w = gz
	}
	sw := NewStreamWriter(w, gen)
	sw.gz = gz
	sw.f = f
	return sw, nil
}

func (w *StreamWriter) header() error {
	if w.started {
		return nil
	}
	w.started = true
	hdr := jsonlHeader{Format: "cptgpt-trace/1", Generation: w.gen.String(), Streams: -1}
	if err := w.enc.Encode(hdr); err != nil {
		return fmt.Errorf("trace: writing JSONL header: %w", err)
	}
	return nil
}

// WriteStream appends one UE stream to the trace.
func (w *StreamWriter) WriteStream(s *Stream) error {
	if err := w.header(); err != nil {
		return err
	}
	if err := w.enc.Encode(s); err != nil {
		return fmt.Errorf("trace: writing stream %d: %w", w.wrote, err)
	}
	w.wrote++
	return nil
}

// Streams returns the number of streams written so far.
func (w *StreamWriter) Streams() int { return w.wrote }

// Close flushes buffered output and closes any file/compressor owned by the
// writer (writers created with NewStreamWriter leave the caller's io.Writer
// open). An empty trace still gets a valid header.
func (w *StreamWriter) Close() error {
	if err := w.header(); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("trace: flushing: %w", err)
	}
	if w.gz != nil {
		if err := w.gz.Close(); err != nil {
			return fmt.Errorf("trace: closing gzip stream: %w", err)
		}
	}
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("trace: closing file: %w", err)
		}
	}
	return nil
}

// StreamReader reads a JSONL trace incrementally, one UE stream per Next
// call, without materializing the whole Dataset.
type StreamReader struct {
	dec *json.Decoder
	gz  *gzip.Reader
	f   *os.File
	gen events.Generation
	n   int
}

// NewStreamReader reads the JSONL header from r and positions the reader at
// the first stream.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr jsonlHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("trace: reading JSONL header: %w", err)
	}
	if hdr.Format != "cptgpt-trace/1" {
		return nil, fmt.Errorf("trace: unsupported trace format %q", hdr.Format)
	}
	gen, err := events.ParseGeneration(hdr.Generation)
	if err != nil {
		return nil, fmt.Errorf("trace: JSONL header: %w", err)
	}
	return &StreamReader{dec: dec, gen: gen}, nil
}

// OpenStream opens a JSONL trace at path, transparently decompressing a
// ".gz" suffix. Close releases the file.
func OpenStream(path string) (*StreamReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: opening %s: %w", path, err)
	}
	var r io.Reader = f
	var gz *gzip.Reader
	if isGzip(path) {
		if gz, err = gzip.NewReader(bufio.NewReader(f)); err != nil {
			f.Close()
			return nil, fmt.Errorf("trace: opening gzip %s: %w", path, err)
		}
		r = gz
	}
	sr, err := NewStreamReader(r)
	if err != nil {
		if gz != nil {
			gz.Close()
		}
		f.Close()
		return nil, err
	}
	sr.gz = gz
	sr.f = f
	return sr, nil
}

// Generation returns the generation declared in the trace header.
func (r *StreamReader) Generation() events.Generation { return r.gen }

// Next reads the next UE stream into s. It returns io.EOF (and leaves s
// untouched) when the trace is exhausted.
func (r *StreamReader) Next(s *Stream) error {
	if err := r.dec.Decode(s); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("trace: reading stream %d: %w", r.n, err)
	}
	r.n++
	return nil
}

// readAll drains the remaining streams into a Dataset.
func (r *StreamReader) readAll() (*Dataset, error) {
	d := &Dataset{Generation: r.gen}
	for {
		var s Stream
		if err := r.Next(&s); err == io.EOF {
			return d, nil
		} else if err != nil {
			return nil, err
		}
		d.Streams = append(d.Streams, s)
	}
}

// Close releases any file/compressor owned by the reader.
func (r *StreamReader) Close() error {
	if r.gz != nil {
		if err := r.gz.Close(); err != nil {
			return fmt.Errorf("trace: closing gzip stream: %w", err)
		}
	}
	if r.f != nil {
		if err := r.f.Close(); err != nil {
			return fmt.Errorf("trace: closing file: %w", err)
		}
	}
	return nil
}

func isGzip(path string) bool { return strings.HasSuffix(path, ".gz") }

// formatPath strips a trailing ".gz" so format detection sees the real
// extension ("trace.csv.gz" → CSV, gzipped).
func formatPath(path string) string { return strings.TrimSuffix(path, ".gz") }
