package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"cptgpt/internal/events"
)

func TestStreamWriterReaderRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	w := NewStreamWriter(&buf, d.Generation)
	for i := range d.Streams {
		if err := w.WriteStream(&d.Streams[i]); err != nil {
			t.Fatal(err)
		}
	}
	if w.Streams() != len(d.Streams) {
		t.Fatalf("wrote %d streams, want %d", w.Streams(), len(d.Streams))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Generation() != d.Generation {
		t.Fatalf("generation %v, want %v", r.Generation(), d.Generation)
	}
	var got []Stream
	for {
		var s Stream
		if err := r.Next(&s); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if !reflect.DeepEqual(got, d.Streams) {
		t.Fatalf("streamed round trip mismatch:\n got %+v\nwant %+v", got, d.Streams)
	}
}

// A streamed trace (header count -1) must read back whole, and so must a
// trace whose header carries its stream count, as whole-dataset writers
// emit it.
func TestStreamWriterReadableByReadJSONL(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	w := NewStreamWriter(&buf, d.Generation)
	for i := range d.Streams {
		if err := w.WriteStream(&d.Streams[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Streams, d.Streams) {
		t.Fatal("readJSONL cannot read a streamed trace")
	}

	buf.Reset()
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(jsonlHeader{Format: "cptgpt-trace/1", Generation: d.Generation.String(), Streams: len(d.Streams)}); err != nil {
		t.Fatal(err)
	}
	for i := range d.Streams {
		if err := enc.Encode(&d.Streams[i]); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var s Stream
	if err := r.Next(&s); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, d.Streams[0]) {
		t.Fatal("StreamReader cannot read a trace with a counted header")
	}
}

func TestEmptyStreamWriterStillValid(t *testing.T) {
	var buf bytes.Buffer
	w := NewStreamWriter(&buf, events.Gen5G)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Generation != events.Gen5G || len(d.Streams) != 0 {
		t.Fatalf("empty trace read back wrong: %+v", d)
	}
}

func TestFileRoundTripGzip(t *testing.T) {
	d := sampleDataset()
	dir := t.TempDir()
	for _, name := range []string{"t.jsonl.gz", "t.csv.gz", "t.jsonl", "t.csv"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path, d.Generation)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NumStreams() != d.NumStreams() || got.NumEvents() != d.NumEvents() {
			t.Fatalf("%s: round trip lost data: %d/%d streams, %d/%d events",
				name, got.NumStreams(), d.NumStreams(), got.NumEvents(), d.NumEvents())
		}
		if !reflect.DeepEqual(got.Streams[0].Events, d.Streams[0].Events) {
			t.Fatalf("%s: stream 0 mismatch", name)
		}
	}
}

func TestCreateStreamGzipRoundTrip(t *testing.T) {
	d := sampleDataset()
	path := filepath.Join(t.TempDir(), "stream.jsonl.gz")
	w, err := CreateStream(path, d.Generation)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Streams {
		if err := w.WriteStream(&d.Streams[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var n int
	for {
		var s Stream
		if err := r.Next(&s); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(d.Streams) {
		t.Fatalf("read %d streams, want %d", n, len(d.Streams))
	}
}
