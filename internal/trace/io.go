package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"cptgpt/internal/events"
)

// WriteCSV emits the dataset in the flat interchange format used by the
// command-line tools: one event per row,
//
//	ue_id,device_type,timestamp,event_type
//
// with a header row. Rows are grouped by stream in dataset order.
func WriteCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"ue_id", "device_type", "timestamp", "event_type"}); err != nil {
		return fmt.Errorf("trace: writing CSV header: %w", err)
	}
	row := make([]string, 4)
	for i := range d.Streams {
		s := &d.Streams[i]
		row[0] = s.UEID
		row[1] = s.Device.String()
		for _, e := range s.Events {
			row[2] = strconv.FormatFloat(e.Time, 'f', -1, 64)
			row[3] = e.Type.String()
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("trace: writing CSV row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses the format produced by WriteCSV. Consecutive rows with the
// same ue_id are grouped into one stream; the generation must be supplied by
// the caller since the CSV carries only event names.
func ReadCSV(r io.Reader, gen events.Generation) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV header: %w", err)
	}
	if header[0] != "ue_id" {
		return nil, fmt.Errorf("trace: unexpected CSV header %v", header)
	}
	d := &Dataset{Generation: gen}
	var cur *Stream
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading CSV line %d: %w", line, err)
		}
		dev, err := events.ParseDeviceType(rec[1])
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: %w", line, err)
		}
		ts, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: bad timestamp: %w", line, err)
		}
		et, err := events.ParseType(rec[3])
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: %w", line, err)
		}
		if cur == nil || cur.UEID != rec[0] {
			d.Streams = append(d.Streams, Stream{UEID: rec[0], Device: dev})
			cur = &d.Streams[len(d.Streams)-1]
		}
		cur.Events = append(cur.Events, Event{Time: ts, Type: et})
	}
	return d, nil
}

// SaveFile writes the dataset to path, choosing the format by extension:
// ".csv" for CSV, anything else for JSONL; a ".gz" suffix transparently
// gzip-compresses either format. JSONL goes through the incremental
// StreamWriter, so no second copy of the dataset is buffered.
func SaveFile(path string, d *Dataset) (err error) {
	if !isCSV(formatPath(path)) {
		sw, err := CreateStream(path, d.Generation)
		if err != nil {
			return err
		}
		for i := range d.Streams {
			if err := sw.WriteStream(&d.Streams[i]); err != nil {
				sw.Close()
				return err
			}
		}
		return sw.Close()
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: creating %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	var w io.Writer = f
	if isGzip(path) {
		gz := gzip.NewWriter(f)
		defer func() {
			if cerr := gz.Close(); err == nil {
				err = cerr
			}
		}()
		w = gz
	}
	return WriteCSV(w, d)
}

// LoadFile reads a dataset from path, choosing the format by extension and
// transparently decompressing a ".gz" suffix. The generation argument is
// only consulted for CSV files (JSONL embeds it). JSONL goes through the
// incremental StreamReader.
func LoadFile(path string, gen events.Generation) (*Dataset, error) {
	if !isCSV(formatPath(path)) {
		sr, err := OpenStream(path)
		if err != nil {
			return nil, err
		}
		defer sr.Close()
		return sr.readAll()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: opening %s: %w", path, err)
	}
	defer f.Close()
	var r io.Reader = f
	if isGzip(path) {
		gz, err := gzip.NewReader(bufio.NewReader(f))
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	return ReadCSV(r, gen)
}

func isCSV(path string) bool {
	return len(path) >= 4 && path[len(path)-4:] == ".csv"
}
