package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// The canonical CSV layout is server-major (one row per server), but the
// engine pulls interval-major columns. CSVSource squares that with an
// O(servers) working set. Open indexes the file in 64 KiB chunks, keeping
// one byte span per data row. Decoding then works in bands of
// csvRowBufSize/8 intervals: at a band's first column each row's next band
// of fields is read with one ReadAt and parsed into a servers × band float
// tile, which the band's columns are copied out of. Memory is servers ×
// (csvRowBufSize + 16) bytes plus one ~4 KiB read buffer, however long.

// csvRowBufSize is each row's share of the decode tile in bytes; a
// fleet-sized trace (12.5k servers) needs ~6 MiB of tile.
const csvRowBufSize = 512

// csvMaxFieldLen bounds a single CSV field; the longest float64 the writer
// emits is ~24 bytes, so anything past this is a corrupt or hostile file.
const csvMaxFieldLen = 64

// CSVSource streams a canonical (WriteCSV-layout) trace file column by
// column. It accepts the same two layouts ReadCSV does — the two-line
// #h2p-trace header, or a headerless matrix with default metadata — but
// quotes only in the meta row, as the canonical writer emits them.
type CSVSource struct {
	meta   Meta
	ra     io.ReaderAt
	rows   []rowSpan // each data row's unread bytes
	tile   []float64 // row r's cell for interval base+k is tile[r*band+k]
	buf    []byte    // one row's next band of fields
	base   int       // first interval held in tile
	next   int
	bad    int   // first column that fails; err is its error
	err    error // nil until a band fails to parse
	closer io.Closer
}

// rowSpan is one data row's byte range in the file, newline excluded.
type rowSpan struct{ start, end int64 }

// OpenCSVFile opens path as a streaming trace source. Close releases the
// underlying file.
func OpenCSVFile(path string) (*CSVSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	src, err := NewCSVSource(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	src.closer = f
	return src, nil
}

// NewCSVSource indexes the canonical CSV held by ra and returns a source
// positioned at interval 0; only the per-row spans (O(servers)) are retained.
func NewCSVSource(ra io.ReaderAt, size int64) (*CSVSource, error) {
	s := &CSVSource{ra: ra, meta: Meta{Name: "csv-trace", Class: Class("unknown"), Interval: 5 * time.Minute}}
	metaFields, err := s.index(size)
	if err != nil {
		return nil, err
	}
	if metaFields != nil {
		if len(metaFields) != 4 {
			return nil, fmt.Errorf("trace: malformed meta row (%d fields, want 4)", len(metaFields))
		}
		s.meta.Name, s.meta.Class = metaFields[1], Class(metaFields[2])
		if s.meta.Interval, err = time.ParseDuration(metaFields[3]); err != nil {
			return nil, fmt.Errorf("trace: bad interval: %w", err)
		}
	}
	s.meta.Servers, s.bad = len(s.rows), s.meta.Intervals
	if err := s.meta.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Meta reports the file's shape.
func (s *CSVSource) Meta() Meta { return s.meta }

// Close releases the backing file when the source owns one.
func (s *CSVSource) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// NextColumn fills dst with the next interval's utilizations, decoding a
// new band into the tile when the current one is used up. A bad cell is
// reported when its column is requested, after every earlier column.
func (s *CSVSource) NextColumn(dst []float64) (int, error) {
	if s.next >= s.meta.Intervals {
		return 0, io.EOF
	}
	if len(dst) != s.meta.Servers {
		return 0, fmt.Errorf("trace: column buffer has %d slots, want %d", len(dst), s.meta.Servers)
	}
	const band = csvRowBufSize / 8
	i := s.next
	if s.tile == nil || i-s.base == band {
		s.fill(i)
	}
	if i >= s.bad {
		return 0, s.err
	}
	for r, k := 0, i-s.base; r < len(dst); r, k = r+1, k+band {
		dst[r] = s.tile[k]
	}
	if err := validateColumn(dst, i); err != nil {
		return 0, err
	}
	s.next++
	return i, nil
}

// fill decodes intervals [base, base+band) of every row into the tile; the
// first band also checks each row's server-id field. Parsing never stops at
// a bad cell: the earliest failing (interval, row) is recorded in bad/err,
// so the columns before it are still delivered.
func (s *CSVSource) fill(base int) {
	const band = csvRowBufSize / 8
	if s.tile == nil {
		s.tile = make([]float64, len(s.rows)*band)
		s.buf = make([]byte, (band+1)*(csvMaxFieldLen+1)) // fits a band and the server id
	}
	s.base = base
	n := min(band, s.meta.Intervals-base)
	first := min(base, 1) - 1 // the first band starts at field -1, the server id
	for r := range s.rows {
		if k, err := s.fillRow(&s.rows[r], s.tile[r*band:r*band+n], first); err != nil && base+k < s.bad {
			s.bad, s.err = base+k, fmt.Errorf("trace: row %d interval %d: %w", r, base+k, err)
			if k < 0 {
				s.err = fmt.Errorf("trace: row %d server id: %w", r, err)
			}
		}
	}
}

// fillRow reads a row's next fields with one ReadAt and parses fields
// first..len(tile)-1 of them into tile (field -1 is the unparsed server
// id), advancing sp past them. It returns the index of the field that failed.
func (s *CSVSource) fillRow(sp *rowSpan, tile []float64, first int) (k int, err error) {
	got, rerr := s.ra.ReadAt(s.buf[:min(sp.end-sp.start, int64(len(s.buf)))], sp.start)
	data := s.buf[:got]
	// The row ends in data, or the file ends early and so does the row.
	atEnd := int64(got) == sp.end-sp.start || rerr == io.EOF
	for k = first; k < len(tile); k++ {
		f, rest, found := bytes.Cut(data, []byte{','}) // no comma: the row's last field
		switch {
		case bytes.IndexByte(f[:min(len(f), csvMaxFieldLen+1)], '"') >= 0:
			return k, fmt.Errorf("quoted fields are not supported by the streaming reader")
		case len(f) > csvMaxFieldLen:
			return k, fmt.Errorf("field exceeds %d bytes", csvMaxFieldLen)
		case !found && !atEnd: // a read error; a full buf cuts only over-long fields
			return k, rerr
		case len(data) == 0:
			return k, io.ErrUnexpectedEOF
		}
		if k >= 0 {
			if tile[k], err = strconv.ParseFloat(string(f), 64); err != nil {
				return k, err
			}
		}
		sp.start += int64(len(data) - len(rest))
		data = rest
	}
	return len(tile), nil
}

// index streams the file once in chunks, recording each data row's byte
// span and the interval count. It returns the meta row's fields, nil when
// the file is headerless. Rectangularity is enforced here so the band
// decoder can never desynchronize mid-stream.
func (s *CSVSource) index(size int64) (metaFields []string, err error) {
	var (
		chunk     = make([]byte, 64<<10)
		off       int64 // bytes read so far
		lineStart int64
		commas    int
		intervals = -1
		last      byte // the current line's last byte so far
	)
	endLine := func(end int64) error {
		if last == '\r' {
			end--
		}
		if end == lineStart { // empty line (e.g. trailing newline): skip
			return nil
		}
		if metaFields == nil && intervals < 0 { // the first line: a #h2p-trace meta row?
			head := make([]byte, min(end-lineStart, 4096))
			if n, err := s.ra.ReadAt(head, lineStart); n < len(head) {
				return err
			}
			if bytes.HasPrefix(head, []byte("#h2p-trace")) && (len(head) == 10 || head[10] == ',') {
				if end-lineStart > int64(len(head)) {
					return fmt.Errorf("trace: meta row exceeds %d bytes", len(head))
				}
				var err error
				if metaFields, err = csv.NewReader(bytes.NewReader(head)).Read(); err != nil {
					return fmt.Errorf("trace: malformed meta row: %w", err)
				}
				return nil
			}
			// Headerless matrix: this is a data row; fall through.
		}
		if intervals < 0 {
			if intervals = commas; commas < 1 {
				return fmt.Errorf("trace: CSV rows need a server id and at least one sample")
			}
			if metaFields != nil {
				return nil // the column-header row: its field count fixes the interval count
			}
		} else if commas != intervals {
			return fmt.Errorf("trace: row %d has %d fields, want %d", len(s.rows), commas+1, intervals+1)
		}
		s.rows = append(s.rows, rowSpan{start: lineStart, end: end})
		return nil
	}
	for off < size {
		n, err := s.ra.ReadAt(chunk[:min(int64(len(chunk)), size-off)], off)
		for data := chunk[:n]; len(data) > 0; {
			seg, rest, found := bytes.Cut(data, []byte{'\n'})
			commas += bytes.Count(seg, []byte{','})
			if metaFields != nil && intervals < 0 && bytes.IndexByte(seg, '"') >= 0 {
				// Quotes would make the column-header row's comma count lie.
				return nil, fmt.Errorf("trace: quoted fields are not supported by the streaming reader")
			}
			if len(seg) > 0 {
				last = seg[len(seg)-1]
			}
			if !found {
				break
			}
			lineEnd := off + int64(n-len(data)+len(seg))
			if err := endLine(lineEnd); err != nil {
				return nil, err
			}
			lineStart, commas, last = lineEnd+1, 0, 0
			data = rest
		}
		off += int64(n)
		if err == io.EOF || n == 0 {
			break
		} else if err != nil {
			return nil, err
		}
	}
	if off > lineStart {
		if err := endLine(off); err != nil {
			return nil, err
		}
	}
	if len(s.rows) == 0 {
		return nil, fmt.Errorf("trace: CSV has no data rows")
	}
	s.meta.Intervals = intervals
	return metaFields, nil
}
