package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// band is the decoder's tile width in intervals.
const band = csvRowBufSize / 8

// csvCell is the value bandCSV writes at (row, interval): distinct per cell
// and inside [0, 1].
func csvCell(row, interval int) float64 { return float64(row*1000+interval) / 1e7 }

// bandCSV writes a headerless servers × intervals CSV of csvCell values,
// with the text of the cells in bad replaced.
func bandCSV(servers, intervals int, bad map[[2]int]string) []byte {
	var b bytes.Buffer
	for r := range servers {
		b.WriteString(strconv.Itoa(r))
		for i := range intervals {
			b.WriteByte(',')
			if s, ok := bad[[2]int{r, i}]; ok {
				b.WriteString(s)
			} else {
				b.WriteString(strconv.FormatFloat(csvCell(r, i), 'g', -1, 64))
			}
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestCSVSourceBandErrors puts bad cells in the middle of a band and on
// both sides of band boundaries. The error must name the cell's row and
// interval, surface only when that column is requested, and every earlier
// column must arrive bit-identical. With several bad cells, the earliest
// interval wins, then the lowest row.
func TestCSVSourceBandErrors(t *testing.T) {
	const servers, intervals = 5, 2*band + 3
	long := "0." + strings.Repeat("0", csvMaxFieldLen-1) // 65 bytes
	type cell = [2]int
	cases := []struct {
		name     string
		bad      map[cell]string
		interval int    // first column that must fail
		want     string // substring of its error
	}{
		{"float mid-band", map[cell]string{{2, band / 2}: "abc"}, band / 2,
			`trace: row 2 interval 32: strconv.ParseFloat: parsing "abc": invalid syntax`},
		{"range before boundary", map[cell]string{{2, band - 1}: "1.5"}, band - 1,
			"trace: server 2 interval 63 utilization 1.5 outside [0,1]"},
		{"quote at boundary", map[cell]string{{2, band}: `"0.5"`}, band,
			"trace: row 2 interval 64: quoted fields are not supported"},
		{"long field after boundary", map[cell]string{{2, band + 1}: long}, band + 1,
			fmt.Sprintf("trace: row 2 interval 65: field exceeds %d bytes", csvMaxFieldLen)},
		{"interval 0", map[cell]string{{4, 0}: "x"}, 0, "trace: row 4 interval 0:"},
		{"third band start", map[cell]string{{0, 2 * band}: "-0.5"}, 2 * band,
			"trace: server 0 interval 128 utilization -0.5 outside [0,1]"},
		{"empty last field", map[cell]string{{3, intervals - 1}: ""}, intervals - 1,
			"trace: row 3 interval 130: unexpected EOF"},
		{"empty middle field", map[cell]string{{1, band + 5}: ""}, band + 5,
			`trace: row 1 interval 69: strconv.ParseFloat: parsing "": invalid syntax`},
		{"earliest interval wins over lower row",
			map[cell]string{{0, band + 2}: "abc", {3, band + 1}: "x"}, band + 1, "trace: row 3 interval 65:"},
		{"lowest row wins within an interval",
			map[cell]string{{3, band - 1}: "abc", {1, band - 1}: `"`}, band - 1, "trace: row 1 interval 63: quoted"},
		{"later band is never reached",
			map[cell]string{{1, 10}: "abc", {0, band + 10}: "x"}, 10, "trace: row 1 interval 10:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := bandCSV(servers, intervals, tc.bad)
			src, err := NewCSVSource(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatal(err)
			}
			col := make([]float64, servers)
			for i := range tc.interval {
				got, err := src.NextColumn(col)
				if err != nil || got != i {
					t.Fatalf("column %d: interval %d, err %v", i, got, err)
				}
				for r, v := range col {
					if math.Float64bits(v) != math.Float64bits(csvCell(r, i)) {
						t.Fatalf("cell (row %d, interval %d) = %v, want %v", r, i, v, csvCell(r, i))
					}
				}
			}
			for range 2 { // the failure sticks
				if _, err := src.NextColumn(col); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("column %d: err = %v, want %q", tc.interval, err, tc.want)
				}
			}
		})
	}
}

// TestCSVSourceServerIDErrors pins that a bad server-id field in any row is
// reported before column 0, ahead of bad cells in lower rows.
func TestCSVSourceServerIDErrors(t *testing.T) {
	for _, tc := range []struct{ id, want string }{
		{`"3"`, "trace: row 3 server id: quoted fields are not supported by the streaming reader"},
		{strings.Repeat("9", csvMaxFieldLen+1), fmt.Sprintf("trace: row 3 server id: field exceeds %d bytes", csvMaxFieldLen)},
	} {
		data := bandCSV(5, band+1, map[[2]int]string{{1, 0}: "abc"})
		data = bytes.Replace(data, []byte("\n3,"), []byte("\n"+tc.id+","), 1)
		src, err := NewCSVSource(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.NextColumn(make([]float64, 5)); err == nil || err.Error() != tc.want {
			t.Fatalf("err = %v, want %q", err, tc.want)
		}
	}
}

// TestCSVSourceMetaRowLikeReadCSV pins the meta-row cases where the
// streaming reader follows ReadCSV: a quoted name holding a comma, and a
// first field that only starts with #h2p-trace (a headerless data row).
func TestCSVSourceMetaRowLikeReadCSV(t *testing.T) {
	for _, raw := range []string{
		"#h2p-trace,\"comma,name\",stable,1h0m0s\nserver,t0\n0,0.125\n",
		"\r\n#h2p-trace,x,common,5m0s\nserver,t0\n0,0.5\n",
		"#h2p-traced,0.5\n1,0.25\n",
	} {
		dense, err := ReadCSV(strings.NewReader(raw))
		if err != nil {
			t.Fatalf("%q: ReadCSV: %v", raw, err)
		}
		src, err := NewCSVSource(strings.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatalf("%q: %v", raw, err)
		}
		if m := src.Meta(); m.Name != dense.Name || m.Class != dense.Class || m.Interval != dense.Interval {
			t.Fatalf("%q: meta %+v, ReadCSV %s/%s/%v", raw, m, dense.Name, dense.Class, dense.Interval)
		}
		requireColumnsEqualTrace(t, drainSource(t, src), dense)
	}
	for _, raw := range []string{
		"#h2p-trace,x,common,5m0s\nserver,\"t0\"\n0,0.5\n", // a quoted column header
		"#h2p-trace,x,common," + strings.Repeat("1", 4096) + "h\nserver,t0\n0,0.5\n",
	} {
		if _, err := NewCSVSource(strings.NewReader(raw), int64(len(raw))); err == nil {
			t.Fatalf("%.40q accepted", raw)
		}
	}
}

// TestCSVSourceSteadyStateAllocs pins NextColumn, band refills included,
// at zero allocations once the tile exists.
func TestCSVSourceSteadyStateAllocs(t *testing.T) {
	data := bandCSV(16, 4*band+5, nil)
	src, err := NewCSVSource(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	col := make([]float64, 16)
	if _, err := src.NextColumn(col); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3*band, func() {
		if _, err := src.NextColumn(col); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("NextColumn allocates %v times per column, want 0", allocs)
	}
}

// TestCSVSourceOpenAllocsFlat pins that opening does not allocate per row:
// 64× the rows may only add the span slice's logarithmic regrowths.
func TestCSVSourceOpenAllocsFlat(t *testing.T) {
	open := func(servers int) float64 {
		data := bandCSV(servers, 8, nil)
		return testing.AllocsPerRun(5, func() {
			if _, err := NewCSVSource(bytes.NewReader(data), int64(len(data))); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := open(64), open(4096)
	if big > small+16 {
		t.Fatalf("open allocates %v times at 4096 rows, %v at 64: allocations scale with rows", big, small)
	}
}

// TestCSVSourceRetainedHeap pins the O(servers) bound of the file header:
// after open the source holds at most servers × csvRowBufSize bytes plus a
// constant, and after the first column (tile allocated) at most
// servers × (csvRowBufSize + 32) plus a constant.
func TestCSVSourceRetainedHeap(t *testing.T) {
	const servers = 4096
	const slack = 64 << 10
	data := bandCSV(servers, 8, nil)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	src, err := NewCSVSource(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := heap()-before, int64(servers*csvRowBufSize+slack); got > limit {
		t.Fatalf("open retains %d bytes, want <= %d", got, limit)
	}
	if _, err := src.NextColumn(make([]float64, servers)); err != nil {
		t.Fatal(err)
	}
	if got, limit := heap()-before, int64(servers*(csvRowBufSize+32)+slack); got > limit {
		t.Fatalf("decoding retains %d bytes, want <= %d", got, limit)
	}
	runtime.KeepAlive(src)
}

// FuzzCSVSource hardens the streaming reader: it must never panic, and any
// input it accepts and drains without error must also be accepted by
// ReadCSV, with equal meta and bit-identical cells. (The converse does not
// hold: the streaming reader refuses quotes outside the meta row and fields
// over csvMaxFieldLen bytes.)
func FuzzCSVSource(f *testing.F) {
	tr, err := Generate(CommonConfig(3), 1)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, raw string) {
		src, err := NewCSVSource(strings.NewReader(raw), int64(len(raw)))
		if err != nil {
			return
		}
		m := src.Meta()
		var cols [][]float64
		for {
			col := make([]float64, m.Servers)
			if _, err := src.NextColumn(col); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return
			}
			cols = append(cols, col)
		}
		dense, err := ReadCSV(strings.NewReader(raw))
		if err != nil {
			t.Fatalf("streaming reader accepted what ReadCSV rejects: %v", err)
		}
		if m.Name != dense.Name || m.Class != dense.Class || m.Interval != dense.Interval ||
			m.Servers != dense.Servers() || m.Intervals != dense.Intervals() {
			t.Fatalf("meta %+v, ReadCSV %q/%q/%v %dx%d", m, dense.Name, dense.Class, dense.Interval,
				dense.Servers(), dense.Intervals())
		}
		for i, col := range cols {
			for s, v := range col {
				if math.Float64bits(v) != math.Float64bits(dense.U[s][i]) {
					t.Fatalf("cell (s=%d, i=%d): streamed %v, ReadCSV %v", s, i, v, dense.U[s][i])
				}
			}
		}
	})
}
