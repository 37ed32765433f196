package trace

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// The decode benchmarks measure the trace layer's hand-off to the engine:
// how long each source takes to deliver a cell. Every one reports ns/cell
// so the three formats compare directly.

// benchDecodeConfig is the decode fixture: the common class, 1,000 servers
// over 14 days of 5-minute intervals (4,032 columns).
func benchDecodeConfig() GeneratorConfig {
	cfg := CommonConfig(1000)
	cfg.Horizon = 14 * 24 * time.Hour
	return cfg
}

// writeBenchCSV writes the decode fixture as canonical CSV into the
// benchmark's temporary directory and returns its path.
func writeBenchCSV(b *testing.B) string {
	b.Helper()
	src, err := NewGeneratorSource(benchDecodeConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	path := filepath.Join(dir, "common.csv")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := ConvertToCSV(src, f, dir); err != nil {
		b.Fatal(err)
	}
	return path
}

// drainBench pulls every column of src and returns the cells delivered.
func drainBench(b *testing.B, src Source) int64 {
	m := src.Meta()
	col := make([]float64, m.Servers)
	for {
		if _, err := src.NextColumn(col); err == io.EOF {
			return int64(m.Servers) * int64(m.Intervals)
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

func reportNsPerCell(b *testing.B, cells int64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
}

// BenchmarkCSVSourceOpen is the index pass alone: open, index, close.
// ns/cell divides by the cells the file holds.
func BenchmarkCSVSourceOpen(b *testing.B) {
	path := writeBenchCSV(b)
	b.ReportAllocs()
	b.ResetTimer()
	var cells int64
	for range b.N {
		src, err := OpenCSVFile(path)
		if err != nil {
			b.Fatal(err)
		}
		m := src.Meta()
		cells += int64(m.Servers) * int64(m.Intervals)
		src.Close()
	}
	reportNsPerCell(b, cells)
}

// BenchmarkCSVSourceDecode is a full read of the file, as h2psim -stream
// does it: open, every column, close.
func BenchmarkCSVSourceDecode(b *testing.B) {
	path := writeBenchCSV(b)
	b.ReportAllocs()
	b.ResetTimer()
	var cells int64
	for range b.N {
		src, err := OpenCSVFile(path)
		if err != nil {
			b.Fatal(err)
		}
		cells += drainBench(b, src)
		src.Close()
	}
	reportNsPerCell(b, cells)
}

// BenchmarkLongFormatSourceDecode reads an Alibaba-layout long-format file
// (machine, timestamp, percent; one line per observation) of the same fleet
// over one day: both passes, every column.
func BenchmarkLongFormatSourceDecode(b *testing.B) {
	cfg := benchDecodeConfig()
	cfg.Horizon = 24 * time.Hour
	gen, err := NewGeneratorSource(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "usage.csv")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	w := bufio.NewWriter(f)
	col := make([]float64, cfg.Servers)
	var line []byte
	for {
		i, err := gen.NextColumn(col)
		if err == io.EOF {
			break
		} else if err != nil {
			b.Fatal(err)
		}
		for s, u := range col {
			line = append(line[:0], 'm')
			line = strconv.AppendInt(line, int64(s), 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(i)*300, 10)
			line = append(line, ',')
			line = strconv.AppendFloat(line, u*100, 'g', -1, 64)
			w.Write(append(line, '\n'))
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var cells int64
	for range b.N {
		src, err := OpenLongFormatFile(path, AlibabaOptions())
		if err != nil {
			b.Fatal(err)
		}
		cells += drainBench(b, src)
		src.Close()
	}
	reportNsPerCell(b, cells)
}

// BenchmarkGeneratorSourceDecode draws the synthetic fixture column by
// column from the seeded generator, with no file behind it.
func BenchmarkGeneratorSourceDecode(b *testing.B) {
	b.ReportAllocs()
	var cells int64
	for range b.N {
		src, err := NewGeneratorSource(benchDecodeConfig(), 1)
		if err != nil {
			b.Fatal(err)
		}
		cells += drainBench(b, src)
	}
	reportNsPerCell(b, cells)
}
