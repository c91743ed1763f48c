package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"parapll/internal/fileio"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
)

// LoadResult is one load+serve measurement: an index saved in one of
// the two on-disk formats, then opened cold and queried. The point of
// the experiment is the OpenMillis column: the heap-decoding compact
// format grows linearly with entry count while the mmap-native format
// stays flat (O(1) open — the arrays alias the page cache). QueryMicros
// shows the serving cost is the same either way, and Identical confirms
// every format answers bit-identically to the in-memory index it came
// from.
type LoadResult struct {
	Dataset  string `json:"dataset"`
	Vertices int    `json:"vertices"`
	Entries  int64  `json:"index_entries"`
	Format   string `json:"format"`
	// FileBytes is the on-disk artifact size.
	FileBytes int64 `json:"file_bytes"`
	// OpenMillis is the time from LoadIndex call to a queryable index.
	OpenMillis float64 `json:"open_ms"`
	// QueryMicros is the mean per-query latency over the random pass.
	QueryMicros float64 `json:"query_us_mean"`
	// Identical reports whether every probed query matched the built
	// in-memory index exactly.
	Identical bool `json:"answers_identical"`
}

// loadFormats is the sweep order: the decode format, then mmap.
var loadFormats = []string{label.FormatCompact, label.FormatMmap}

// RunLoad benchmarks index load+serve across on-disk formats: for every
// dataset in cfg, build an index, save it in compact and mmap-native
// form, then time a cold open and a random query pass for each,
// verifying answers against the built index. Returns the rendered table
// plus raw records for JSON output.
func RunLoad(cfg Config) (*Table, []LoadResult, error) {
	recs, err := cfg.recipes()
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "parapll-load-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	t := &Table{
		Title:  "Index load+serve by format — open = time to queryable, mmap opens O(1) vs O(entries) decode",
		Header: []string{"dataset", "n", "entries", "format", "file_KB", "open_ms", "query_us", "identical"},
	}
	var out []LoadResult
	for _, rec := range recs {
		g := rec.Generate(cfg.Scale)
		built := pll.Build(g, pll.Options{Order: graph.DegreeOrder(g)})
		for _, format := range loadFormats {
			res, err := measureLoad(dir, rec.Name, g, built, format)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, res)
			t.AddRow(
				rec.Name,
				fmt.Sprint(res.Vertices),
				fmt.Sprint(res.Entries),
				res.Format,
				fmt.Sprintf("%.1f", float64(res.FileBytes)/1024),
				fmt.Sprintf("%.2f", res.OpenMillis),
				fmt.Sprintf("%.3f", res.QueryMicros),
				fmt.Sprint(res.Identical),
			)
		}
	}
	return t, out, nil
}

func measureLoad(dir, name string, g *graph.Graph, built *label.Index, format string) (LoadResult, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-%s.idx", name, format))
	if err := fileio.SaveIndexAs(path, built, format); err != nil {
		return LoadResult{}, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return LoadResult{}, err
	}

	t0 := time.Now()
	x, err := fileio.LoadIndex(path)
	if err != nil {
		return LoadResult{}, err
	}
	openMs := float64(time.Since(t0).Microseconds()) / 1e3

	n := x.NumVertices()
	r := rand.New(rand.NewSource(42))
	const probes = 2000
	pairs := make([][2]graph.Vertex, probes)
	for i := range pairs {
		pairs[i] = [2]graph.Vertex{graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))}
	}
	got := make([]graph.Dist, probes)
	t1 := time.Now()
	for i, p := range pairs {
		got[i] = x.Query(p[0], p[1])
	}
	queryUs := float64(time.Since(t1).Microseconds()) / probes
	identical := true
	for i, p := range pairs {
		if got[i] != built.Query(p[0], p[1]) {
			identical = false
			break
		}
	}

	return LoadResult{
		Dataset:     name,
		Vertices:    n,
		Entries:     x.NumEntries(),
		Format:      format,
		FileBytes:   fi.Size(),
		OpenMillis:  openMs,
		QueryMicros: queryUs,
		Identical:   identical && x.Equal(built),
	}, nil
}

// WriteLoadJSON serializes load results as indented JSON (the
// BENCH_load.json format).
func WriteLoadJSON(w io.Writer, results []LoadResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
