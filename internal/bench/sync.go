package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"parapll/internal/cluster"
	"parapll/internal/graph"
	"parapll/internal/stats"
)

// SyncResult is one sync-pipeline measurement: a full cluster build on
// the in-process transport at a given sync count, blocking or
// overlapped. scripts/bench.sh sync serializes these to BENCH_sync.json
// so the pipeline's throughput and compression are tracked over time.
type SyncResult struct {
	Dataset string `json:"dataset"`
	Nodes   int    `json:"nodes"`
	// SyncCount is the paper's c for this run.
	SyncCount int  `json:"sync_count"`
	Overlap   bool `json:"overlap"`
	// WallSeconds is the end-to-end RunLocal time (all nodes, one host).
	WallSeconds float64 `json:"wall_seconds"`
	// CompSeconds / CommSeconds / FinalizeSeconds are maxima over nodes.
	// CommSeconds is the *exposed* communication cost — in overlapped
	// mode, the part the overlap failed to hide.
	CompSeconds     float64 `json:"comp_seconds_max"`
	CommSeconds     float64 `json:"exposed_comm_seconds_max"`
	FinalizeSeconds float64 `json:"finalize_seconds_max"`
	// UpdatesSent / WireBytes / RawBytes sum over all nodes and rounds.
	// Compression = RawBytes / WireBytes (raw = 12 B fixed per update).
	UpdatesSent int64   `json:"updates_sent"`
	WireBytes   int64   `json:"wire_bytes_sent"`
	RawBytes    int64   `json:"raw_bytes_sent"`
	Compression float64 `json:"compression_ratio"`
	// Entries / AvgLabel describe the final index (identical on every
	// node); redundancy from delayed or overlapped sync shows up here.
	Entries  int64   `json:"index_entries"`
	AvgLabel float64 `json:"avg_label_size"`
}

// RunSync benchmarks the cluster sync pipeline: for every dataset and
// sync count in cfg, a blocking and an overlapped build on a simulated
// `nodes`-node cluster. Returns the rendered table plus the raw
// records for JSON output.
func RunSync(cfg Config, nodes, threadsPerNode int) (*Table, []SyncResult, error) {
	recs, err := cfg.recipes()
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Sync pipeline: blocking vs overlapped cluster builds (%d nodes, %d threads/node) — comm = exposed sync cost, ratio = raw/wire",
			nodes, threadsPerNode),
		Header: []string{"dataset", "c", "overlap", "wall_s", "comp_s", "comm_s", "wire_KB", "ratio", "ln"},
	}
	var out []SyncResult
	for _, rec := range recs {
		g := rec.Generate(cfg.Scale)
		ord := graph.DegreeOrder(g)
		for _, c := range cfg.SyncCounts {
			for _, overlap := range []bool{false, true} {
				res, err := measureSync(g, rec.Name, nodes, threadsPerNode, c, overlap, ord)
				if err != nil {
					return nil, nil, err
				}
				out = append(out, res)
				t.AddRow(
					rec.Name,
					fmt.Sprint(c),
					fmt.Sprint(overlap),
					stats.FormatDuration(time.Duration(res.WallSeconds*float64(time.Second))),
					stats.FormatDuration(time.Duration(res.CompSeconds*float64(time.Second))),
					stats.FormatDuration(time.Duration(res.CommSeconds*float64(time.Second))),
					fmt.Sprintf("%.1f", float64(res.WireBytes)/1024),
					fmt.Sprintf("%.2f", res.Compression),
					fmt.Sprintf("%.1f", res.AvgLabel),
				)
			}
		}
	}
	return t, out, nil
}

func measureSync(g *graph.Graph, name string, nodes, threads, c int, overlap bool, ord []graph.Vertex) (SyncResult, error) {
	t0 := time.Now()
	idxs, sts, err := cluster.RunLocal(g, nodes, cluster.Options{
		Threads: threads, SyncCount: c, Order: ord, Overlap: overlap,
	})
	wall := time.Since(t0)
	if err != nil {
		return SyncResult{}, err
	}
	res := SyncResult{
		Dataset:     name,
		Nodes:       nodes,
		SyncCount:   c,
		Overlap:     overlap,
		WallSeconds: wall.Seconds(),
		Entries:     idxs[0].NumEntries(),
		AvgLabel:    idxs[0].AvgLabelSize(),
	}
	for _, s := range sts {
		if v := s.CompTime.Seconds(); v > res.CompSeconds {
			res.CompSeconds = v
		}
		if v := s.CommTime.Seconds(); v > res.CommSeconds {
			res.CommSeconds = v
		}
		if v := s.FinalizeTime.Seconds(); v > res.FinalizeSeconds {
			res.FinalizeSeconds = v
		}
		res.UpdatesSent += totalUpdates(s)
		res.WireBytes += s.BytesSent
		res.RawBytes += s.RawBytesSent
	}
	if res.WireBytes > 0 {
		res.Compression = float64(res.RawBytes) / float64(res.WireBytes)
	}
	return res, nil
}

func totalUpdates(s *cluster.Stats) int64 {
	var n int64
	for _, r := range s.Rounds {
		n += r.UpdatesSent
	}
	return n
}

// WriteSyncJSON serializes sync results as indented JSON (the
// BENCH_sync.json format).
func WriteSyncJSON(w io.Writer, results []SyncResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
