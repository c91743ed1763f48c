package server

// Tests for the living-graph serving surface: POST /update routed
// through a real compact.Pipeline, the /stats wal section, and the
// cache bypass that keeps mutating distances exact.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"parapll/internal/compact"
	"parapll/internal/fileio"
	"parapll/internal/graph"
	"parapll/internal/sssp"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// liveServer boots a server in living-graph mode over a small graph,
// mirroring cmd/parapll-server's prepareLive wiring.
func liveServer(t *testing.T, compactEvery int) (*httptest.Server, *Server, *compact.Pipeline, *graph.Graph) {
	t.Helper()
	g := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 5}, {U: 3, V: 4, W: 2},
	}) // vertex 5 isolated
	s := NewPending(&Options{Loader: fileLoader})
	var pipe *compact.Pipeline
	pipe, err := compact.Open(compact.Options{
		Dir: t.TempDir(), Graph: g, CompactEvery: compactEvery,
		OnPublish: func(compact.Report) {
			if _, err := s.Reload(pipe.IndexPath()); err != nil {
				t.Errorf("publishing compaction: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatalf("compact.Open: %v", err)
	}
	t.Cleanup(func() { pipe.Close() })
	s.SetUpdater(pipe)
	idx, err := fileio.LoadIndex(pipe.IndexPath())
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(idx, nil, pipe.IndexPath())
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s, pipe, g
}

func postUpdate(t *testing.T, url string, u, v, w int64) (int, map[string]interface{}) {
	t.Helper()
	body, _ := json.Marshal(map[string]int64{"u": u, "v": v, "w": w})
	resp, err := http.Post(url+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /update reply: %v", err)
	}
	return resp.StatusCode, out
}

func TestUpdateEndpoint(t *testing.T) {
	ts, _, pipe, g := liveServer(t, 0)

	// 0 and 4 are 14 apart; a direct edge shortens them to 1.
	var q struct {
		Dist int64 `json:"dist"`
	}
	if code := getJSON(t, ts.URL+"/query?s=0&t=4", &q); code != http.StatusOK || q.Dist != 14 {
		t.Fatalf("before update: code %d dist %d", code, q.Dist)
	}
	code, out := postUpdate(t, ts.URL, 0, 4, 1)
	if code != http.StatusOK {
		t.Fatalf("/update = %d: %v", code, out)
	}
	if out["wal_records"].(float64) != 1 {
		t.Fatalf("wal_records = %v, want 1", out["wal_records"])
	}
	if code := getJSON(t, ts.URL+"/query?s=0&t=4", &q); code != http.StatusOK || q.Dist != 1 {
		t.Fatalf("after update: code %d dist %d, want 1", code, q.Dist)
	}
	// The previously isolated vertex becomes reachable.
	if code, _ := postUpdate(t, ts.URL, 5, 0, 7); code != http.StatusOK {
		t.Fatalf("second update rejected: %d", code)
	}
	cur := graph.FromEdges(g.NumVertices(), append(g.Edges(),
		graph.Edge{U: 0, V: 4, W: 1}, graph.Edge{U: 5, V: 0, W: 7}))
	for s := graph.Vertex(0); int(s) < cur.NumVertices(); s++ {
		want := sssp.Dijkstra(cur, s)
		for u := graph.Vertex(0); int(u) < cur.NumVertices(); u++ {
			if got := pipe.Query(s, u); got != want[u] {
				t.Fatalf("pipe.Query(%d,%d) = %d, want %d", s, u, got, want[u])
			}
		}
	}
}

func TestUpdateValidation(t *testing.T) {
	ts, _, _, _ := liveServer(t, 0)
	cases := []struct {
		u, v, w int64
		code    int
	}{
		{0, 0, 1, http.StatusBadRequest},                // self loop
		{0, 99, 1, http.StatusBadRequest},               // out of range
		{-1, 2, 1, http.StatusBadRequest},               // negative
		{0, 1, 0, http.StatusBadRequest},                // zero weight
		{0, 1, int64(graph.Inf), http.StatusBadRequest}, // Inf
		{0, 1, 1 << 40, http.StatusBadRequest},          // beyond uint32
	}
	for _, c := range cases {
		if code, out := postUpdate(t, ts.URL, c.u, c.v, c.w); code != c.code {
			t.Errorf("update(%d,%d,%d) = %d (%v), want %d", c.u, c.v, c.w, code, out, c.code)
		}
	}
}

func TestUpdateWithoutPipeline(t *testing.T) {
	ts, _ := testServer(t, false)
	body := bytes.NewReader([]byte(`{"u":0,"v":1,"w":2}`))
	resp, err := http.Post(ts.URL+"/update", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("/update without -wal = %d, want 412", resp.StatusCode)
	}
}

func TestStatsAndMetricsExposeWAL(t *testing.T) {
	ts, _, pipe, _ := liveServer(t, 0)
	for i := int64(0); i < 3; i++ {
		if code, _ := postUpdate(t, ts.URL, i, i+1, 9); code != http.StatusOK {
			t.Fatalf("update %d rejected", i)
		}
	}
	var stats struct {
		Wal *compact.Stats `json:"wal"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	if stats.Wal == nil || stats.Wal.WALRecords != 3 {
		t.Fatalf("stats.wal = %+v, want 3 records", stats.Wal)
	}
	var m map[string]interface{}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	gauges, ok := m["gauges"].(map[string]interface{})
	if !ok {
		t.Fatalf("metrics have no gauges: %v", m)
	}
	if gauges["wal.records"].(float64) != 3 {
		t.Fatalf("wal.records gauge = %v, want 3", gauges["wal.records"])
	}
	if _, err := pipe.Compact(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatal("re-scrape failed")
	}
	gauges = m["gauges"].(map[string]interface{})
	if gauges["wal.records"].(float64) != 0 || gauges["compact.generation"].(float64) != 1 {
		t.Fatalf("post-compaction gauges = %v", gauges)
	}
}

// TestCompactionPublishesGeneration drives the full rolling-publish
// flow: threshold-triggered background compaction republishes the
// checkpoint through /reload, bumping the snapshot generation while
// queries stay exact throughout.
func TestCompactionPublishesGeneration(t *testing.T) {
	ts, s, pipe, g := liveServer(t, 3)
	gen0 := s.Generation()
	edges := []graph.Edge{{U: 0, V: 3, W: 1}, {U: 1, V: 4, W: 1}, {U: 2, V: 5, W: 1}}
	for _, e := range edges {
		if code, _ := postUpdate(t, ts.URL, int64(e.U), int64(e.V), int64(e.W)); code != http.StatusOK {
			t.Fatalf("update %v rejected", e)
		}
	}
	waitFor(t, func() bool { return pipe.Generation() >= 1 && s.Generation() > gen0 })
	cur := graph.FromEdges(g.NumVertices(), append(g.Edges(), edges...))
	var q struct {
		Dist int64 `json:"dist"`
	}
	for s0 := graph.Vertex(0); int(s0) < cur.NumVertices(); s0++ {
		want := sssp.Dijkstra(cur, s0)
		for u := graph.Vertex(0); int(u) < cur.NumVertices(); u++ {
			url := fmt.Sprintf("%s/query?s=%d&t=%d", ts.URL, s0, u)
			if code := getJSON(t, url, &q); code != http.StatusOK {
				t.Fatalf("query %d,%d = %d", s0, u, code)
			}
			wantD := int64(-1)
			if want[u] != graph.Inf {
				wantD = int64(want[u])
			}
			if q.Dist != wantD {
				t.Fatalf("query(%d,%d) = %d, want %d", s0, u, q.Dist, wantD)
			}
		}
	}
}
