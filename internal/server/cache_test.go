package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"parapll/internal/fileio"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/metrics"
	"parapll/internal/pll"
)

func TestBatchThreadsDefaultAndSetter(t *testing.T) {
	s := NewPending(nil)
	want := 4
	if p := runtime.GOMAXPROCS(0); p < want {
		want = p
	}
	if got := s.BatchThreads(); got != want {
		t.Fatalf("default BatchThreads = %d, want %d", got, want)
	}
	if got := NewPending(&Options{BatchThreads: 9}).BatchThreads(); got != 9 {
		t.Fatalf("BatchThreads with Options.BatchThreads 9 = %d, want 9", got)
	}
	for _, n := range []int{0, -3} { // <= 0 means the default
		if got := NewPending(&Options{BatchThreads: n}).BatchThreads(); got != want {
			t.Fatalf("BatchThreads with Options.BatchThreads %d = %d, want %d", n, got, want)
		}
	}
}

func TestCacheServesAndCounts(t *testing.T) {
	s := NewPending(nil)
	s.SetCacheEntries(1024)
	s.Publish(pll.Build(lineGraph(6), pll.Options{}), nil, "")
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Same pair twice, plus the reversed pair: the second and third must
	// hit (label.Index is symmetric, and Publish wraps it that way).
	for _, q := range []string{"/query?s=0&t=5", "/query?s=0&t=5", "/query?s=5&t=0"} {
		var resp queryResponse
		if code := getJSON(t, ts.URL+q, &resp); code != http.StatusOK || resp.Dist != 5 {
			t.Fatalf("%s: status %d dist %d", q, code, resp.Dist)
		}
	}
	st := s.Cache().Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("cache stats = %+v, want 1 miss then 2 hits", st)
	}

	// /stats surfaces the same numbers.
	var stats statsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats: status %d", code)
	}
	if stats.Cache == nil || stats.Cache.Hits != 2 || stats.Cache.Misses != 1 {
		t.Fatalf("/stats cache = %+v", stats.Cache)
	}

	// /metrics carries the live counters wired by SetCacheEntries.
	var snap metrics.Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if snap.Counters["cache.hits"] != 2 || snap.Counters["cache.misses"] != 1 {
		t.Fatalf("metrics counters = hits %d misses %d, want 2/1",
			snap.Counters["cache.hits"], snap.Counters["cache.misses"])
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	s := NewPending(nil)
	s.Publish(pll.Build(lineGraph(4), pll.Options{}), nil, "")
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	var stats statsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats: status %d", code)
	}
	if stats.Cache != nil {
		t.Fatalf("cache stats present without SetCacheEntries: %+v", stats.Cache)
	}
	if s.Cache() != nil {
		t.Fatal("Cache() non-nil without SetCacheEntries")
	}
}

// weightedLineIndex saves a line graph 0-1-...-(n-1) with edge weight w,
// so d(0, n-1) = (n-1)*w distinguishes artifacts of identical shape.
func saveWeightedLineIndex(t *testing.T, dir string, n int, w graph.Dist, format string) string {
	t.Helper()
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.Vertex(i), V: graph.Vertex(i + 1), W: w}
	}
	x := pll.Build(graph.FromEdges(n, edges), pll.Options{})
	path := filepath.Join(dir, fmt.Sprintf("line%d-w%d.%s.idx", n, w, format))
	if err := fileio.SaveIndexAs(path, x, format); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCacheReloadNeverStale is the correctness crux of the distance
// cache: a /reload hot-swap bumps the snapshot generation, and because
// cache keys include the generation, a post-swap query must never be
// answered from a pre-swap entry. Two artifacts share vertex ids but
// differ in edge weight, so d(0,5) names the artifact that answered:
// serving the other artifact's distance is exactly the staleness bug.
// Run under -race this also hammers cache Put/Get against the swap.
func TestCacheReloadNeverStale(t *testing.T) {
	dir := t.TempDir()
	pathA := saveWeightedLineIndex(t, dir, 6, 1, label.FormatMmap) // d(0,5) = 5
	pathB := saveWeightedLineIndex(t, dir, 6, 2, label.FormatMmap) // d(0,5) = 10
	want := map[string]int64{pathA: 5, pathB: 10}

	s := NewPending(&Options{Loader: fileLoader})
	s.SetCacheEntries(4096)
	first, err := fileio.LoadIndex(pathA)
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(first, nil, pathA)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Background hammer: keeps the cache hot on the probe pair and its
	// neighbors across every swap. Answers must always come from ONE of
	// the two artifacts — anything else is corruption.
	stop := make(chan struct{})
	var bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tt := 1 + i%5
				resp, err := http.Get(fmt.Sprintf("%s/query?s=0&t=%d", ts.URL, tt))
				if err != nil {
					bad.Add(1)
					return
				}
				var q queryResponse
				decErr := json.NewDecoder(resp.Body).Decode(&q)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil ||
					(q.Dist != int64(tt) && q.Dist != int64(2*tt)) {
					bad.Add(1)
				}
			}
		}()
	}

	// Foreground: swap between the artifacts and assert — immediately
	// after each swap, with the cache fully warm on the old generation —
	// that the probe pair answers from the new artifact.
	paths := []string{pathB, pathA}
	for i := 0; i < 30; i++ {
		p := paths[i%2]
		if code, _ := postReload(t, ts.URL, p); code != http.StatusOK {
			t.Fatalf("reload %d: status %d", i, code)
		}
		for rep := 0; rep < 3; rep++ { // repeat: hit the fresh generation's cache too
			var q queryResponse
			if code := getJSON(t, ts.URL+"/query?s=0&t=5", &q); code != http.StatusOK {
				t.Fatalf("query after reload %d: status %d", i, code)
			}
			if q.Dist != want[p] {
				t.Fatalf("STALE CACHE after reload %d to %s: d(0,5) = %d, want %d",
					i, p, q.Dist, want[p])
			}
		}
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d bad hammer responses", n)
	}
	if st := s.Cache().Stats(); st.Hits == 0 {
		t.Fatalf("hammer produced no cache hits: %+v", st)
	}
}

func TestBatchUsesConfiguredThreads(t *testing.T) {
	// Behavioral smoke: /batch answers identically for 1 and many
	// configured threads, each on its own server and cache.
	idx := pll.Build(lineGraph(40), pll.Options{})
	pairs := make([][2]graph.Vertex, 100)
	for i := range pairs {
		pairs[i] = [2]graph.Vertex{graph.Vertex(i % 40), graph.Vertex((i * 7) % 40)}
	}
	run := func(threads int) []int64 {
		s := NewPending(&Options{BatchThreads: threads})
		s.SetCacheEntries(256)
		s.Publish(idx, nil, "")
		ts := httptest.NewServer(s)
		defer ts.Close()
		body, _ := json.Marshal(batchRequest{Pairs: pairs})
		resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b batchResponse
		if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
			t.Fatal(err)
		}
		return b.Dists
	}
	one, eight := run(1), run(8)
	if len(one) != len(pairs) || len(eight) != len(pairs) {
		t.Fatalf("got %d and %d dists for %d pairs", len(one), len(eight), len(pairs))
	}
	for i := range one {
		if one[i] != eight[i] {
			t.Fatalf("pair %d: threads=1 gives %d, threads=8 gives %d", i, one[i], eight[i])
		}
	}
}
