package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"parapll/internal/fileio"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pathidx"
	"parapll/internal/pll"
)

// lineGraph builds a path graph 0-1-...-(n-1) with unit weights, so
// d(0, n-1) = n-1 identifies which index generation answered.
func lineGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.Vertex(i), V: graph.Vertex(i + 1), W: 1}
	}
	return graph.FromEdges(n, edges)
}

// fileLoader is cmd/parapll-server's Loader: read the index file and
// leave the path index to the carry-over rule.
func fileLoader(path string) (*label.Index, *pathidx.Index, error) {
	idx, err := fileio.LoadIndex(path)
	return idx, nil, err
}

func saveLineIndex(t *testing.T, dir string, n int, format string) string {
	t.Helper()
	x := pll.Build(lineGraph(n), pll.Options{})
	path := filepath.Join(dir, fmt.Sprintf("line%d.%s.idx", n, format))
	if err := fileio.SaveIndexAs(path, x, format); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadyzPendingToReady(t *testing.T) {
	s := NewPending(nil)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	var body map[string]interface{}
	if code := getJSON(t, ts.URL+"/readyz", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before publish: status %d, want 503", code)
	}
	if body["status"] != "loading" {
		t.Fatalf("readyz body = %v", body)
	}
	// Query endpoints also refuse with 503 while pending; /healthz is up.
	var e map[string]string
	if code := getJSON(t, ts.URL+"/query?s=0&t=1", &e); code != http.StatusServiceUnavailable {
		t.Fatalf("/query before publish: status %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", &e); code != http.StatusOK {
		t.Fatalf("/healthz before publish: status %d, want 200", code)
	}

	gen := s.Publish(pll.Build(lineGraph(4), pll.Options{}), nil, "")
	if gen != 1 {
		t.Fatalf("first publish generation = %d, want 1", gen)
	}
	if code := getJSON(t, ts.URL+"/readyz", &body); code != http.StatusOK {
		t.Fatalf("/readyz after publish: status %d, want 200", code)
	}
	if body["status"] != "ready" || body["generation"].(float64) != 1 {
		t.Fatalf("readyz body = %v", body)
	}
	var q queryResponse
	if code := getJSON(t, ts.URL+"/query?s=0&t=3", &q); code != http.StatusOK || q.Dist != 3 {
		t.Fatalf("/query after publish: status %d, dist %d", code, q.Dist)
	}
}

func postReload(t *testing.T, url, path string) (int, reloadResponse) {
	t.Helper()
	var body io.Reader
	if path != "" {
		b, _ := json.Marshal(reloadRequest{Path: path})
		body = bytes.NewReader(b)
	}
	resp, err := http.Post(url+"/reload", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out reloadResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

func TestReloadEndpoint(t *testing.T) {
	dir := t.TempDir()
	small := saveLineIndex(t, dir, 4, label.FormatMmap)
	big := saveLineIndex(t, dir, 9, label.FormatMmap)

	s := NewPending(&Options{Loader: fileLoader})
	first, err := fileio.LoadIndex(small)
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(first, nil, small)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Reload onto a different artifact: generation bumps, stats flip to
	// the new index (size and source prove the swap happened).
	code, out := postReload(t, ts.URL, big)
	if code != http.StatusOK {
		t.Fatalf("reload: status %d", code)
	}
	if out.Generation != 2 || out.Vertices != 9 || out.Format != label.FormatMmap {
		t.Fatalf("reload response = %+v", out)
	}
	var st statsResponse
	if c := getJSON(t, ts.URL+"/stats", &st); c != http.StatusOK {
		t.Fatalf("stats: status %d", c)
	}
	if st.Generation != 2 || st.Vertices != 9 || st.Format != label.FormatMmap || st.Source != big {
		t.Fatalf("stats after reload = %+v", st)
	}
	var q queryResponse
	if c := getJSON(t, ts.URL+"/query?s=0&t=8", &q); c != http.StatusOK || q.Dist != 8 {
		t.Fatalf("query after reload: status %d dist %d", c, q.Dist)
	}

	// Empty body re-reads the current source.
	code, out = postReload(t, ts.URL, "")
	if code != http.StatusOK || out.Generation != 3 || out.Source != big {
		t.Fatalf("empty reload: status %d, %+v", code, out)
	}

	// A loader failure must keep the old snapshot serving.
	code, _ = postReload(t, ts.URL, filepath.Join(dir, "missing.idx"))
	if code != http.StatusInternalServerError {
		t.Fatalf("reload of missing file: status %d, want 500", code)
	}
	if c := getJSON(t, ts.URL+"/query?s=0&t=8", &q); c != http.StatusOK || q.Dist != 8 {
		t.Fatalf("query after failed reload: status %d dist %d", c, q.Dist)
	}
}

// The path index is graph-derived state the loader cannot rebuild, so a
// reload carries it over only when re-reading the same artifact; after
// switching to a different artifact /path must 404 rather than answer
// (or panic) from a path index validated against another graph.
func TestReloadPathIndexCarryOver(t *testing.T) {
	dir := t.TempDir()
	a := saveLineIndex(t, dir, 6, label.FormatMmap)
	b := saveLineIndex(t, dir, 9, label.FormatMmap)

	s := NewPending(&Options{Loader: fileLoader})
	first, err := fileio.LoadIndex(a)
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(first, pathidx.Build(lineGraph(6), pathidx.Options{Threads: 1}), a)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Same artifact: the path index survives the swap.
	if code, _ := postReload(t, ts.URL, a); code != http.StatusOK {
		t.Fatalf("same-path reload: status %d", code)
	}
	var p pathResponse
	if code := getJSON(t, ts.URL+"/path?s=0&t=5", &p); code != http.StatusOK || p.Dist != 5 {
		t.Fatalf("path after same-path reload: status %d, %+v", code, p)
	}

	// Different artifact (and vertex count): the stale path index is
	// dropped — t=8 is valid in the new index but out of range for the
	// old path index, which would panic if carried over.
	if code, _ := postReload(t, ts.URL, b); code != http.StatusOK {
		t.Fatalf("cross-path reload: status %d", code)
	}
	var e map[string]string
	if code := getJSON(t, ts.URL+"/path?s=0&t=8", &e); code != http.StatusNotFound {
		t.Fatalf("path after cross-path reload: status %d, want 404", code)
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK || st.HasPathIndex {
		t.Fatalf("stats after cross-path reload: status %d, %+v", code, st)
	}
}

// POST /reload bounds its body like /batch does: a path payload is
// tiny, so an oversized body is rejected before it is buffered.
func TestReloadBodyTooLarge(t *testing.T) {
	dir := t.TempDir()
	path := saveLineIndex(t, dir, 4, label.FormatMmap)
	s := NewPending(&Options{Loader: fileLoader})
	s.Publish(pll.Build(lineGraph(4), pll.Options{}), nil, path)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Well-formed JSON so the decoder keeps reading until the byte cap
	// trips (junk would fail parsing before the limit is reached).
	huge := append([]byte(`{"path":"`), bytes.Repeat([]byte("x"), maxReloadBytes+1)...)
	huge = append(huge, '"', '}')
	resp, err := http.Post(ts.URL+"/reload", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized reload body: status %d, want 413", resp.StatusCode)
	}
}

func TestReloadWithoutLoader(t *testing.T) {
	ts, _ := testServer(t, false)
	code, _ := postReload(t, ts.URL, "whatever.idx")
	if code != http.StatusPreconditionFailed {
		t.Fatalf("reload without loader: status %d, want 412", code)
	}
}

func TestReloadBusy(t *testing.T) {
	dir := t.TempDir()
	path := saveLineIndex(t, dir, 4, label.FormatMmap)
	block := make(chan struct{})
	entered := make(chan struct{})
	s := NewPending(&Options{Loader: func(p string) (*label.Index, *pathidx.Index, error) {
		close(entered)
		<-block
		return fileLoader(p)
	}})
	s.Publish(pll.Build(lineGraph(4), pll.Options{}), nil, path)

	done := make(chan error, 1)
	go func() {
		_, err := s.Reload(path)
		done <- err
	}()
	<-entered
	if _, err := s.Reload(path); err != ErrReloadBusy {
		t.Fatalf("concurrent reload: err = %v, want ErrReloadBusy", err)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("first reload: %v", err)
	}
}

// The KNN index is derived per snapshot: after a reload it must answer
// from the new index, not a stale pin of the old one.
func TestReloadRebuildsKNN(t *testing.T) {
	dir := t.TempDir()
	small := saveLineIndex(t, dir, 3, label.FormatMmap)
	big := saveLineIndex(t, dir, 8, label.FormatMmap)

	s := NewPending(&Options{Loader: fileLoader})
	first, err := fileio.LoadIndex(small)
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(first, nil, small)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	var resp knnResponse
	if code := getJSON(t, ts.URL+"/knn?s=0&k=2", &resp); code != http.StatusOK {
		t.Fatalf("knn: status %d", code)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("knn on 3-vertex line: %d results", len(resp.Results))
	}

	if code, _ := postReload(t, ts.URL, big); code != http.StatusOK {
		t.Fatalf("reload: status %d", code)
	}
	// k=6 only exists in the new 8-vertex index; a stale KNN pinned to
	// the 3-vertex index could not produce it.
	if code := getJSON(t, ts.URL+"/knn?s=0&k=6", &resp); code != http.StatusOK {
		t.Fatalf("knn after reload: status %d", code)
	}
	if len(resp.Results) != 6 {
		t.Fatalf("knn after reload: %d results, want 6", len(resp.Results))
	}
	for _, r := range resp.Results {
		if graph.Dist(r.V) != r.D {
			t.Fatalf("knn after reload: d(0,%d) = %d, want %d", r.V, r.D, r.V)
		}
	}
}

// TestHotReloadHammer swaps snapshots while queries and batches are in
// flight. Every response must be a 200 answering consistently from
// whichever snapshot it started on; run under -race this also proves
// the swap itself is data-race-free.
func TestHotReloadHammer(t *testing.T) {
	dir := t.TempDir()
	paths := []string{
		saveLineIndex(t, dir, 6, label.FormatCompact),
		saveLineIndex(t, dir, 6, label.FormatMmap),
	}
	s := NewPending(&Options{Loader: fileLoader})
	first, err := fileio.LoadIndex(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(first, nil, paths[0])
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	const (
		queryWorkers = 4
		batchWorkers = 2
		reloads      = 40
	)
	var bad atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(fmt.Sprintf("%s/query?s=0&t=%d", ts.URL, 1+i%5))
				if err != nil {
					t.Error(err)
					bad.Add(1)
					return
				}
				var q queryResponse
				decErr := json.NewDecoder(resp.Body).Decode(&q)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil || q.Dist != int64(1+i%5) {
					bad.Add(1)
				}
			}
		}()
	}
	for w := 0; w < batchWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(batchRequest{Pairs: [][2]graph.Vertex{{0, 5}, {5, 0}, {2, 2}}})
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					bad.Add(1)
					return
				}
				var b batchResponse
				decErr := json.NewDecoder(resp.Body).Decode(&b)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil ||
					len(b.Dists) != 3 || b.Dists[0] != 5 || b.Dists[1] != 5 || b.Dists[2] != 0 {
					bad.Add(1)
				}
			}
		}()
	}

	for i := 0; i < reloads; i++ {
		code, _ := postReload(t, ts.URL, paths[i%len(paths)])
		// Reloads are serialized by postReload itself here, so 409 never
		// fires; anything but 200 is a bug.
		if code != http.StatusOK {
			t.Errorf("reload %d: status %d", i, code)
		}
	}
	close(stop)
	wg.Wait()

	if n := bad.Load(); n != 0 {
		t.Fatalf("%d bad responses during hot reload", n)
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Generation != uint64(1+reloads) {
		t.Fatalf("final generation = %d, want %d", st.Generation, 1+reloads)
	}
}
