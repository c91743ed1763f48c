package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"parapll/internal/graph"
	"parapll/internal/metrics"
	"parapll/internal/pathidx"
	"parapll/internal/pll"
	"parapll/internal/sssp"
)

func testServer(t *testing.T, withPath bool) (*httptest.Server, *graph.Graph) {
	t.Helper()
	g := graph.FromEdges(5, []graph.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 5},
	}) // vertex 4 isolated
	idx := pll.Build(g, pll.Options{})
	var pidx *pathidx.Index
	if withPath {
		pidx = pathidx.Build(g, pathidx.Options{Threads: 1})
	}
	s := NewPending(nil)
	s.Publish(idx, pidx, "")
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, g
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestQueryEndpoint(t *testing.T) {
	ts, g := testServer(t, false)
	var resp queryResponse
	if code := getJSON(t, ts.URL+"/query?s=0&t=3", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	want := sssp.Query(g, 0, 3)
	if resp.Dist != int64(want) || !resp.Reachable {
		t.Fatalf("resp = %+v, want dist %d", resp, want)
	}
	// Unreachable pair encodes dist -1.
	if code := getJSON(t, ts.URL+"/query?s=0&t=4", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Dist != -1 || resp.Reachable {
		t.Fatalf("unreachable resp = %+v", resp)
	}
}

func TestQueryValidation(t *testing.T) {
	ts, _ := testServer(t, false)
	for _, q := range []string{
		"/query?t=1",      // missing s
		"/query?s=0",      // missing t
		"/query?s=x&t=1",  // non-numeric
		"/query?s=99&t=1", // out of range
		"/query?s=-1&t=1", // negative
	} {
		var e map[string]string
		if code := getJSON(t, ts.URL+q, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
		if e["error"] == "" {
			t.Errorf("%s: missing error message", q)
		}
	}
	resp, err := http.Post(ts.URL+"/query?s=0&t=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /query: status %d, want 405", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts, g := testServer(t, false)
	body, _ := json.Marshal(batchRequest{Pairs: [][2]graph.Vertex{{0, 3}, {3, 0}, {0, 4}, {2, 2}}})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	want03 := int64(sssp.Query(g, 0, 3))
	if len(out.Dists) != 4 || out.Dists[0] != want03 || out.Dists[1] != want03 ||
		out.Dists[2] != -1 || out.Dists[3] != 0 {
		t.Fatalf("batch = %v", out.Dists)
	}
}

func TestBatchValidation(t *testing.T) {
	ts, _ := testServer(t, false)
	for name, body := range map[string]string{
		"bad-json":     "{nope",
		"out-of-range": `{"pairs":[[0,99]]}`,
	} {
		resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// GET not allowed.
	resp, err := http.Get(ts.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch: status %d", resp.StatusCode)
	}
}

// TestBatchPairArity: a pair must be exactly [s,t]. encoding/json pads
// or truncates a fixed-size array, which used to answer d(3,0) for [3],
// d(0,0) for [] and silently drop the 5 of [3,4,5].
func TestBatchPairArity(t *testing.T) {
	ts, _ := testServer(t, false)
	for body, want := range map[string]string{
		`{"pairs":[[3]]}`:           "pair 0: want [s,t]",
		`{"pairs":[[]]}`:            "pair 0: want [s,t]",
		`{"pairs":[[0,1],[3,4,5]]}`: "pair 1: want [s,t]",
	} {
		resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var reply map[string]any
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding reply: %v", body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || reply["error"] != want {
			t.Errorf("%s: status %d, reply %v; want 400 %q", body, resp.StatusCode, reply, want)
		}
	}
}

func TestPathEndpoint(t *testing.T) {
	ts, g := testServer(t, true)
	var resp pathResponse
	if code := getJSON(t, ts.URL+"/path?s=0&t=3", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Dist != int64(sssp.Query(g, 0, 3)) {
		t.Fatalf("path dist = %d", resp.Dist)
	}
	if len(resp.Path) != 4 || resp.Path[0] != 0 || resp.Path[3] != 3 {
		t.Fatalf("path = %v", resp.Path)
	}
	// Unreachable.
	if code := getJSON(t, ts.URL+"/path?s=0&t=4", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Dist != -1 || resp.Path != nil {
		t.Fatalf("unreachable path = %+v", resp)
	}
}

func TestPathWithoutIndex(t *testing.T) {
	ts, _ := testServer(t, false)
	var e map[string]string
	if code := getJSON(t, ts.URL+"/path?s=0&t=3", &e); code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", code)
	}
}

func TestKNNEndpoint(t *testing.T) {
	ts, g := testServer(t, false)
	var resp knnResponse
	if code := getJSON(t, ts.URL+"/knn?s=0&k=2", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}
	want := sssp.Dijkstra(g, 0)
	for _, r := range resp.Results {
		if want[r.V] != r.D {
			t.Fatalf("knn d(0,%d) = %d, want %d", r.V, r.D, want[r.V])
		}
	}
	// Isolated vertex: empty but valid JSON array.
	if code := getJSON(t, ts.URL+"/knn?s=4&k=3", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Results == nil || len(resp.Results) != 0 {
		t.Fatalf("isolated knn = %v, want empty array", resp.Results)
	}
	// Validation.
	var e map[string]string
	for _, q := range []string{"/knn?s=0", "/knn?s=0&k=0", "/knn?s=0&k=999999", "/knn?k=2"} {
		if code := getJSON(t, ts.URL+q, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := testServer(t, true)
	var resp statsResponse
	if code := getJSON(t, ts.URL+"/stats", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Vertices != 5 || resp.Entries < 5 || !resp.HasPathIndex {
		t.Fatalf("stats = %+v", resp)
	}
}

func TestConcurrentQueries(t *testing.T) {
	ts, _ := testServer(t, false)
	done := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func(i int) {
			var resp queryResponse
			url := fmt.Sprintf("%s/query?s=%d&t=%d", ts.URL, i%4, (i+1)%4)
			r, err := http.Get(url)
			if err != nil {
				done <- err
				return
			}
			defer r.Body.Close()
			done <- json.NewDecoder(r.Body).Decode(&resp)
		}(i)
	}
	for i := 0; i < 20; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// do issues a method/path request and returns the status code.
func do(t *testing.T, method, url string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestMethodNotAllowedEverywhere(t *testing.T) {
	ts, _ := testServer(t, true)
	cases := map[string]string{
		"/query?s=0&t=1": http.MethodPost,
		"/batch":         http.MethodGet,
		"/path?s=0&t=1":  http.MethodDelete,
		"/knn?s=0&k=1":   http.MethodPost,
		"/stats":         http.MethodPut,
		"/metrics":       http.MethodPost,
		"/healthz":       http.MethodPost,
		"/debug/explain": http.MethodPost,
		"/debug/health":  http.MethodPost,
		"/debug/bundle":  http.MethodPost,
	}
	for path, method := range cases {
		if code := do(t, method, ts.URL+path, nil); code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", method, path, code)
		}
	}
}

func TestBatchOversizedBody(t *testing.T) {
	ts, _ := testServer(t, false)
	// A syntactically valid prefix that keeps the decoder reading past
	// the byte limit.
	body := append([]byte(`{"pairs":[`), bytes.Repeat([]byte("[0,1],"), maxBatchBytes/6+2)...)
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e["error"] == "" {
		t.Fatal("missing error message")
	}
}

func TestBatchPairOutOfRange(t *testing.T) {
	ts, _ := testServer(t, false)
	for name, body := range map[string]string{
		"too-big":  `{"pairs":[[0,1],[0,99]]}`,
		"negative": `{"pairs":[[-1,0]]}`,
	} {
		resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestHealthzEndpoint(t *testing.T) {
	ts, _ := testServer(t, false)
	var resp map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp["status"] != "ok" {
		t.Fatalf("healthz = %v", resp)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := testServer(t, false)
	// Two good queries, one bad (400), one bad method (405).
	var q queryResponse
	getJSON(t, ts.URL+"/query?s=0&t=1", &q)
	getJSON(t, ts.URL+"/query?s=1&t=2", &q)
	var e map[string]string
	getJSON(t, ts.URL+"/query?s=99&t=1", &e)
	do(t, http.MethodPost, ts.URL+"/query?s=0&t=1", nil)

	var snap metrics.Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got := snap.Counters["http.requests.query"]; got != 4 {
		t.Errorf("requests.query = %d, want 4", got)
	}
	if got := snap.Counters["http.errors.query"]; got != 2 {
		t.Errorf("errors.query = %d, want 2", got)
	}
	h, ok := snap.Histograms["http.latency_us.query"]
	if !ok || h.Count != 4 {
		t.Fatalf("latency histogram = %+v (ok=%v), want count 4", h, ok)
	}
	var bucketed int64
	for _, b := range h.Buckets {
		bucketed += b.Count
	}
	if bucketed != h.Count {
		t.Errorf("bucket counts sum to %d, histogram count %d", bucketed, h.Count)
	}
	if _, ok := snap.Gauges["http.inflight"]; !ok {
		t.Error("missing http.inflight gauge")
	}
	// The /metrics request itself was counted as in progress.
	if got := snap.Counters["http.requests.metrics"]; got != 1 {
		t.Errorf("requests.metrics = %d, want 1", got)
	}
}
