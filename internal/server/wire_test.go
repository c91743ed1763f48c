package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"parapll/internal/graph"
	"parapll/internal/pll"
	"parapll/internal/sssp"
)

// wireServer is testServer's graph behind an in-process handler.
func wireServer(t testing.TB) (*Server, *graph.Graph) {
	t.Helper()
	g := graph.FromEdges(5, []graph.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 5},
	}) // vertex 4 isolated
	return New(pll.Build(g, pll.Options{}), nil), g
}

// encodeRef is the reply encoding the codec must reproduce byte for byte.
func encodeRef(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func refDist(g *graph.Graph, s, t graph.Vertex) int64 {
	return encodeDist(sssp.Query(g, s, t))
}

// TestWireRepliesMatchEncoder renders /query and /batch replies through
// ServeHTTP and compares them with json.Encoder's output for the
// response structs.
func TestWireRepliesMatchEncoder(t *testing.T) {
	srv, g := wireServer(t)
	serve := func(req *http.Request) string {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", req.Method, req.URL, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s: Content-Type %q", req.Method, req.URL, ct)
		}
		return rec.Body.String()
	}
	for _, p := range [][2]graph.Vertex{{0, 3}, {0, 4}, {2, 2}, {4, 4}} {
		s, d := p[0], p[1]
		req := httptest.NewRequest(http.MethodGet, "/query?s="+itoa(s)+"&t="+itoa(d), nil)
		dist := refDist(g, s, d)
		want := encodeRef(t, queryResponse{S: s, T: d, Dist: dist, Reachable: dist >= 0})
		if got := serve(req); got != want {
			t.Errorf("/query %v: got %q, want %q", p, got, want)
		}
	}
	for _, tc := range []struct {
		body  string
		dists []int64
	}{
		{`{"pairs":[]}`, []int64{}},
		{`{"pairs":null}`, []int64{}},
		{`{"pairs":[[0,3],[0,4],[2,2],[3,0],[4,1]]}`,
			[]int64{refDist(g, 0, 3), -1, 0, refDist(g, 3, 0), -1}},
	} {
		req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(tc.body))
		want := encodeRef(t, batchResponse{Dists: tc.dists})
		if got := serve(req); got != want {
			t.Errorf("/batch %s: got %q, want %q", tc.body, got, want)
		}
	}
}

func itoa(v graph.Vertex) string { return strconv.Itoa(int(v)) }

// TestWirePoolCap checks that a near-limit batch leaves no oversized
// buffer behind in the codec's pools, and that putWire drops them.
func TestWirePoolCap(t *testing.T) {
	srv, _ := wireServer(t)
	// maxBatch pairs, padded so the body (and so its buffer) is past
	// the pool cap.
	body := append([]byte(`{"pairs":[`), bytes.Repeat([]byte("[0, 1]          ,"), maxBatch-1)...)
	body = append(body, "[1, 0]]}"...)
	if len(body) <= maxPooledWire {
		t.Fatalf("body of %d bytes does not exceed the pool cap", len(body))
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %.200s", rec.Code, rec.Body)
	}
	checkPools := func(when string) {
		t.Helper()
		b := bytesPool.Get().(*[]byte)
		p := pairsPool.Get().(*[][2]graph.Vertex)
		if cap(*b) > maxPooledWire || cap(*p)*8 > maxPooledWire {
			t.Errorf("%s: pooled byte cap %d, pair cap %d (limit %d bytes)", when, cap(*b), cap(*p), maxPooledWire)
		}
	}
	checkPools("after a maxBatch request")

	big := make([]byte, 0, 2*maxPooledWire)
	putWire(&bytesPool, &big)
	bigPairs := make([][2]graph.Vertex, 0, maxPooledWire/8+1)
	putWire(&pairsPool, &bigPairs)
	checkPools("after putWire of oversized buffers")
}

// TestWireConcurrentBatches runs /batch requests of different sizes on
// many goroutines so the race detector sees pooled buffers change hands.
func TestWireConcurrentBatches(t *testing.T) {
	srv, g := wireServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := 1 + (w*50+i)%40
				pairs := make([][2]graph.Vertex, n)
				want := make([]int64, n)
				for k := range pairs {
					pairs[k] = [2]graph.Vertex{graph.Vertex((k + w) % 5), graph.Vertex((k * 3) % 5)}
					want[k] = refDist(g, pairs[k][0], pairs[k][1])
				}
				body, _ := json.Marshal(batchRequest{Pairs: pairs})
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
				if got, exp := rec.Body.String(), encodeRef(t, batchResponse{Dists: want}); got != exp {
					t.Errorf("batch %s: got %q, want %q", body, got, exp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
