//go:build !race

// AllocsPerRun is meaningless under the race detector (its
// instrumentation allocates), mirroring internal/label's gating.

package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// discardWriter is a ResponseWriter that allocates nothing per request,
// so AllocsPerRun counts only the handler path.
type discardWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

func (w *discardWriter) serve(t *testing.T, h http.Handler, req *http.Request) {
	w.code = 0
	w.body.Reset()
	h.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", req.Method, req.URL, w.code, w.body.String())
	}
}

// TestWireAllocs pins the codec's allocation budget: in-process /query
// stays within 4 allocations, and /batch allocations do not grow with
// the number of pairs.
func TestWireAllocs(t *testing.T) {
	srv, _ := wireServer(t)
	srv.SetBatchThreads(1) // both batch sizes take the kernel's inline path
	w := &discardWriter{h: http.Header{}}

	query := httptest.NewRequest(http.MethodGet, "/query?s=0&t=3", nil)
	queryAllocs := testing.AllocsPerRun(200, func() { w.serve(t, srv, query) })
	if queryAllocs > 4 {
		t.Errorf("/query allocs = %v, want <= 4", queryAllocs)
	}

	batchAllocs := func(pairs int) float64 {
		var sb strings.Builder
		sb.WriteString(`{"pairs":[`)
		for i := 0; i < pairs; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString("[" + itoa(int32(i%5)) + "," + itoa(int32((i*3)%5)) + "]")
		}
		sb.WriteString("]}")
		body := []byte(sb.String())
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/batch", nil)
		req.Body, req.ContentLength = io.NopCloser(rd), int64(len(body))
		return testing.AllocsPerRun(100, func() {
			rd.Reset(body)
			w.serve(t, srv, req)
		})
	}
	small, large := batchAllocs(10), batchAllocs(1000)
	if large > small+2 {
		t.Errorf("/batch allocs: %v for 1000 pairs vs %v for 10, want within 2", large, small)
	}
	t.Logf("allocs: /query %v, /batch of 10 pairs %v, of 1000 pairs %v", queryAllocs, small, large)
}

// TestBatchBodyIgnoresClaimedLength checks that /batch sizes its body
// buffer by the bytes that arrive, not by the Content-Length the client
// claims: a short body announced as the full 8 MiB limit must not make
// the server allocate the claimed size.
func TestBatchBodyIgnoresClaimedLength(t *testing.T) {
	srv, _ := wireServer(t)
	w := &discardWriter{h: http.Header{}}
	body := []byte(`{"pairs":[[0,3]]}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/batch", nil)
	req.Body, req.ContentLength = io.NopCloser(rd), maxBatchBytes

	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		rd.Reset(body)
		w.serve(t, srv, req)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > maxPooledWire {
		t.Errorf("/batch of %d bytes claiming %d allocated %d bytes per request, want <= %d",
			len(body), maxBatchBytes, per, maxPooledWire)
	}
}
