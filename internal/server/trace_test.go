package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"parapll/internal/trace"
)

// TestSlowLogBoundsAndOrdering: the ring keeps exactly the newest
// `capacity` slow entries, newest first, and counts everything it ever
// saw.
func TestSlowLogBoundsAndOrdering(t *testing.T) {
	l := NewSlowLog(4, time.Millisecond)
	base := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		l.Observe("GET", "/query", "", 200, 7, cacheHit, base.Add(time.Duration(i)*time.Second), 2*time.Millisecond)
	}
	if l.Total() != 10 {
		t.Fatalf("Total = %d, want 10", l.Total())
	}
	got := l.Entries()
	if len(got) != 4 {
		t.Fatalf("kept %d entries, want capacity 4", len(got))
	}
	for i, e := range got {
		want := base.Add(time.Duration(9-i) * time.Second)
		if !e.Time.Equal(want) {
			t.Fatalf("entry %d time = %v, want %v (newest first)", i, e.Time, want)
		}
		if e.Generation != 7 || e.Cache != "hit" {
			t.Fatalf("entry %d annotations = gen %d cache %q, want gen 7 cache hit", i, e.Generation, e.Cache)
		}
	}
	// Fast requests are ignored.
	l.Observe("GET", "/query", "", 200, 7, cacheMiss, base, 500*time.Microsecond)
	if l.Total() != 10 {
		t.Fatal("fast request was logged")
	}
	// Threshold 0 disables logging entirely.
	l.SetThreshold(0)
	l.Observe("GET", "/query", "", 200, 7, cacheMiss, base, time.Hour)
	if l.Total() != 10 {
		t.Fatal("disabled log still recorded")
	}
	// Tightening the threshold at runtime takes effect immediately.
	l.SetThreshold(time.Microsecond)
	l.Observe("POST", "/batch", "", 200, 8, cacheNone, base, 2*time.Microsecond)
	head := l.Entries()[0]
	if l.Total() != 11 || head.Method != "POST" {
		t.Fatalf("runtime threshold change not applied: total %d, head %+v", l.Total(), head)
	}
	// Un-annotated endpoints serialize no cache field at all.
	if head.Cache != "" || head.Generation != 8 {
		t.Fatalf("cacheNone entry = gen %d cache %q, want gen 8 cache \"\"", head.Generation, head.Cache)
	}
}

// TestDebugSlowEndpoint: slow requests surface at GET /debug/slow with
// method, path, query, status, and duration.
func TestDebugSlowEndpoint(t *testing.T) {
	g := testGraphServer(t, nil)
	g.srv.SlowQueries().SetThreshold(time.Nanosecond) // everything is slow
	var q queryResponse
	if code := getJSON(t, g.ts.URL+"/query?s=0&t=3", &q); code != 200 {
		t.Fatalf("query status %d", code)
	}
	getJSON(t, g.ts.URL+"/query?s=0&t=99999", new(map[string]string)) // 400

	var resp slowResponse
	if code := getJSON(t, g.ts.URL+"/debug/slow", &resp); code != 200 {
		t.Fatalf("debug/slow status %d", code)
	}
	if resp.Total < 2 || len(resp.Entries) < 2 {
		t.Fatalf("slow log: total %d entries %d, want >= 2", resp.Total, len(resp.Entries))
	}
	// Newest first: the 400 landed after the 200.
	var saw200, saw400 bool
	for _, e := range resp.Entries {
		if e.Path != "/query" && e.Path != "/debug/slow" {
			t.Fatalf("unexpected path %q", e.Path)
		}
		if e.Path == "/query" {
			switch e.Status {
			case 200:
				saw200 = true
				if e.Query != "s=0&t=3" {
					t.Fatalf("query string = %q", e.Query)
				}
			case 400:
				saw400 = true
				if saw200 {
					t.Fatal("400 entry should precede 200 entry (newest first)")
				}
			}
			if e.Method != "GET" || e.DurationUS < 0 {
				t.Fatalf("bad entry %+v", e)
			}
		}
	}
	if !saw200 || !saw400 {
		t.Fatalf("missing entries: saw200=%v saw400=%v", saw200, saw400)
	}
}

type graphServer struct {
	srv *Server
	ts  *httptest.Server
}

func testGraphServer(t *testing.T, opts *Options) graphServer {
	t.Helper()
	srv, _ := wireServer(t, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return graphServer{srv: srv, ts: ts}
}

// TestRequestSpansSampled: with a tracer installed and sampling 1-in-1,
// every request lands one span in a request lane with its status word.
func TestRequestSpansSampled(t *testing.T) {
	tr := trace.New(7, 1<<10)
	tr.Enable()
	g := testGraphServer(t, &Options{Tracer: tr})
	const reqs = 20
	for i := 0; i < reqs; i++ {
		var q queryResponse
		if code := getJSON(t, g.ts.URL+"/query?s=0&t=3", &q); code != 200 {
			t.Fatalf("query status %d", code)
		}
	}
	var spans int
	for _, ev := range tr.Events() {
		if ev.Name != "http query" {
			continue
		}
		spans++
		if ev.Kind != trace.KindSpan || len(ev.Args) != 1 || ev.Args[0] != 200 {
			t.Fatalf("bad request span %+v", ev)
		}
		if ev.TID < trace.TIDRequestBase || ev.TID >= trace.TIDRequestBase+requestLanes {
			t.Fatalf("span tid %d outside request lanes", ev.TID)
		}
		if ev.Dur < 0 {
			t.Fatalf("negative span duration %d", ev.Dur)
		}
	}
	if spans != reqs {
		t.Fatalf("%d request spans, want %d", spans, reqs)
	}
	if _, err := trace.CheckCapture(mustCapture(t, tr)); err != nil {
		t.Fatalf("server capture invalid: %v", err)
	}
}

// TestRequestSampling: 1-in-4 sampling records exactly a quarter of a
// request stream (the sampler is a deterministic modulo counter).
func TestRequestSampling(t *testing.T) {
	tr := trace.New(0, 1<<10)
	tr.Enable()
	tr.SetSample(4)
	g := testGraphServer(t, &Options{Tracer: tr})
	const reqs = 40
	for i := 0; i < reqs; i++ {
		var q queryResponse
		getJSON(t, g.ts.URL+"/query?s=0&t=1", &q)
	}
	var spans int
	for _, ev := range tr.Events() {
		if ev.Name == "http query" {
			spans++
		}
	}
	if spans != reqs/4 {
		t.Fatalf("%d spans from %d requests at 1-in-4, want %d", spans, reqs, reqs/4)
	}
}

// TestDebugTraceEndpoint: without a tracer the live-capture endpoint
// answers 412; with one it validates input, runs one capture at a time,
// returns a valid Chrome trace containing the traffic that ran during
// the window, and restores the tracer's previous enabled state.
func TestDebugTraceEndpoint(t *testing.T) {
	bare := testGraphServer(t, nil)
	if code := getJSON(t, bare.ts.URL+"/debug/trace", new(map[string]string)); code != http.StatusPreconditionFailed {
		t.Fatalf("no-tracer status %d, want 412", code)
	}

	tr := trace.New(0, 1<<12) // disabled: /debug/trace must enable and restore
	g := testGraphServer(t, &Options{Tracer: tr})

	// "nan" is the trap case: ParseFloat accepts it and NaN slips past a
	// naive `v <= 0` check into an unbounded capture sleep.
	for _, bad := range []string{"0", "-1", "61", "x", "nan", "NaN", "-nan"} {
		if code := getJSON(t, g.ts.URL+"/debug/trace?sec="+bad, new(map[string]string)); code != 400 {
			t.Fatalf("sec=%s status %d, want 400", bad, code)
		}
	}

	// Drive traffic while the capture window is open.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var q queryResponse
				getJSON(t, g.ts.URL+"/query?s=0&t=3", &q)
			}
		}
	}()
	resp, err := http.Get(g.ts.URL + "/debug/trace?sec=0.25")
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("capture status %d: %s", resp.StatusCode, data)
	}
	st, err := trace.CheckCapture(data)
	if err != nil {
		t.Fatalf("capture invalid: %v", err)
	}
	if st.Spans == 0 {
		t.Fatal("live capture saw no request spans")
	}
	if tr.Enabled() {
		t.Fatal("capture did not restore the tracer's disabled state")
	}

	// Concurrent captures: exactly one of two overlapping requests wins.
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(g.ts.URL + "/debug/trace?sec=0.3")
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	a, b := <-codes, <-codes
	if !(a == 200 && b == http.StatusConflict) && !(a == http.StatusConflict && b == 200) {
		t.Fatalf("overlapping captures returned %d and %d, want one 200 and one 409", a, b)
	}
}

// TestMetricsContentNegotiation: /metrics answers JSON by default and
// the Prometheus text exposition when the scraper asks for text/plain.
func TestMetricsContentNegotiation(t *testing.T) {
	g := testGraphServer(t, nil)
	var q queryResponse
	getJSON(t, g.ts.URL+"/query?s=0&t=3", &q)

	// Default: JSON snapshot.
	var snap map[string]interface{}
	if code := getJSON(t, g.ts.URL+"/metrics", &snap); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if _, ok := snap["histograms"]; !ok {
		t.Fatalf("JSON snapshot missing histograms: %v", snap)
	}

	// Prometheus scrape.
	req, _ := http.NewRequest(http.MethodGet, g.ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prometheus content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE http_requests_query counter\n",
		"# TYPE http_latency_us_query histogram\n",
		`http_latency_us_query_bucket{le="+Inf"}`,
		"http_latency_us_query_sum",
		"http_latency_us_query_count",
		"# TYPE http_inflight gauge\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

func mustCapture(t *testing.T, tr *trace.Tracer) []byte {
	t.Helper()
	data, err := tr.Capture(0)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
