package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"parapll/internal/flight"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/metrics"
	"parapll/internal/trace"
)

// TestFullyConfiguredServerConcurrent builds a server with every
// Options field set (tracer sampling every request, flight recorder,
// running watchdog, query window, loader, batch fan-out) and drives
// /query and /batch from several goroutines while a /debug/trace
// capture, /debug/bundle captures and /reload run alongside. Under
// -race it shows that nothing writes the configured fields after
// construction; every reply must still be exact.
func TestFullyConfiguredServerConcurrent(t *testing.T) {
	const n = 40 // lineGraph(n): d(s,t) = |s-t|
	path := saveLineIndex(t, t.TempDir(), n, label.FormatMmap)

	reg := metrics.NewRegistry()
	tr := trace.New(0, 1<<12)
	tr.SetSample(1)
	tr.Enable()
	queryWin := metrics.NewWindowed(metrics.DefaultLatencyBuckets, 4)
	var s *Server
	var wd *flight.Watchdog
	rec, err := flight.New(flight.Options{Dir: t.TempDir(), MaxBundles: 4}, flight.Sources{
		Tracer:   tr,
		Registry: reg,
		Stats:    func() any { return s.StatsPayload() },
		Health:   func() any { return wd.Health() },
	})
	if err != nil {
		t.Fatalf("flight.New: %v", err)
	}
	wd = flight.NewWatchdog(flight.WatchdogOptions{Window: 10 * time.Millisecond, Registry: reg, Recorder: rec})
	wd.AddLatencyRule("query_p99", "us", queryWin, 0.99, 1_000_000, 1)
	s = NewPending(&Options{
		Registry:     reg,
		Loader:       fileLoader,
		BatchThreads: 2,
		Tracer:       tr,
		Flight:       rec,
		Watchdog:     wd,
		QueryWindow:  queryWin,
	})
	wd.AddCounterRule("reload_failures", s.ReloadFailures(), 0)
	wd.Start()
	defer wd.Stop()
	s.SetCacheEntries(256)
	idx, _, err := fileLoader(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(idx, nil, path)
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func(url string) (int, []byte, error) {
		resp, err := http.Get(url)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}

	stop := make(chan struct{})
	var hammer sync.WaitGroup
	for w := 0; w < 4; w++ {
		hammer.Add(1)
		go func(w int) {
			defer hammer.Done()
			pairs := [][2]graph.Vertex{{0, n - 1}, {graph.Vertex(w), 3}, {5, 5}}
			body, _ := json.Marshal(batchRequest{Pairs: pairs})
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src, dst := (i*7+w)%n, (i*13)%n
				code, data, err := get(fmt.Sprintf("%s/query?s=%d&t=%d", ts.URL, src, dst))
				var q queryResponse
				if err == nil {
					err = json.Unmarshal(data, &q)
				}
				want := int64(src - dst)
				if want < 0 {
					want = -want
				}
				if err != nil || code != 200 || q.Dist != want {
					t.Errorf("/query(%d,%d): status %d dist %d err %v, want dist %d", src, dst, code, q.Dist, err, want)
					return
				}
				resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("/batch: %v", err)
					return
				}
				var b batchResponse
				err = json.NewDecoder(resp.Body).Decode(&b)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 || len(b.Dists) != 3 ||
					b.Dists[0] != n-1 || b.Dists[1] != int64(3-w) || b.Dists[2] != 0 {
					t.Errorf("/batch: status %d dists %v err %v", resp.StatusCode, b.Dists, err)
					return
				}
			}
		}(w)
	}

	// Side traffic: one live trace capture, bundle captures and reloads
	// until the capture window closes.
	var side sync.WaitGroup
	side.Add(1)
	go func() {
		defer side.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if code, data, err := get(ts.URL + "/debug/bundle"); err != nil || code != 200 {
				t.Errorf("/debug/bundle: status %d err %v: %.200s", code, err, data)
				return
			}
			resp, err := http.Post(ts.URL+"/reload", "application/json", nil)
			if err != nil {
				t.Errorf("/reload: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 && resp.StatusCode != http.StatusConflict {
				t.Errorf("/reload status %d", resp.StatusCode)
				return
			}
		}
	}()
	code, data, err := get(ts.URL + "/debug/trace?sec=0.2")
	close(stop)
	hammer.Wait()
	side.Wait()
	if err != nil || code != 200 {
		t.Fatalf("/debug/trace: status %d err %v: %.200s", code, err, data)
	}
	if st, err := trace.CheckCapture(data); err != nil || st.Spans == 0 {
		t.Fatalf("live capture: spans %d err %v", st.Spans, err)
	}
	if !tr.Enabled() {
		t.Fatal("capture disabled a tracer that was enabled before it")
	}
	if s.Generation() < 2 {
		t.Fatalf("generation %d: no /reload completed", s.Generation())
	}
	if rep := wd.Health(); rep.Status != "ok" || len(rep.Verdicts) != 2 {
		t.Fatalf("watchdog health = %+v, want ok with 2 verdicts", rep)
	}
}
