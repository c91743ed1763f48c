package flight

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"parapll/internal/metrics"
	"parapll/internal/trace"
)

// testTracer builds an enabled tracer with a few span events in the ring.
func testTracer(t *testing.T) *trace.Tracer {
	t.Helper()
	tr := trace.New(1, 1024)
	tr.Enable()
	id := tr.Intern("test.op", "k")
	for i := 0; i < 5; i++ {
		t0 := tr.Now()
		t1 := tr.Now()
		tr.Buf(100).Span(id, t0, t1, uint64(i))
	}
	return tr
}

// TestRecorderBundleRoundTrip: Trigger writes a self-contained bundle
// whose embedded trace passes trace.CheckCapture and whose rings and
// source payloads survive a parse round trip.
func TestRecorderBundleRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("http.requests.query").Add(3)
	tr := testTracer(t)
	rec, err := New(Options{Dir: t.TempDir()}, Sources{
		Tracer:   tr,
		Registry: reg,
		Stats:    func() any { return map[string]int{"vertices": 5} },
		WAL:      func() any { return map[string]int{"wal_records": 2} },
		Health:   func() any { return map[string]string{"status": "ok"} },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	rec.RecordError("reload", errors.New("boom"))
	rec.SampleMetrics()

	path, err := rec.Trigger("test-reason")
	if err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading bundle: %v", err)
	}
	b, err := ParseBundle(data)
	if err != nil {
		t.Fatalf("ParseBundle: %v", err)
	}
	if b.Meta.Reason != "test-reason" || b.Meta.Seq == 0 || b.Meta.PID != os.Getpid() {
		t.Fatalf("meta = %+v", b.Meta)
	}
	if len(b.Trace) == 0 {
		t.Fatalf("bundle has no embedded trace (trace_error=%q)", b.TraceError)
	}
	st, err := trace.CheckCapture(b.Trace)
	if err != nil {
		t.Fatalf("embedded trace invalid: %v", err)
	}
	if st.Spans == 0 {
		t.Fatal("embedded trace has no spans")
	}
	if len(b.Errors) != 1 || b.Errors[0].Source != "reload" || b.Errors[0].Error != "boom" {
		t.Fatalf("errors = %+v", b.Errors)
	}
	if len(b.MetricRing) != 1 || b.MetricRing[0].Counters["http.requests.query"] != 3 {
		t.Fatalf("metric ring = %+v", b.MetricRing)
	}
	if b.Stats == nil || b.WAL == nil || b.Health == nil {
		t.Fatalf("missing source payloads: stats=%v wal=%v health=%v", b.Stats, b.WAL, b.Health)
	}
	if !strings.Contains(b.Goroutines, "goroutine") {
		t.Fatal("bundle has no goroutine profile")
	}
	if b.Heap == "" {
		t.Fatal("bundle has no heap profile")
	}
	if got := reg.Snapshot().Counters["flight.captures_total"]; got != 1 {
		t.Fatalf("flight.captures_total = %d, want 1", got)
	}
}

// TestSpoolBounded: the spool never holds more than MaxBundles files,
// and the survivors are the newest.
func TestSpoolBounded(t *testing.T) {
	dir := t.TempDir()
	rec, err := New(Options{Dir: dir, MaxBundles: 3}, Sources{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 7; i++ {
		if _, err := rec.Trigger(fmt.Sprintf("r%d", i)); err != nil {
			t.Fatalf("Trigger %d: %v", i, err)
		}
	}
	paths := rec.Spool()
	if len(paths) != 3 {
		t.Fatalf("spool holds %d bundles, want 3: %v", len(paths), paths)
	}
	for i, p := range paths {
		want := fmt.Sprintf("r%d", 4+i) // r4, r5, r6 survive
		if !strings.Contains(p, want) {
			t.Fatalf("spool[%d] = %s, want reason %s", i, p, want)
		}
	}
}

// TestTriggerAutoRateLimit: automatic captures within MinGap are
// suppressed (and counted), manual ones never are.
func TestTriggerAutoRateLimit(t *testing.T) {
	reg := metrics.NewRegistry()
	rec, err := New(Options{Dir: t.TempDir(), MinGap: time.Hour}, Sources{Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, ok, err := rec.TriggerAuto("first"); err != nil || !ok {
		t.Fatalf("first TriggerAuto = ok=%v err=%v", ok, err)
	}
	if _, ok, err := rec.TriggerAuto("second"); err != nil || ok {
		t.Fatalf("second TriggerAuto not suppressed (ok=%v err=%v)", ok, err)
	}
	if _, err := rec.Trigger("manual"); err != nil {
		t.Fatalf("manual Trigger: %v", err)
	}
	if got := len(rec.Spool()); got != 2 {
		t.Fatalf("spool holds %d bundles, want 2", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["flight.suppressed_total"] != 1 {
		t.Fatalf("suppressed_total = %d, want 1", snap.Counters["flight.suppressed_total"])
	}
	if snap.Counters["flight.captures_total"] != 2 {
		t.Fatalf("captures_total = %d, want 2", snap.Counters["flight.captures_total"])
	}
}

// TestErrorRingBounded: the error ring keeps only the newest MaxErrors
// records, oldest first.
func TestErrorRingBounded(t *testing.T) {
	rec, err := New(Options{Dir: t.TempDir(), MaxErrors: 4}, Sources{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 10; i++ {
		rec.RecordError("s", fmt.Errorf("e%d", i))
	}
	errs := rec.Errors()
	if len(errs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(errs))
	}
	for i, e := range errs {
		if want := fmt.Sprintf("e%d", 6+i); e.Error != want {
			t.Fatalf("errs[%d] = %q, want %q", i, e.Error, want)
		}
	}
	rec.RecordError("s", nil) // nil errors are ignored
	if len(rec.Errors()) != 4 {
		t.Fatal("nil error entered the ring")
	}
}

// TestMetricRingBounded: the rolling sample ring stays within
// MaxSamples, oldest first.
func TestMetricRingBounded(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("x")
	rec, err := New(Options{Dir: t.TempDir(), MaxSamples: 3}, Sources{Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 5; i++ {
		c.Inc()
		rec.SampleMetrics()
	}
	b := rec.Build("probe")
	if len(b.MetricRing) != 3 {
		t.Fatalf("ring holds %d, want 3", len(b.MetricRing))
	}
	for i, s := range b.MetricRing {
		if want := int64(3 + i); s.Counters["x"] != want {
			t.Fatalf("ring[%d] x = %d, want %d", i, s.Counters["x"], want)
		}
	}
}

// TestParseBundleRejectsGarbage: non-bundle JSON and non-JSON both fail.
func TestParseBundleRejectsGarbage(t *testing.T) {
	if _, err := ParseBundle([]byte("not json")); err == nil {
		t.Fatal("parsed non-JSON")
	}
	if _, err := ParseBundle([]byte("{}")); err == nil {
		t.Fatal("parsed empty object as a bundle")
	}
}
