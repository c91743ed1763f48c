// Package flight is the serving system's self-diagnosis subsystem: a
// flight recorder that continuously holds the recent past (trace
// events in the PR 5 seqlock ring, rolling metric samples, recent
// errors) and, at the moment something goes wrong, freezes all of it
// into one self-contained on-disk bundle — plus an anomaly watchdog
// (watchdog.go) that decides *when* something is wrong from windowed
// SLO verdicts and triggers those captures automatically.
//
// The design inverts the usual debugging flow. Production anomalies
// are transient: by the time an operator attaches, the slow window is
// over and the evidence is gone. The recorder is therefore always on
// and cheap (the tracer ring and metric instruments already exist;
// the recorder only adds two bounded in-memory rings), and a capture
// is a read-mostly snapshot: merge the trace ring's last N seconds,
// snapshot the metrics registry, copy the error and metric-sample
// rings, collect goroutine/heap profiles and the serving/WAL state the
// sources expose, and write one JSON file to a bounded spool. Bundles
// are self-contained — `parapll-trace check` validates the embedded
// trace without the process that wrote it.
//
// Lock order: Recorder.mu is held across a capture, which may call
// the Health/Stats/WAL source closures; those may take the watchdog's
// or server's internal locks. Nothing takes Recorder.mu while holding
// those locks (the watchdog triggers captures only after releasing its
// own mutex), so the order recorder → watchdog/server is acyclic.
package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"parapll/internal/metrics"
	"parapll/internal/trace"
)

// Sources are the read-only views a Recorder snapshots into a bundle.
// Every field is optional; closures must be safe to call from any
// goroutine and should return quickly. They are closures (not
// interfaces on the server) so flight has no dependency on the serving
// layer and each subsystem plugs in exactly the state it owns.
type Sources struct {
	// Tracer is the live tracer (nil when tracing is off); while it is
	// enabled, the bundle embeds the ring's last TraceWindow of events.
	Tracer *trace.Tracer
	// Registry is snapshotted into the bundle and sampled into the
	// rolling metric ring.
	Registry *metrics.Registry
	// Stats returns the serving layer's /stats payload.
	Stats func() any
	// WAL returns WAL + compaction state (e.g. compact.Stats).
	WAL func() any
	// Health returns the watchdog's verdict report.
	Health func() any
}

// Options bound the Recorder's memory and disk footprint.
type Options struct {
	// Dir is the on-disk spool directory. Required; created if missing.
	Dir string
	// MaxBundles caps the spool; the oldest bundle is deleted when a new
	// one would exceed it. Default 8.
	MaxBundles int
	// MinGap rate-limits automatic captures (TriggerAuto): a trigger
	// closer than MinGap to the previous *auto* capture is suppressed.
	// Manual Trigger calls (an operator hitting /debug/bundle) are never
	// suppressed. Default 30s.
	MinGap time.Duration
	// TraceWindow is how far back the embedded trace capture reaches.
	// Default 30s.
	TraceWindow time.Duration
	// MaxErrors caps the recent-error ring. Default 64.
	MaxErrors int
	// MaxSamples caps the rolling metric-sample ring. Default 32.
	MaxSamples int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxBundles <= 0 {
		out.MaxBundles = 8
	}
	if out.MinGap <= 0 {
		out.MinGap = 30 * time.Second
	}
	if out.TraceWindow <= 0 {
		out.TraceWindow = 30 * time.Second
	}
	if out.MaxErrors <= 0 {
		out.MaxErrors = 64
	}
	if out.MaxSamples <= 0 {
		out.MaxSamples = 32
	}
	return out
}

// ErrorRecord is one recent error held in the recorder's ring.
type ErrorRecord struct {
	UnixNano int64  `json:"unix_nano"`
	Source   string `json:"source"` // subsystem, e.g. "reload", "panic:/query"
	Error    string `json:"error"`
}

// MetricSample is one rolling snapshot of counters and gauges; diffing
// successive samples recovers rates around the capture moment without
// a scraper in the loop.
type MetricSample struct {
	UnixNano int64            `json:"unix_nano"`
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
}

// BundleMeta identifies one capture.
type BundleMeta struct {
	Reason           string `json:"reason"`
	UnixNano         int64  `json:"unix_nano"`
	Time             string `json:"time"` // RFC3339Nano, for humans
	Seq              uint64 `json:"seq"`  // per-process capture number
	PID              int    `json:"pid"`
	GoVersion        string `json:"go_version"`
	TraceWindowNanos int64  `json:"trace_window_nanos"`
}

// Bundle is the self-contained capture artifact, serialized as one
// JSON object. Trace holds a complete Chrome trace-event capture (the
// exact bytes trace.Capture produced), so tooling can validate or view
// it without understanding the rest of the bundle.
type Bundle struct {
	Meta       BundleMeta      `json:"meta"`
	Trace      json.RawMessage `json:"trace,omitempty"`
	TraceError string          `json:"trace_error,omitempty"`
	Metrics    any             `json:"metrics,omitempty"`
	MetricRing []MetricSample  `json:"metric_ring,omitempty"`
	Errors     []ErrorRecord   `json:"errors"`
	Stats      any             `json:"stats,omitempty"`
	WAL        any             `json:"wal,omitempty"`
	Health     any             `json:"health,omitempty"`
	Goroutines string          `json:"goroutine_profile,omitempty"`
	Heap       string          `json:"heap_profile,omitempty"`
}

// ParseBundle decodes a bundle file's bytes. Stats/WAL/Health/Metrics
// decode as generic JSON values; Trace keeps its raw bytes for
// trace.CheckCapture.
func ParseBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("flight: parsing bundle: %w", err)
	}
	if b.Meta.Reason == "" && b.Meta.Seq == 0 && b.Trace == nil {
		return nil, fmt.Errorf("flight: not a flight bundle (no meta or trace)")
	}
	return &b, nil
}

// Recorder is the always-on evidence collector. All methods are safe
// for concurrent use.
type Recorder struct {
	opt Options
	src Sources

	mu       sync.Mutex
	errs     []ErrorRecord // ring, errNext is the next overwrite slot
	errNext  int
	errTotal uint64
	samples  []MetricSample
	sampNext int
	seq      uint64
	lastAuto time.Time

	captures   *metrics.Counter // flight.captures_total
	suppressed *metrics.Counter // flight.suppressed_total
}

// New builds a Recorder spooling into opt.Dir, creating the directory
// if needed. When src.Registry is non-nil the recorder also publishes
// flight.captures_total / flight.suppressed_total counters there.
func New(opt Options, src Sources) (*Recorder, error) {
	o := opt.withDefaults()
	if o.Dir == "" {
		return nil, fmt.Errorf("flight: Options.Dir is required")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: creating spool %s: %w", o.Dir, err)
	}
	r := &Recorder{opt: o, src: src}
	if src.Registry != nil {
		r.captures = src.Registry.Counter("flight.captures_total")
		r.suppressed = src.Registry.Counter("flight.suppressed_total")
	}
	return r, nil
}

// Dir returns the spool directory.
func (r *Recorder) Dir() string { return r.opt.Dir }

// RecordError adds one error to the bounded recent-error ring.
func (r *Recorder) RecordError(source string, err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recordErrorLocked(source, err.Error())
}

func (r *Recorder) recordErrorLocked(source, msg string) {
	rec := ErrorRecord{UnixNano: time.Now().UnixNano(), Source: source, Error: msg}
	if len(r.errs) < r.opt.MaxErrors {
		r.errs = append(r.errs, rec)
	} else {
		r.errs[r.errNext] = rec
		r.errNext = (r.errNext + 1) % len(r.errs)
	}
	r.errTotal++
}

// Errors returns the ring's contents, oldest first.
func (r *Recorder) Errors() []ErrorRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errorsLocked()
}

func (r *Recorder) errorsLocked() []ErrorRecord {
	out := make([]ErrorRecord, 0, len(r.errs))
	out = append(out, r.errs[r.errNext:]...)
	out = append(out, r.errs[:r.errNext]...)
	return out
}

// SampleMetrics appends one rolling counter/gauge sample to the ring
// (a no-op without a Registry). The watchdog calls this every window
// tick, so a bundle carries rate context from before the anomaly.
func (r *Recorder) SampleMetrics() {
	if r.src.Registry == nil {
		return
	}
	snap := r.src.Registry.Snapshot()
	s := MetricSample{UnixNano: time.Now().UnixNano(), Counters: snap.Counters, Gauges: snap.Gauges}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) < r.opt.MaxSamples {
		// Filling: append; once full, sampNext has wrapped to 0 — the
		// oldest slot — which is exactly where the first overwrite goes.
		r.samples = append(r.samples, s)
		r.sampNext = (r.sampNext + 1) % r.opt.MaxSamples
	} else {
		r.samples[r.sampNext] = s
		r.sampNext = (r.sampNext + 1) % len(r.samples)
	}
}

func (r *Recorder) samplesLocked() []MetricSample {
	if len(r.samples) < r.opt.MaxSamples {
		return append([]MetricSample(nil), r.samples...)
	}
	out := make([]MetricSample, 0, len(r.samples))
	out = append(out, r.samples[r.sampNext:]...)
	out = append(out, r.samples[:r.sampNext]...)
	return out
}

// Trigger captures a bundle unconditionally (operator-initiated:
// /debug/bundle, SIGQUIT). It returns the spool path written.
func (r *Recorder) Trigger(reason string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.captureLocked(reason)
}

// TriggerAuto captures a bundle unless a previous automatic capture
// happened within MinGap — the watchdog's entry point, rate-limited so
// a flapping or multi-rule breach cannot flood the spool. ok=false
// means the trigger was suppressed.
func (r *Recorder) TriggerAuto(reason string) (path string, ok bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	if !r.lastAuto.IsZero() && now.Sub(r.lastAuto) < r.opt.MinGap {
		if r.suppressed != nil {
			r.suppressed.Inc()
		}
		return "", false, nil
	}
	r.lastAuto = now
	p, err := r.captureLocked(reason)
	return p, err == nil, err
}

// TriggerPanic captures a bundle for a recovered panic, bypassing the
// rate limit (a panic is always worth evidence) but still serialized
// with other captures.
func (r *Recorder) TriggerPanic(source string, p any) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// The panic itself is the newest entry in the bundle's error ring.
	r.recordErrorLocked(source, fmt.Sprint(p))
	return r.captureLocked("panic:" + source + ": " + fmt.Sprint(p))
}

// Build assembles a Bundle without writing it (also the body served by
// /debug/bundle alongside the spool write).
func (r *Recorder) Build(reason string) *Bundle {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return r.buildLocked(reason)
}

func (r *Recorder) buildLocked(reason string) *Bundle {
	now := time.Now()
	b := &Bundle{
		Meta: BundleMeta{
			Reason:           reason,
			UnixNano:         now.UnixNano(),
			Time:             now.Format(time.RFC3339Nano),
			Seq:              r.seq,
			PID:              os.Getpid(),
			GoVersion:        runtime.Version(),
			TraceWindowNanos: r.opt.TraceWindow.Nanoseconds(),
		},
		MetricRing: r.samplesLocked(),
		Errors:     r.errorsLocked(),
	}
	if tr := r.src.Tracer; tr.Enabled() {
		since := tr.Now() - r.opt.TraceWindow.Nanoseconds()
		if data, err := tr.Capture(since); err == nil {
			b.Trace = data
		} else {
			b.TraceError = err.Error()
		}
	}
	if r.src.Registry != nil {
		b.Metrics = r.src.Registry.Snapshot()
	}
	if r.src.Stats != nil {
		b.Stats = r.src.Stats()
	}
	if r.src.WAL != nil {
		b.WAL = r.src.WAL()
	}
	if r.src.Health != nil {
		b.Health = r.src.Health()
	}
	b.Goroutines = profileText("goroutine", 2)
	b.Heap = profileText("heap", 1)
	return b
}

// captureLocked builds, writes and prunes under r.mu.
func (r *Recorder) captureLocked(reason string) (string, error) {
	r.seq++
	b := r.buildLocked(reason)
	data, err := json.Marshal(b)
	if err != nil {
		return "", fmt.Errorf("flight: encoding bundle: %w", err)
	}
	// Unix-nano prefix makes lexical order chronological across process
	// restarts, so pruning can sort names instead of stat-ing.
	name := fmt.Sprintf("bundle-%020d-%04d-%s.json", b.Meta.UnixNano, b.Meta.Seq, sanitizeReason(reason))
	path := filepath.Join(r.opt.Dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("flight: writing bundle: %w", err)
	}
	if r.captures != nil {
		r.captures.Inc()
	}
	r.pruneLocked()
	return path, nil
}

// pruneLocked deletes the oldest bundles beyond MaxBundles. Removal
// errors are ignored: a capture must not fail because a concurrent
// operator deleted a spool file first.
func (r *Recorder) pruneLocked() {
	names := spoolNames(r.opt.Dir)
	for len(names) > r.opt.MaxBundles {
		os.Remove(filepath.Join(r.opt.Dir, names[0]))
		names = names[1:]
	}
}

// spoolNames returns the spool's bundle file names in lexical
// (chronological) order.
func spoolNames(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// Spool returns the current bundle paths, oldest first.
func (r *Recorder) Spool() []string {
	names := spoolNames(r.opt.Dir)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(r.opt.Dir, n)
	}
	return out
}

// sanitizeReason maps a free-form reason onto a safe filename chunk.
func sanitizeReason(reason string) string {
	const maxLen = 48
	var b strings.Builder
	for _, c := range reason {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
		if b.Len() >= maxLen {
			break
		}
	}
	if b.Len() == 0 {
		return "manual"
	}
	return b.String()
}

// profileText renders a runtime/pprof profile in its debug text form.
func profileText(name string, debug int) string {
	p := pprof.Lookup(name)
	if p == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, debug); err != nil {
		return "profile error: " + err.Error()
	}
	return buf.String()
}
