// Package server exposes a built index as an HTTP JSON service — the
// "module for context-aware or social-aware search" deployment shape the
// paper's introduction describes, where other services need distance
// answers with real-time latency budgets.
//
// Endpoints:
//
//	GET  /query?s=A&t=B   → {"s":A,"t":B,"dist":D,"reachable":true}
//	POST /batch           ← {"pairs":[[s,t],...]} (each pair exactly two
//	                        integers, else 400; body ≤ 8 MiB, else 413)
//	                      → {"dists":[...]} (-1 encodes unreachable)
//	GET  /path?s=A&t=B    → {"path":[...],"dist":D} (404 if no path index)
//	GET  /knn?s=A&k=N     → k closest vertices with exact distances
//	GET  /stats           → index size statistics + generation/format
//	POST /update          ← {"u":A,"v":B,"w":W}
//	                      → durably inserts an edge when the server runs
//	                        the living-graph pipeline (-wal); 412 otherwise
//	POST /reload          ← optional {"path":"other.idx"}
//	                      → swaps in a freshly loaded index (409 if a
//	                        reload is already running; see Reload)
//	GET  /readyz          → 200 once an index is published, 503 while
//	                        the initial load/build is still running
//	GET  /healthz         → {"status":"ok"} liveness probe
//	GET  /metrics         → metrics.Snapshot JSON: per-endpoint request
//	                        and error counts, latency histograms, and an
//	                        in-flight gauge
//
// Every endpoint enforces its method (405 otherwise) and is wrapped in
// the same instrumentation middleware, so /metrics always reflects the
// full request stream, including rejected requests.
//
// # Snapshot model
//
// The serving state — index, optional path index, lazily built KNN
// index, generation counter, source path — lives in one immutable
// snapshot behind an atomic pointer. Queries load the pointer once and
// run entirely against that snapshot; Reload builds the next snapshot
// off the request path and publishes it with a single atomic store.
// In-flight queries finish on the snapshot they started with, the KNN
// cache is rebuilt per snapshot (never stale), and an mmap-backed old
// index is unmapped by its finalizer once the last query referencing it
// completes — safe because every label.Index (and knn.Index) reader
// pins the mapping with runtime.KeepAlive until its last array access.
//
// # Living-graph mode
//
// With SetUpdater installed (the -wal serving mode), the snapshot's
// query surface is the updatable pipeline itself instead of the
// immutable index: distances then mutate WITHIN a generation as edges
// arrive, so the generation-keyed distance cache is deliberately
// bypassed — a cached answer could overestimate a pair an insert just
// shortened. Publish still swaps snapshots for the metadata surfaces
// (/stats, /knn, /path), which is how a background compaction rolls
// the checkpoint artifact in through the same /reload + generation
// machinery a static server uses.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parapll/internal/compact"
	"parapll/internal/dynamic"
	"parapll/internal/flight"
	"parapll/internal/graph"
	"parapll/internal/knn"
	"parapll/internal/label"
	"parapll/internal/metrics"
	"parapll/internal/oracle"
	"parapll/internal/pathidx"
	"parapll/internal/qcache"
	"parapll/internal/trace"
)

// snapshot is one immutable generation of serving state. All fields are
// written before the snapshot is published and never after, except the
// lazily built KNN index behind its own sync.Once.
type snapshot struct {
	idx    *label.Index
	ora    oracle.Oracle // the query surface handlers program against
	pidx   *pathidx.Index
	gen    uint64
	source string // file the index was loaded from; "" if in-memory
	loaded time.Time

	knnOnce sync.Once
	knn     *knn.Index
}

// knnIndex builds the inverted index on first use — per snapshot, so a
// reload can never serve KNN answers from a previous generation.
func (sn *snapshot) knnIndex() *knn.Index {
	sn.knnOnce.Do(func() { sn.knn = knn.New(sn.idx) })
	return sn.knn
}

// Loader loads serving state from an index file for Reload. Returning a
// nil path index means "keep the current snapshot's path index" (path
// indexes are built from the graph, which a reload of the distance
// artifact does not see) — but the old path index is only carried over
// when the reload re-reads the same source file and the vertex counts
// still match; reloading a different artifact drops it (404 on /path),
// since a path index for another graph would answer with wrong paths.
type Loader func(path string) (*label.Index, *pathidx.Index, error)

// Reload error sentinels, mapped to HTTP statuses by POST /reload.
var (
	// ErrNoLoader means the server was built around an in-memory index
	// and has no way to load another one.
	ErrNoLoader = errors.New("server: no loader configured")
	// ErrReloadBusy means another reload is still in progress.
	ErrReloadBusy = errors.New("server: reload already in progress")
)

// Updater is the living-graph seam behind POST /update: an updatable
// oracle (compact.Pipeline in production) that durably logs and applies
// edge inserts while serving queries. Stats feeds the /stats "wal"
// section and the wal.* / compact.* gauges on /metrics.
type Updater interface {
	oracle.Oracle
	Update(u, v graph.Vertex, w graph.Dist) error
	Stats() compact.Stats
}

// The production updater.
var _ Updater = (*compact.Pipeline)(nil)

// Server answers distance queries over HTTP from an atomically swappable
// index snapshot.
type Server struct {
	snap     atomic.Pointer[snapshot]
	gen      atomic.Uint64
	loader   Loader
	reloadMu sync.Mutex // held for the duration of one reload

	mux        *http.ServeMux
	reg        *metrics.Registry
	inflight   *metrics.Gauge
	generation *metrics.Gauge

	// cache, when non-nil, fronts every snapshot published after
	// SetCacheEntries with a generation-keyed distance cache; entries
	// from a pre-reload generation can never answer post-reload queries.
	cache *qcache.Cache
	// batchThreads caps the fan-out of one /batch request so a single
	// large batch cannot monopolize every core against other requests.
	batchThreads int

	// Request tracing: sampled request spans land in per-lane ring
	// buffers (lane = round-robin over requestLanes tids) so concurrent
	// requests never contend on one ring. nil tracer = tracing off.
	tracer    *trace.Tracer
	traceLane atomic.Uint64
	captureMu sync.Mutex // serializes /debug/trace live captures
	slow      *SlowLog

	// updater, when set, switches the server into living-graph mode:
	// POST /update accepts edges, every published snapshot queries
	// through the updater, and the distance cache is bypassed (see the
	// package doc). Gauges mirror the pipeline's Stats on demand.
	updater     atomic.Pointer[Updater]
	walRecords  *metrics.Gauge
	walBytes    *metrics.Gauge
	compactGen  *metrics.Gauge
	lastCompact *metrics.Gauge

	// Diagnostics (see Options): the recorder behind /debug/bundle and
	// the panic dump, the watchdog behind /debug/health, and the window
	// the /query and /batch middleware feeds for its p99 rule.
	flightRec   *flight.Recorder
	watchdog    *flight.Watchdog
	queryWindow *metrics.WindowedHistogram

	// reloadFailures counts failed reloads (HTTP and SIGHUP alike) — the
	// watchdog's reload-failure rule watches its per-window delta.
	reloadFailures *metrics.Counter
	panics         *metrics.Counter
}

// requestLanes is how many trace ring buffers sampled request spans are
// spread across, starting at trace.TIDRequestBase.
const requestLanes = 32

// Slow-log defaults; tune with Server.SlowQueries().SetThreshold.
const (
	defaultSlowCapacity  = 256
	defaultSlowThreshold = 100 * time.Millisecond
)

// Options configures a Server at construction. Every field is
// optional, and none changes after NewPending returns: only the index
// snapshot is swapped at runtime.
type Options struct {
	// Registry records the server's metrics; nil means a fresh one.
	// cmd/parapll-server shares it with the flight recorder and watchdog.
	Registry *metrics.Registry
	// Loader loads index files for Reload; nil makes Reload (and POST
	// /reload, SIGHUP) fail with ErrNoLoader.
	Loader Loader
	// BatchThreads caps the goroutine fan-out of one /batch request;
	// <= 0 means min(4, GOMAXPROCS).
	BatchThreads int
	// Tracer records sampled request spans (and the distance cache's
	// spans) and backs GET /debug/trace; nil turns tracing off and makes
	// /debug/trace answer 412.
	Tracer *trace.Tracer
	// Flight is the recorder behind GET /debug/bundle; a handler panic
	// also dumps a bundle before the 500 goes out. nil makes
	// /debug/bundle answer 412.
	Flight *flight.Recorder
	// Watchdog backs GET /debug/health; the caller owns its lifecycle
	// (Start/Stop) and the server only reads verdicts. nil makes
	// /debug/health answer 412.
	Watchdog *flight.Watchdog
	// QueryWindow receives every /query and /batch latency in
	// microseconds. Pass the same histogram to the watchdog's latency
	// rule: the middleware only observes, the watchdog rotates and judges.
	QueryWindow *metrics.WindowedHistogram
}

// NewPending builds a handler with no index yet: /readyz (and every
// query endpoint) answers 503 until Publish installs the first
// snapshot. This lets the listener come up immediately while the index
// loads or builds in the background, so orchestrators can probe
// readiness instead of timing out on connect. opts may be nil for the
// defaults.
func NewPending(opts *Options) *Server {
	var o Options
	if opts != nil {
		o = *opts
	}
	reg := o.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		loader:         o.Loader,
		mux:            http.NewServeMux(),
		reg:            reg,
		inflight:       reg.Gauge("http.inflight"),
		generation:     reg.Gauge("index.generation"),
		batchThreads:   o.BatchThreads,
		tracer:         o.Tracer,
		slow:           NewSlowLog(defaultSlowCapacity, defaultSlowThreshold),
		flightRec:      o.Flight,
		watchdog:       o.Watchdog,
		queryWindow:    o.QueryWindow,
		reloadFailures: reg.Counter("reload.failures_total"),
		panics:         reg.Counter("http.panics_total"),
	}
	if s.batchThreads <= 0 {
		s.batchThreads = defaultBatchThreads()
	}
	if tr := s.tracer; tr != nil {
		tr.SetProcessName("parapll-server")
		tr.SetThreadName(trace.TIDCache, "qcache")
		tr.SetThreadName(trace.TIDWAL, "wal")
		tr.SetThreadName(trace.TIDCompact, "compactor")
		for i := 0; i < requestLanes; i++ {
			tr.SetThreadName(trace.TIDRequestBase+i, fmt.Sprintf("http lane %d", i))
		}
	}
	s.handleSnap("/query", http.MethodGet, s.handleQuery)
	s.handleSnap("/batch", http.MethodPost, s.handleBatch)
	s.handleSnap("/path", http.MethodGet, s.handlePath)
	s.handleSnap("/knn", http.MethodGet, s.handleKNN)
	s.handleSnap("/stats", http.MethodGet, s.handleStats)
	s.handle("/update", http.MethodPost, s.handleUpdate)
	s.handle("/reload", http.MethodPost, s.handleReload)
	s.handle("/readyz", http.MethodGet, s.handleReadyz)
	s.handle("/healthz", http.MethodGet, s.handleHealthz)
	s.handle("/metrics", http.MethodGet, s.handleMetrics)
	s.handle("/debug/slow", http.MethodGet, s.handleDebugSlow)
	s.handle("/debug/trace", http.MethodGet, s.handleDebugTrace)
	s.handleSnap("/debug/explain", http.MethodGet, s.handleDebugExplain)
	s.handle("/debug/health", http.MethodGet, s.handleDebugHealth)
	s.handle("/debug/bundle", http.MethodGet, s.handleDebugBundle)
	return s
}

// ReloadFailures returns the counter behind the watchdog's
// reload-failure rule, so cmd/parapll-server can register the rule on
// the exact counter the serve path increments.
func (s *Server) ReloadFailures() *metrics.Counter { return s.reloadFailures }

// defaultBatchThreads is the /batch fan-out when no -batch-threads flag
// overrides it: up to 4 goroutines, but never more than the machine
// has — a 2-core box should not timeslice 4 batch workers against its
// request handlers.
func defaultBatchThreads() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// BatchThreads returns the per-request /batch fan-out.
func (s *Server) BatchThreads() int { return s.batchThreads }

// SetCacheEntries bounds the (s,t) distance cache fronting every
// snapshot published afterwards; entries <= 0 disables caching. Hit,
// miss and eviction counts are recorded in this server's registry as
// cache.hits / cache.misses / cache.evictions. Call before the first
// Publish — snapshots already published keep serving uncached.
func (s *Server) SetCacheEntries(entries int) {
	if entries <= 0 {
		s.cache = nil
		return
	}
	c := qcache.New(entries)
	c.SetCounters(
		s.reg.Counter("cache.hits"),
		s.reg.Counter("cache.misses"),
		s.reg.Counter("cache.evictions"),
	)
	s.cache = c
}

// Cache returns the configured distance cache (nil when disabled).
func (s *Server) Cache() *qcache.Cache { return s.cache }

// SetUpdater switches the server into living-graph mode: POST /update
// routes edge inserts to u, snapshots published afterwards serve
// queries through u (uncached — see the package doc), and the wal.* /
// compact.* gauges mirror u's Stats at every scrape. Call before the
// first Publish, as cmd/parapll-server does when started with -wal.
func (s *Server) SetUpdater(u Updater) {
	if s.walRecords == nil {
		s.walRecords = s.reg.Gauge("wal.records")
		s.walBytes = s.reg.Gauge("wal.bytes")
		s.compactGen = s.reg.Gauge("compact.generation")
		s.lastCompact = s.reg.Gauge("compact.last_unix_nano")
	}
	s.updater.Store(&u)
}

// Updater returns the installed living-graph updater (nil if none).
func (s *Server) Updater() Updater {
	if up := s.updater.Load(); up != nil {
		return *up
	}
	return nil
}

// refreshUpdaterGauges mirrors the pipeline's stats into the registry.
// Called at scrape/stat time rather than per update: gauges are
// point-in-time reads anyway, and this keeps /update's hot path to the
// pipeline's own work.
func (s *Server) refreshUpdaterGauges() *compact.Stats {
	up := s.Updater()
	if up == nil {
		return nil
	}
	st := up.Stats()
	s.walRecords.Set(int64(st.WALRecords))
	s.walBytes.Set(st.WALBytes)
	s.compactGen.Set(int64(st.Compactions))
	s.lastCompact.Set(st.LastCompactUnixNano)
	return &st
}

// SlowQueries returns the slow-request log exposed at /debug/slow, so
// the embedding process can tune its threshold (-slow-ms).
func (s *Server) SlowQueries() *SlowLog { return s.slow }

// Generation returns the current snapshot's generation (0 = none yet).
func (s *Server) Generation() uint64 {
	if sn := s.snap.Load(); sn != nil {
		return sn.gen
	}
	return 0
}

// Publish atomically swaps in new serving state and returns its
// generation. In-flight requests keep the snapshot they started with;
// new requests see the new one. Safe to call concurrently with
// traffic.
func (s *Server) Publish(idx *label.Index, pidx *pathidx.Index, source string) uint64 {
	return s.publish(idx, pidx, source).gen
}

// publish is Publish returning the stored snapshot itself, so callers
// that need the published state (handleReload's response) read the
// snapshot they created instead of re-loading the pointer — a second
// load could observe a different, concurrent publish.
func (s *Server) publish(idx *label.Index, pidx *pathidx.Index, source string) *snapshot {
	gen := s.gen.Add(1)
	ora := oracle.Oracle(idx)
	if up := s.Updater(); up != nil {
		// Living-graph mode: the pipeline is the query surface — idx is
		// only the checkpoint artifact behind /stats, /knn and /path.
		// No cache wrap: distances mutate within this generation, and a
		// cached overestimate would survive the insert that shortened it.
		ora = up
	} else if s.cache != nil {
		// label.Index is undirected, so (s,t) and (t,s) share one cache
		// entry. The wrapper carries this snapshot's generation: a
		// reload can never serve distances from the previous graph.
		ora = qcache.Wrap(idx, s.cache, gen, qcache.Options{
			Symmetric: true,
			Tracer:    s.tracer,
		})
	}
	sn := &snapshot{
		idx:    idx,
		ora:    ora,
		pidx:   pidx,
		gen:    gen,
		source: source,
		loaded: time.Now(),
	}
	s.snap.Store(sn)
	s.generation.Set(int64(gen))
	return sn
}

// Reload loads an index file and publishes it. An empty path reloads
// the current snapshot's source file. Only one reload runs at a time
// (ErrReloadBusy otherwise); queries are never blocked — they serve the
// old snapshot until the atomic swap. If the loader returns no path
// index, the current snapshot's path index is carried over only when
// the reload re-reads the same source file and the vertex counts still
// match — a path index validated against a different artifact would
// panic or answer paths from the wrong graph. Otherwise the new
// snapshot has no path index and /path answers 404.
func (s *Server) Reload(path string) (uint64, error) {
	sn, err := s.reload(path)
	if err != nil {
		return 0, err
	}
	return sn.gen, nil
}

// reload implements Reload and returns the snapshot it published. The
// current snapshot is loaded exactly once, up front: both the empty-path
// resolution and the pidx carry-over decision read that one value, so a
// concurrent publish mid-reload cannot split the decisions across
// generations (the original form of PR 3's stale-pidx bug).
func (s *Server) reload(path string) (*snapshot, error) {
	sn, err := s.reloadInner(path)
	if err != nil && !errors.Is(err, ErrReloadBusy) {
		// Busy is back-pressure, not a failure of the serving artifact;
		// everything else feeds the watchdog's reload-failure rule and
		// the flight recorder's error ring.
		s.reloadFailures.Inc()
		if s.flightRec != nil {
			s.flightRec.RecordError("reload", err)
		}
	}
	return sn, err
}

func (s *Server) reloadInner(path string) (*snapshot, error) {
	if s.loader == nil {
		return nil, ErrNoLoader
	}
	if !s.reloadMu.TryLock() {
		return nil, ErrReloadBusy
	}
	defer s.reloadMu.Unlock()
	cur := s.snap.Load()
	if path == "" && cur != nil {
		path = cur.source
	}
	if path == "" {
		return nil, fmt.Errorf("server: no index path to reload (served index was built in memory)")
	}
	idx, pidx, err := s.loader(path)
	if err != nil {
		return nil, fmt.Errorf("server: reloading %s: %w", path, err)
	}
	if pidx == nil {
		if cur != nil && cur.pidx != nil &&
			path == cur.source && cur.pidx.NumVertices() == idx.NumVertices() {
			pidx = cur.pidx
		}
	}
	return s.publish(idx, pidx, path), nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter remembers the first status code a handler wrote so the
// middleware can count errors without re-deriving them per handler,
// plus the handler's slow-log annotations: the snapshot generation the
// request was served from and whether the distance cache answered.
type statusWriter struct {
	http.ResponseWriter
	status int
	gen    uint64
	cache  int8 // cacheNone / cacheMiss / cacheHit
}

// noteCache annotates the in-flight request's slow-log entry with the
// distance-cache outcome. w is the middleware's statusWriter on the
// serving path; anything else (a bare ResponseWriter in a unit test) is
// a silent no-op.
func noteCache(w http.ResponseWriter, hit bool) {
	if sw, ok := w.(*statusWriter); ok {
		if hit {
			sw.cache = cacheHit
		} else {
			sw.cache = cacheMiss
		}
	}
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// handle registers h at path behind the shared middleware: a method
// guard (the same 405 on every endpoint) plus per-endpoint request and
// error counters and a latency histogram, all resolved once here so the
// request path touches only atomics. The same wall-clock measurement
// also feeds the slow-query log and, when a tracer is installed and the
// request is sampled, a per-request trace span.
func (s *Server) handle(path, method string, h http.HandlerFunc) {
	name := strings.TrimPrefix(path, "/")
	requests := s.reg.Counter("http.requests." + name)
	errorsC := s.reg.Counter("http.errors." + name)
	latency := s.reg.Histogram("http.latency_us."+name, metrics.DefaultLatencyBuckets)
	spanName := "http " + name
	// The watchdog's query-p99 rule judges the user-visible distance
	// endpoints, not debug or admin traffic.
	windowed := path == "/query" || path == "/batch"
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		s.inflight.Inc()
		defer s.inflight.Dec()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		if r.Method != method {
			writeErr(sw, http.StatusMethodNotAllowed, fmt.Errorf("%s only", method))
		} else {
			s.invoke(h, sw, r, spanName)
		}
		elapsed := time.Since(start)
		latency.Observe(elapsed.Microseconds())
		if windowed && s.queryWindow != nil {
			s.queryWindow.Observe(elapsed.Microseconds())
		}
		if sw.status >= 400 {
			errorsC.Inc()
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote the body without WriteHeader
		}
		s.slow.Observe(r.Method, path, r.URL.RawQuery, status, sw.gen, sw.cache, start, elapsed)
		if tr := s.tracer; tr.Sample() {
			lane := trace.TIDRequestBase + int(s.traceLane.Add(1)%requestLanes)
			id := tr.Intern(spanName, "status")
			t1 := tr.At(start)
			tr.Buf(lane).Span(id, t1, t1+elapsed.Nanoseconds(), uint64(status))
		}
	})
}

// invoke runs one handler behind a panic barrier: a panicking handler
// must not take the process (and every in-flight request) with it, but
// the evidence must survive — the flight recorder dumps a bundle (panic
// captures bypass the auto-trigger rate limit) before the 500 goes out,
// and the rest of the middleware still records latency and the error
// count for the request.
func (s *Server) invoke(h http.HandlerFunc, sw *statusWriter, r *http.Request, spanName string) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		s.panics.Inc()
		if s.flightRec != nil {
			s.flightRec.TriggerPanic(spanName, p)
		}
		writeErr(sw, http.StatusInternalServerError, fmt.Errorf("internal panic: %v", p))
	}()
	h(sw, r)
}

// handleSnap is handle for endpoints that need serving state: the
// handler receives the snapshot current at request start and uses it
// throughout, so a concurrent reload can never shear a request across
// two generations. While no snapshot is published yet, these answer
// 503 (matching /readyz).
func (s *Server) handleSnap(path, method string, h func(sn *snapshot, w http.ResponseWriter, r *http.Request)) {
	s.handle(path, method, func(w http.ResponseWriter, r *http.Request) {
		sn := s.snap.Load()
		if sn == nil {
			writeErr(w, http.StatusServiceUnavailable, errors.New("index is still loading"))
			return
		}
		if sw, ok := w.(*statusWriter); ok {
			sw.gen = sn.gen // slow-log entries name the generation they ran on
		}
		h(sn, w, r)
	})
}

func vertexParam(sn *snapshot, r *http.Request, name string) (graph.Vertex, error) {
	return parseVertex(r.URL, name, sn.ora.NumVertices())
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// queryResponse is the /query reply. appendQueryReply writes the bytes
// json.Encoder would write for it.
type queryResponse struct {
	S         graph.Vertex `json:"s"`
	T         graph.Vertex `json:"t"`
	Dist      int64        `json:"dist"` // -1 when unreachable
	Reachable bool         `json:"reachable"`
}

func encodeDist(d graph.Dist) int64 {
	if d == graph.Inf {
		return -1
	}
	return int64(d)
}

func (s *Server) handleQuery(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	src, err := vertexParam(sn, r, "s")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	dst, err := vertexParam(sn, r, "t")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var d graph.Dist
	if c, ok := sn.ora.(*qcache.Cached); ok {
		// Same lookup as Query, plus the hit bit for the slow log: a slow
		// cache *hit* indicts the HTTP layer, a slow miss the merge kernel.
		var hit bool
		d, hit = c.QueryNote(src, dst)
		noteCache(w, hit)
	} else {
		d = sn.ora.Query(src, dst)
	}
	buf := bytesPool.Get().(*[]byte)
	*buf = appendQueryReply(*buf, src, dst, d)
	writeWire(w, *buf)
	putWire(&bytesPool, buf)
}

// batchRequest / batchResponse are the /batch wire types: the body
// decodeBatch falls back to encoding/json for, and the reply
// appendBatchReply writes the encoder's bytes for.
type batchRequest struct {
	Pairs [][2]graph.Vertex `json:"pairs"`
}
type batchResponse struct {
	Dists []int64 `json:"dists"`
}

const (
	maxBatch = 100000
	// maxBatchBytes bounds the /batch request body, which is read whole
	// before decoding starts: a maxBatch-pair payload of maximal vertex
	// ids is ~2 MiB, so 8 MiB leaves headroom without letting a client
	// stream gigabytes into the server.
	maxBatchBytes = 8 << 20
)

func (s *Server) handleBatch(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	buf := bytesPool.Get().(*[]byte)
	defer putWire(&bytesPool, buf)
	var err error
	*buf, err = readBody(*buf, http.MaxBytesReader(w, r.Body, maxBatchBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", maxBatchBytes))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body: %v", err))
		return
	}
	pairs := pairsPool.Get().(*[][2]graph.Vertex)
	defer putWire(&pairsPool, pairs)
	if *pairs, err = decodeBatch(*pairs, *buf); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(*pairs) > maxBatch {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds limit %d", len(*pairs), maxBatch))
		return
	}
	n := sn.ora.NumVertices()
	for i, p := range *pairs {
		if int(p[0]) < 0 || int(p[0]) >= n || int(p[1]) < 0 || int(p[1]) >= n {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("pair %d out of range", i))
			return
		}
	}
	dists := sn.ora.QueryBatch(*pairs, s.batchThreads)
	// The body is decoded, so its buffer takes the reply.
	*buf = appendBatchReply((*buf)[:0], dists)
	writeWire(w, *buf)
}

// pathResponse is the /path reply.
type pathResponse struct {
	Path []graph.Vertex `json:"path"`
	Dist int64          `json:"dist"`
}

func (s *Server) handlePath(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	if sn.pidx == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("server was started without a path index"))
		return
	}
	src, err := vertexParam(sn, r, "s")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	dst, err := vertexParam(sn, r, "t")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	path, d := sn.pidx.Path(src, dst)
	if d == graph.Inf {
		writeJSON(w, http.StatusOK, pathResponse{Path: nil, Dist: -1})
		return
	}
	writeJSON(w, http.StatusOK, pathResponse{Path: path, Dist: int64(d)})
}

// knnResponse is the /knn reply.
type knnResponse struct {
	Results []knn.Result `json:"results"`
}

const maxK = 10000

// handleKNN serves GET /knn?s=A&k=N: the k closest vertices to s with
// exact distances. The inverted index is built lazily on first use (it
// costs as much memory as the index itself) and cached on the snapshot,
// so it is rebuilt — not reused stale — after every reload.
func (s *Server) handleKNN(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	src, err := vertexParam(sn, r, "s")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	kRaw := r.URL.Query().Get("k")
	k, err := strconv.Atoi(kRaw)
	if err != nil || k < 1 || k > maxK {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad k %q (want 1..%d)", kRaw, maxK))
		return
	}
	res := sn.knnIndex().Query(src, k)
	if res == nil {
		res = []knn.Result{}
	}
	writeJSON(w, http.StatusOK, knnResponse{Results: res})
}

// statsResponse is the /stats reply.
type statsResponse struct {
	Vertices     int           `json:"vertices"`
	Entries      int64         `json:"entries"`
	AvgLabelSize float64       `json:"avg_label_size"`
	HasPathIndex bool          `json:"has_path_index"`
	Generation   uint64        `json:"generation"`
	Format       string        `json:"format"`
	Mmap         bool          `json:"mmap"`
	Source       string        `json:"source,omitempty"`
	Cache        *qcache.Stats `json:"cache,omitempty"`
	// Wal is present only in living-graph mode: the pipeline's WAL
	// length/bytes and compaction history.
	Wal *compact.Stats `json:"wal,omitempty"`
}

func (s *Server) statsPayload(sn *snapshot) statsResponse {
	resp := statsResponse{
		Vertices:     sn.idx.NumVertices(),
		Entries:      sn.idx.NumEntries(),
		AvgLabelSize: sn.idx.AvgLabelSize(),
		HasPathIndex: sn.pidx != nil,
		Generation:   sn.gen,
		Format:       sn.idx.Format(),
		Mmap:         sn.idx.Mapped(),
		Source:       sn.source,
	}
	if s.cache != nil {
		st := s.cache.Stats()
		resp.Cache = &st
	}
	resp.Wal = s.refreshUpdaterGauges()
	return resp
}

func (s *Server) handleStats(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsPayload(sn))
}

// StatsPayload returns the /stats payload for the current snapshot (nil
// before the first Publish) — the flight recorder's Stats source, so a
// bundle embeds exactly what /stats would have answered at capture time.
func (s *Server) StatsPayload() any {
	sn := s.snap.Load()
	if sn == nil {
		return nil
	}
	return s.statsPayload(sn)
}

// maxUpdateBytes bounds the /update request body (three small ints)
// before JSON decoding starts.
const maxUpdateBytes = 1 << 16

// updateRequest / updateResponse are the /update wire types. Fields are
// int64 so range violations arrive as values we can reject explicitly
// instead of silently truncating into a "valid" vertex or weight.
type updateRequest struct {
	U int64 `json:"u"`
	V int64 `json:"v"`
	W int64 `json:"w"`
}
type updateResponse struct {
	Status     string `json:"status"`
	WalRecords int    `json:"wal_records"`
	Generation uint64 `json:"generation"`
}

// handleUpdate serves POST /update: durably insert one undirected edge
// through the living-graph pipeline. The pipeline acknowledges only
// after the WAL fsync, so a 200 here means the edge survives kill -9.
// Without -wal the endpoint answers 412; invalid edges 400; an insert
// that raced a batch window 409 (retryable).
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	up := s.Updater()
	if up == nil {
		writeErr(w, http.StatusPreconditionFailed,
			errors.New("server was started without -wal (no living-graph pipeline)"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxUpdateBytes)
	var req updateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", maxUpdateBytes))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body: %v", err))
		return
	}
	n := int64(up.NumVertices())
	if req.U < 0 || req.U >= n || req.V < 0 || req.V >= n {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("edge {%d,%d} out of range [0,%d)", req.U, req.V, n))
		return
	}
	if req.W <= 0 || req.W >= int64(graph.Inf) {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("weight %d outside (0, %d)", req.W, graph.Inf))
		return
	}
	if err := up.Update(graph.Vertex(req.U), graph.Vertex(req.V), graph.Dist(req.W)); err != nil {
		switch {
		case errors.Is(err, dynamic.ErrInvalid):
			writeErr(w, http.StatusBadRequest, err)
		case errors.Is(err, dynamic.ErrBatchInFlight):
			writeErr(w, http.StatusConflict, err)
		default:
			writeErr(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{
		Status:     "ok",
		WalRecords: up.Stats().WALRecords,
		Generation: s.Generation(),
	})
}

// maxReloadBytes bounds the /reload request body (a single file path)
// before JSON decoding starts.
const maxReloadBytes = 1 << 20

// reloadRequest / reloadResponse are the /reload wire types.
type reloadRequest struct {
	Path string `json:"path"`
}
type reloadResponse struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Source     string `json:"source"`
	Vertices   int    `json:"vertices"`
	Format     string `json:"format"`
	Mmap       bool   `json:"mmap"`
}

// handleReload serves POST /reload: load a fresh index (optionally from
// a different path) and swap it in atomically. The load happens on this
// request's goroutine; every other request keeps serving the old
// snapshot until the swap.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	// A reload body is one path; anything near the cap is garbage.
	r.Body = http.MaxBytesReader(w, r.Body, maxReloadBytes)
	var req reloadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", maxReloadBytes))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body: %v", err))
		return
	}
	// The response describes the snapshot this reload published, not
	// whatever s.snap holds by response time — a concurrent publish
	// between reload and a re-load of the pointer could attribute a
	// different generation to this request.
	sn, err := s.reload(req.Path)
	if err != nil {
		switch {
		case errors.Is(err, ErrReloadBusy):
			writeErr(w, http.StatusConflict, err)
		case errors.Is(err, ErrNoLoader):
			writeErr(w, http.StatusPreconditionFailed, err)
		default:
			writeErr(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, reloadResponse{
		Status:     "ok",
		Generation: sn.gen,
		Source:     sn.source,
		Vertices:   sn.idx.NumVertices(),
		Format:     sn.idx.Format(),
		Mmap:       sn.idx.Mapped(),
	})
}

// handleReadyz distinguishes "process up" (/healthz) from "index
// published and answering" — the signal a load balancer or orchestrator
// should gate traffic on, since the listener comes up before the index
// finishes loading.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	sn := s.snap.Load()
	if sn == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"status": "loading"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"status": "ready", "generation": sn.gen})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshUpdaterGauges() // wal.*/compact.* gauges are scrape-time reads
	// Content negotiation: Prometheus scrapers ask for text/plain (the
	// exposition format); everything else keeps the JSON snapshot.
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/plain") &&
		!strings.Contains(accept, "application/json") {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		metrics.WritePrometheus(w, s.reg.Snapshot())
		return
	}
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// slowResponse is the /debug/slow reply.
type slowResponse struct {
	ThresholdUS int64       `json:"threshold_us"`
	Total       uint64      `json:"total"`
	Entries     []SlowEntry `json:"entries"` // newest first
}

// handleDebugSlow serves GET /debug/slow: the bounded in-memory log of
// requests slower than the threshold, newest first.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, slowResponse{
		ThresholdUS: s.slow.Threshold().Microseconds(),
		Total:       s.slow.Total(),
		Entries:     s.slow.Entries(),
	})
}

// maxCaptureSec bounds one /debug/trace live capture.
const maxCaptureSec = 60.0

// handleDebugTrace serves GET /debug/trace?sec=N: enable tracing (if it
// is not already on), record live traffic for N seconds on this
// request's goroutine, then stream the capture as Chrome trace-event
// JSON and restore the tracer's previous state. One capture at a time;
// a concurrent request gets 409.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.tracer
	if tr == nil {
		writeErr(w, http.StatusPreconditionFailed,
			errors.New("no tracer configured (start the server with -trace-sample)"))
		return
	}
	sec := 5.0
	if raw := r.URL.Query().Get("sec"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		// !(v > 0) instead of v <= 0: ParseFloat("nan", 64) succeeds, and
		// NaN compares false to everything — `v <= 0` would wave it
		// through into time.Duration(NaN * 1e9), an unbounded sleep.
		if err != nil || !(v > 0) || v > maxCaptureSec {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("bad sec %q (want 0 < sec <= %g)", raw, maxCaptureSec))
			return
		}
		sec = v
	}
	if !s.captureMu.TryLock() {
		writeErr(w, http.StatusConflict, errors.New("a live capture is already running"))
		return
	}
	defer s.captureMu.Unlock()
	wasEnabled := tr.Enabled()
	since := tr.Now()
	tr.Enable()
	time.Sleep(time.Duration(sec * float64(time.Second)))
	if !wasEnabled {
		tr.Disable()
	}
	data, err := tr.Capture(since)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// explainCache is the distance-cache section of an /debug/explain reply.
type explainCache struct {
	Hit bool `json:"hit"`
	// Dist is the cached answer when Hit (same encoding as /query). The
	// probe is a Peek: it never disturbs LRU order or hit/miss counters,
	// so explaining a pair does not perturb the cache it is explaining.
	Dist int64 `json:"dist,omitempty"`
}

// explainResponse is the /debug/explain reply: the kernel's own account
// of the lookup plus the serving context around it.
type explainResponse struct {
	label.Explain
	Dist       int64         `json:"dist"` // same encoding as /query (-1 unreachable)
	Generation uint64        `json:"generation"`
	Cache      *explainCache `json:"cache,omitempty"`
	Note       string        `json:"note,omitempty"`
}

// handleDebugExplain serves GET /debug/explain?s=A&t=B: the same lookup
// /query answers, but through the instrumented cold-path sibling of the
// merge kernel — label lengths, hubs probed, galloping vs. linear
// steps, the meeting hub, and the nanosecond cost, with the cache's
// view of the pair alongside. The hot kernel is never involved.
func (s *Server) handleDebugExplain(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	src, err := vertexParam(sn, r, "s")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	dst, err := vertexParam(sn, r, "t")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := explainResponse{
		Explain:    sn.idx.QueryExplain(src, dst),
		Generation: sn.gen,
	}
	resp.Dist = encodeDist(resp.Explain.Dist)
	if c, ok := sn.ora.(*qcache.Cached); ok {
		ec := &explainCache{}
		if d, hit := c.Peek(src, dst); hit {
			ec.Hit = true
			ec.Dist = encodeDist(d)
		}
		resp.Cache = ec
	}
	if s.Updater() != nil {
		resp.Note = "living-graph mode: explain reflects the checkpoint index; " +
			"live queries go through the update pipeline and may differ"
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDebugHealth serves GET /debug/health: every SLO rule's current
// verdict. 412 until cmd/parapll-server arms the watchdog (-slo-*).
func (s *Server) handleDebugHealth(w http.ResponseWriter, r *http.Request) {
	if s.watchdog == nil {
		writeErr(w, http.StatusPreconditionFailed,
			errors.New("no watchdog configured (start the server with -slo-window-ms)"))
		return
	}
	writeJSON(w, http.StatusOK, s.watchdog.Health())
}

// handleDebugBundle serves GET /debug/bundle: trigger an on-demand
// flight capture (never rate-limited — a human asked) and stream the
// bundle back; the same bytes also land in the on-disk spool. 412 until
// cmd/parapll-server arms the recorder (-flight).
func (s *Server) handleDebugBundle(w http.ResponseWriter, r *http.Request) {
	if s.flightRec == nil {
		writeErr(w, http.StatusPreconditionFailed,
			errors.New("no flight recorder configured (start the server with -flight)"))
		return
	}
	path, err := s.flightRec.Trigger("http")
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Flight-Bundle", filepath.Base(path))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}
