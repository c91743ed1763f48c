package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"parapll/internal/compact"
	"parapll/internal/core"
	"parapll/internal/dynamic"
	"parapll/internal/fileio"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/order"
	"parapll/internal/qcache"
	"parapll/internal/server"
	"parapll/internal/wal"
)

// cacheEntries is parapll-server's default -cache-entries, which the
// workloads run with.
const cacheEntries = 65536

// Replay lengths of the in-process layer measurements. The workload's
// own read path replays as many operations as its client sent (capped);
// the other path gets a fixed sample.
const (
	maxQueryReplay   = 150000
	maxBatchReplay   = 300
	otherQueryReplay = 20000
	otherBatchReplay = 40
	countPairs       = 100000 // pairs behind label.entries_per_query
	allocSample      = 1000   // /query requests behind server.query_allocs (1/50 of it for /batch)
	stallWindow      = time.Second
)

// layerSet accumulates the per-layer metrics of one traced run.
type layerSet struct{ ms []metric }

func (l *layerSet) add(name string, v float64, unit string, n int) {
	l.ms = append(l.ms, metric{name, v, unit, n})
}

// sink keeps timed calls from being optimised away.
var sink graph.Dist

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func newRecorder() *recorder                    { return &recorder{h: http.Header{}} }
func (r *recorder) Header() http.Header         { return r.h }
func (r *recorder) WriteHeader(code int)        { r.setCode(code) }
func (r *recorder) Write(p []byte) (int, error) { r.setCode(http.StatusOK); return r.body.Write(p) }
func (r *recorder) reset()                      { r.code = 0; r.body.Reset() }
func (r *recorder) setCode(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func queryRequest(p [2]graph.Vertex) *http.Request {
	return httptest.NewRequest(http.MethodGet, "/query?s="+itoa(p[0])+"&t="+itoa(p[1]), nil)
}

func batchRequest(body []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body))
}

func updateRequest(e graph.Edge) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/update",
		bytes.NewReader([]byte(fmt.Sprintf(`{"u":%d,"v":%d,"w":%d}`, e.U, e.V, e.W))))
}

// serveTimed runs one in-process request and returns its duration.
func serveTimed(h http.Handler, rw *recorder, req *http.Request) (time.Duration, error) {
	rw.reset()
	t0 := time.Now()
	h.ServeHTTP(rw, req)
	d := time.Since(t0)
	if rw.code != http.StatusOK {
		return d, fmt.Errorf("in-process %s %s: %d %s", req.Method, req.URL.Path, rw.code, rw.body.String())
	}
	return d, nil
}

// allocsPerRequest counts heap allocations per in-process request.
func allocsPerRequest(h http.Handler, reqs []*http.Request) (float64, error) {
	rw := newRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs {
		if _, err := serveTimed(h, rw, req); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(reqs)), nil
}

// cachedServer is an in-process server with parapll-server's default
// flags: a fresh distance cache in front of idx.
func cachedServer(idx *label.Index) *server.Server {
	s := server.NewPending(nil)
	s.SetCacheEntries(cacheEntries)
	s.Publish(idx, nil, "")
	return s
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// measureLayers times calls into each layer's public functions on the
// run's graph and seeded inputs, after the server process has stopped.
// Each layer's self time is its time minus the next layer in, measured
// on the same inputs. reads is the client's tally of the workload's
// read path; it anchors the HTTP layer and the shares.
func measureLayers(cfg config, in *inputs, dir string, reads *tally) ([]metric, error) {
	wl, g, n := cfg.wl, in.g, in.g.NumVertices()
	l := &layerSet{}

	// Set-up path: load, order, build (as the server builds), finalize.
	var loads, orders []float64
	var ord []graph.Vertex
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := fileio.LoadGraph(in.graphPath); err != nil {
			return nil, err
		}
		loads = append(loads, msSince(t0))
		t0 = time.Now()
		ord = order.Degree(g)
		orders = append(orders, msSince(t0))
	}
	l.add("fileio.load_graph_ms", median(loads), "ms", len(loads))
	l.add("order.ms", median(orders), "ms", len(orders))
	store := label.NewStore(n)
	t0 := time.Now()
	st := core.BuildInto(g, store, core.Options{Order: ord, Policy: core.Dynamic})
	l.add("core.build_s", time.Since(t0).Seconds(), "s", 1)
	t0 = time.Now()
	label.NewIndex(store)
	l.add("core.finalize_ms", msSince(t0), "ms", 1)
	l.add("core.projected_speedup", st.ProjectedSpeedup(), "x", len(st.PerWorkerWork))

	// Counts from a one-thread build, which repeat exactly; every later
	// layer runs on this index too.
	prog := &core.Progress{}
	store1 := label.NewStore(n)
	st1 := core.BuildInto(g, store1, core.Options{Order: ord, Threads: 1, Progress: prog})
	idx := label.NewIndex(store1)
	snap := prog.Snapshot()
	l.add("core.total_work", float64(st1.TotalWork()), "count", 1)
	l.add("core.labels_added", float64(snap.LabelsAdded), "count", 1)
	l.add("core.pruned", float64(snap.Pruned), "count", 1)
	l.add("label.index_entries", float64(idx.NumEntries()), "count", 1)
	var entries int64
	for _, p := range newPairStream(n, wl, cfg.seed, 0).take(countPairs) {
		entries += int64(idx.LabelSize(p[0]) + idx.LabelSize(p[1]))
	}
	l.add("label.entries_per_query", float64(entries)/countPairs, "count", countPairs)

	midx := filepath.Join(dir, "layer.midx")
	var saves []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := fileio.SaveIndexAs(midx, idx, label.FormatMmap); err != nil {
			return nil, err
		}
		saves = append(saves, msSince(t0))
	}
	fi, err := os.Stat(midx)
	if err != nil {
		return nil, err
	}
	l.add("label.index_bytes", float64(fi.Size()), "bytes", 1)
	l.add("fileio.save_index_ms", median(saves), "ms", len(saves))

	// Read paths: /query and /batch through server -> qcache -> label.
	nq, nb := otherQueryReplay, otherBatchReplay
	if wl.batch {
		nb = int(min(reads.attempted, maxBatchReplay))
	} else {
		nq = int(min(reads.attempted, maxQueryReplay))
	}
	q, err := queryLayers(l, idx, newPairStream(n, wl, cfg.seed, 0).take(nq), !wl.batch)
	if err != nil {
		return nil, err
	}
	ps := newPairStream(n, wl, cfg.seed, 0)
	batches := make([][][2]graph.Vertex, nb)
	for i := range batches {
		batches[i] = ps.take(batchPairs)
	}
	b, err := batchLayers(l, idx, batches, wl.batch)
	if err != nil {
		return nil, err
	}

	// Write path: server -> compact.Pipeline -> wal + dynamic.
	u, err := updateLayers(l, cfg, g, idx, dir)
	if err != nil {
		return nil, err
	}

	// The workload's read path, client inward. Means add up, so the
	// shares of the client's mean latency sum to one.
	path := q
	switch {
	case wl.batch:
		path = b
	case wl.living:
		path = u
	}
	var spanned durations
	for _, sp := range reads.spans {
		spanned = append(spanned, sp.end-sp.start)
	}
	rtt := spanned.mean()
	l.add("http.rtt_self_us", rtt-path.server, "us", len(spanned))
	l.add("share.http", (rtt-path.server)/rtt, "share", len(spanned))
	l.add("share.server", (path.server-path.wrapper)/rtt, "share", path.n)
	l.add("share.wrapper", (path.wrapper-path.kernel)/rtt, "share", path.n)
	l.add("share.kernel", path.kernel/rtt, "share", path.n)
	on := latencies(reads.ops, true, func(o op) bool { return traced(o.at) })
	off := latencies(reads.ops, true, func(o op) bool { return !traced(o.at) })
	l.add("trace.overhead_share", on.quantile(0.5)/off.quantile(0.5)-1, "share", len(on))
	return l.ms, nil
}

// pathTimes are the mean microseconds one read spends inside each
// layer and everything below it.
type pathTimes struct {
	server, wrapper, kernel float64
	n                       int
}

// queryLayers times GET /query in-process, qcache.Cached.Query and
// label.Index.Query on the same pairs, each layer with a fresh cache.
func queryLayers(l *layerSet, idx *label.Index, pairs [][2]graph.Vertex, primary bool) (pathTimes, error) {
	// One untimed pass first, so no layer pays for cold CPU caches.
	warm := qcache.Wrap(idx, qcache.New(cacheEntries), 1, qcache.Options{Symmetric: true})
	for _, p := range pairs {
		sink += warm.Query(p[0], p[1])
	}
	t0 := time.Now()
	for _, p := range pairs {
		sink += idx.Query(p[0], p[1])
	}
	kernel := us(time.Since(t0)) / float64(len(pairs))
	each := make(durations, len(pairs))
	for i, p := range pairs {
		t0 := time.Now()
		sink += idx.Query(p[0], p[1])
		each[i] = time.Since(t0)
	}
	l.add("label.query_ns_p50", each.quantile(0.50)*1e3, "ns", len(each))
	l.add("label.query_ns_p99", each.quantile(0.99)*1e3, "ns", len(each))

	c := qcache.New(cacheEntries)
	co := qcache.Wrap(idx, c, 1, qcache.Options{Symmetric: true})
	t0 = time.Now()
	for _, p := range pairs {
		sink += co.Query(p[0], p[1])
	}
	cached := us(time.Since(t0)) / float64(len(pairs))
	l.add("qcache.query_self_ns", (cached-kernel)*1e3, "ns", len(pairs))
	if primary {
		addCacheRatios(l, c.Stats())
	}

	srv := cachedServer(idx)
	rw := newRecorder()
	var total time.Duration
	for _, p := range pairs {
		d, err := serveTimed(srv, rw, queryRequest(p))
		if err != nil {
			return pathTimes{}, err
		}
		total += d
	}
	served := us(total) / float64(len(pairs))
	l.add("server.query_self_us", served-cached, "us", len(pairs))
	reqs := make([]*http.Request, min(allocSample, len(pairs)))
	for i := range reqs {
		reqs[i] = queryRequest(pairs[i])
	}
	allocs, err := allocsPerRequest(srv, reqs)
	if err != nil {
		return pathTimes{}, err
	}
	l.add("server.query_allocs", allocs, "count", len(reqs))
	return pathTimes{server: served, wrapper: cached, kernel: kernel, n: len(pairs)}, nil
}

func addCacheRatios(l *layerSet, s qcache.Stats) {
	looks := s.Hits + s.Misses
	l.add("qcache.hit_ratio", float64(s.Hits)/float64(max(looks, 1)), "share", int(looks))
	l.add("qcache.evictions_per_miss", float64(s.Evictions)/float64(max(s.Misses, 1)), "count", int(s.Misses))
}

// batchLayers times POST /batch in-process, Cached.QueryBatch and
// label.Index.QueryBatch on the same batches, each with a fresh cache.
func batchLayers(l *layerSet, idx *label.Index, batches [][][2]graph.Vertex, primary bool) (pathTimes, error) {
	srv := cachedServer(idx)
	threads := srv.BatchThreads()
	pairs := float64(len(batches) * batchPairs)
	warm := qcache.Wrap(idx, qcache.New(cacheEntries), 1, qcache.Options{Symmetric: true})
	for _, b := range batches {
		warm.QueryBatch(b, threads)
	}
	t0 := time.Now()
	for _, b := range batches {
		idx.QueryBatch(b, threads)
	}
	kernel := us(time.Since(t0)) / float64(len(batches))
	l.add("label.batch_ns_per_pair", us(time.Since(t0))*1e3/pairs, "ns", int(pairs))

	c := qcache.New(cacheEntries)
	co := qcache.Wrap(idx, c, 1, qcache.Options{Symmetric: true})
	t0 = time.Now()
	for _, b := range batches {
		co.QueryBatch(b, threads)
	}
	cached := us(time.Since(t0)) / float64(len(batches))
	l.add("qcache.batch_self_ns_per_pair", (cached-kernel)*1e3/batchPairs, "ns", int(pairs))
	if primary {
		addCacheRatios(l, c.Stats())
	}

	rw := newRecorder()
	var total time.Duration
	var reqs []*http.Request
	for _, b := range batches {
		body := batchBody(b)
		d, err := serveTimed(srv, rw, batchRequest(body))
		if err != nil {
			return pathTimes{}, err
		}
		total += d
		if len(reqs) < allocSample/50 {
			reqs = append(reqs, batchRequest(body))
		}
	}
	served := us(total) / float64(len(batches))
	l.add("server.batch_self_us", served-cached, "us", len(batches))
	allocs, err := allocsPerRequest(srv, reqs)
	if err != nil {
		return pathTimes{}, err
	}
	l.add("server.batch_allocs", allocs, "count", len(reqs))
	return pathTimes{server: served, wrapper: cached, kernel: kernel, n: len(batches)}, nil
}

// updateLayers applies the workload's first seeded updates to four
// identical replicas -- a dynamic.Index, a bare WAL, a compact.Pipeline
// and a Pipeline behind an in-process living-mode server -- so each
// layer does the same repair work, then compacts one pipeline and
// measures reads under a concurrent write stream. On living-social it
// also returns the living read path's layer times.
func updateLayers(l *layerSet, cfg config, g *graph.Graph, idx *label.Index, dir string) (pathTimes, error) {
	var out pathTimes
	n := g.NumVertices()
	ups := newUpdateStream(n, cfg.seed, 0).take(cfg.wl.updates)
	k := len(ups)

	dyn := dynamic.FromIndex(g, idx)
	e0 := dyn.NumEntries()
	inserts := make(durations, k)
	for i, e := range ups {
		t0 := time.Now()
		if err := dyn.InsertEdge(e.U, e.V, e.W); err != nil {
			return out, err
		}
		inserts[i] = time.Since(t0)
	}
	l.add("dynamic.insert_us_p50", inserts.quantile(0.50), "us", k)
	l.add("dynamic.insert_us_p99", inserts.quantile(0.99), "us", k)
	l.add("dynamic.entries_added_per_insert", float64(dyn.NumEntries()-e0)/float64(k), "count", k)

	log, _, err := wal.Open(filepath.Join(dir, "layer-wal.log"))
	if err != nil {
		return out, err
	}
	var fsyncs durations
	log.SetSyncObserver(func(d time.Duration) { fsyncs = append(fsyncs, d) })
	b0 := log.Bytes()
	appends := make(durations, k)
	for i, e := range ups {
		t0 := time.Now()
		if err := log.Append(e.U, e.V, e.W); err != nil {
			log.Close()
			return out, err
		}
		appends[i] = time.Since(t0)
	}
	bytesPer := float64(log.Bytes()-b0) / float64(k)
	if err := log.Close(); err != nil {
		return out, err
	}
	l.add("wal.append_us_p50", appends.quantile(0.50), "us", k)
	l.add("wal.append_us_p99", appends.quantile(0.99), "us", k)
	l.add("wal.fsync_us_p50", fsyncs.quantile(0.50), "us", len(fsyncs))
	l.add("wal.fsync_us_p99", fsyncs.quantile(0.99), "us", len(fsyncs))
	l.add("wal.bytes_per_update", bytesPer, "bytes", k)

	pa, err := compact.Open(compact.Options{Dir: filepath.Join(dir, "pipe-a"), Graph: g, Index: idx})
	if err != nil {
		return out, err
	}
	defer pa.Close()
	updates := make(durations, k)
	for i, e := range ups {
		t0 := time.Now()
		if err := pa.Update(e.U, e.V, e.W); err != nil {
			return out, err
		}
		updates[i] = time.Since(t0)
	}
	l.add("compact.update_us", updates.quantile(0.50), "us", k)
	// Update cost is heavy-tailed (most repairs are tiny, a few touch
	// thousands of labels), so self times are medians of per-update
	// differences between replicas that did the same work.
	self := make([]float64, k)
	for i := range self {
		self[i] = us(updates[i] - appends[i] - inserts[i])
	}
	l.add("compact.update_self_us", median(self), "us", k)

	pb, err := compact.Open(compact.Options{Dir: filepath.Join(dir, "pipe-b"), Graph: g, Index: idx})
	if err != nil {
		return out, err
	}
	defer pb.Close()
	lsrv := server.NewPending(nil)
	lsrv.SetUpdater(pb)
	lsrv.Publish(idx, nil, "")
	rw := newRecorder()
	served := make(durations, k)
	for i, e := range ups {
		if served[i], err = serveTimed(lsrv, rw, updateRequest(e)); err != nil {
			return out, err
		}
	}
	for i := range self {
		self[i] = us(served[i] - updates[i])
	}
	l.add("server.update_self_us", median(self), "us", k)

	if cfg.wl.living {
		// Living-mode /query: server -> Pipeline (read lock) -> dynamic.
		pairs := newPairStream(n, cfg.wl, cfg.seed, 0).take(otherQueryReplay)
		t0 := time.Now()
		for _, p := range pairs {
			sink += dyn.Query(p[0], p[1])
		}
		kernel := us(time.Since(t0)) / float64(len(pairs))
		t0 = time.Now()
		for _, p := range pairs {
			sink += pb.Query(p[0], p[1])
		}
		wrapper := us(time.Since(t0)) / float64(len(pairs))
		var total time.Duration
		for _, p := range pairs {
			d, err := serveTimed(lsrv, rw, queryRequest(p))
			if err != nil {
				return out, err
			}
			total += d
		}
		out = pathTimes{server: us(total) / float64(len(pairs)), wrapper: wrapper, kernel: kernel, n: len(pairs)}
	}

	t0 := time.Now()
	rep, err := pa.Compact()
	if err != nil {
		return out, err
	}
	l.add("compact.run_ms", msSince(t0), "ms", 1)
	l.add("compact.swap_ms", float64(rep.SwapTime.Nanoseconds())/1e6, "ms", 1)

	// Reads at the living read rate while another goroutine writes at
	// the living write rate; each read is timed from its call.
	more := newUpdateStream(n, cfg.seed, 1)
	start := time.Now()
	end := start.Add(stallWindow)
	errc := make(chan error, 1)
	go func() {
		var first error
		openLoop(updateRate, start, end, func(time.Time, bool) {
			e := more.next()
			if err := pa.Update(e.U, e.V, e.W); err != nil && first == nil {
				first = err
			}
		})
		errc <- first
	}()
	ps := newPairStream(n, cfg.wl, cfg.seed, 1)
	var stalls durations
	openLoop(queryRate, start, end, func(time.Time, bool) {
		p := ps.next()
		t0 := time.Now()
		sink += pa.Query(p[0], p[1])
		stalls = append(stalls, time.Since(t0))
	})
	if err := <-errc; err != nil {
		return out, err
	}
	l.add("compact.query_stall_p99_us", stalls.quantile(0.99), "us", len(stalls))
	return out, nil
}
