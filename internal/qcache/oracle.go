package qcache

import (
	"sync"

	"parapll/internal/graph"
	"parapll/internal/oracle"
	"parapll/internal/trace"
)

// Options configures a cached oracle wrapper.
type Options struct {
	// Symmetric canonicalizes pairs (s,t) and (t,s) to one cache entry.
	// Correct for undirected indexes (label.Index, dynamic.Index); must
	// be false for directed ones, where d(s→t) != d(t→s).
	Symmetric bool
	// Tracer, when non-nil, is consulted per query; sampled queries emit
	// a qcache.query span (arg hit=0/1) on the trace.TIDCache lane.
	Tracer *trace.Tracer
}

// Cached wraps an oracle with a generation-keyed distance cache. It
// implements oracle.Oracle itself, so it drops into the server's
// snapshot seam: Publish wraps each new snapshot's index with that
// snapshot's generation, and the shared Cache can never leak answers
// across generations.
type Cached struct {
	inner oracle.Oracle
	cache *Cache
	gen   uint64
	opt   Options
}

// Wrap returns inner served through c under generation gen.
func Wrap(inner oracle.Oracle, c *Cache, gen uint64, opt Options) *Cached {
	return &Cached{inner: inner, cache: c, gen: gen, opt: opt}
}

// Inner returns the wrapped oracle.
func (o *Cached) Inner() oracle.Oracle { return o.inner }

// Generation returns the snapshot generation keying this wrapper's
// entries.
func (o *Cached) Generation() uint64 { return o.gen }

// NumVertices returns the size of the indexed vertex set.
func (o *Cached) NumVertices() int { return o.inner.NumVertices() }

// canon maps a pair to its cache key order.
func (o *Cached) canon(s, t graph.Vertex) (graph.Vertex, graph.Vertex) {
	if o.opt.Symmetric && s > t {
		return t, s
	}
	return s, t
}

// query is the uninstrumented cached lookup.
func (o *Cached) query(s, t graph.Vertex) (graph.Dist, bool) {
	cs, ct := o.canon(s, t)
	if d, ok := o.cache.Get(o.gen, cs, ct); ok {
		return d, true
	}
	d := o.inner.Query(s, t)
	o.cache.Put(o.gen, cs, ct, d)
	return d, false
}

// Query returns the exact distance, from cache when possible. Both
// reachable distances and graph.Inf are cached (negative caching).
func (o *Cached) Query(s, t graph.Vertex) graph.Dist {
	if tr := o.opt.Tracer; tr.Sample() {
		t0 := tr.Now()
		d, hit := o.query(s, t)
		var h uint64
		if hit {
			h = 1
		}
		tr.Buf(trace.TIDCache).Span(tr.Intern("qcache.query", "hit"), t0, tr.Now(), h)
		return d
	}
	d, _ := o.query(s, t)
	return d
}

// QueryNote is Query plus a hit report: it answers identically
// (including the per-query trace sampling) and additionally returns
// whether the answer came from the cache. The serving layer uses it to
// attribute slow-log entries; the plain Query stays the hot-path shape.
func (o *Cached) QueryNote(s, t graph.Vertex) (graph.Dist, bool) {
	if tr := o.opt.Tracer; tr.Sample() {
		t0 := tr.Now()
		d, hit := o.query(s, t)
		var h uint64
		if hit {
			h = 1
		}
		tr.Buf(trace.TIDCache).Span(tr.Intern("qcache.query", "hit"), t0, tr.Now(), h)
		return d, hit
	}
	return o.query(s, t)
}

// Peek reports the cached answer for (s,t) under this wrapper's
// generation without disturbing LRU order or counters (see Cache.Peek).
// Pair canonicalization matches Query's.
func (o *Cached) Peek(s, t graph.Vertex) (graph.Dist, bool) {
	cs, ct := o.canon(s, t)
	return o.cache.Peek(o.gen, cs, ct)
}

// QueryWithHub delegates to the inner oracle: the cache stores
// distances only, and hub queries are rare (diagnostics, path
// reconstruction) next to plain distance traffic.
func (o *Cached) QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	return o.inner.QueryWithHub(s, t)
}

// batchBuf is reusable miss-collection scratch for QueryBatch.
type batchBuf struct {
	idx   []int
	pairs [][2]graph.Vertex
}

var batchScratch = sync.Pool{New: func() any { return new(batchBuf) }}

// QueryBatch serves each pair from the cache and fans only the misses
// out to the inner oracle's batch path, so a warm batch costs map
// probes instead of merges. Miss bookkeeping reuses pooled scratch —
// steady state allocates only the result slice.
func (o *Cached) QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist {
	out := make([]graph.Dist, len(pairs))
	buf := batchScratch.Get().(*batchBuf)
	missIdx := buf.idx[:0]
	missPairs := buf.pairs[:0]
	for i, p := range pairs {
		cs, ct := o.canon(p[0], p[1])
		if d, ok := o.cache.Get(o.gen, cs, ct); ok {
			out[i] = d
		} else {
			missIdx = append(missIdx, i)
			missPairs = append(missPairs, p)
		}
	}
	if len(missIdx) > 0 {
		md := o.inner.QueryBatch(missPairs, threads)
		for k, i := range missIdx {
			out[i] = md[k]
			cs, ct := o.canon(missPairs[k][0], missPairs[k][1])
			o.cache.Put(o.gen, cs, ct, md[k])
		}
	}
	buf.idx, buf.pairs = missIdx[:0], missPairs[:0]
	batchScratch.Put(buf)
	return out
}

// The wrapper must satisfy the interface it fronts.
var _ oracle.Oracle = (*Cached)(nil)
