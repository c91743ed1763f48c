package main

import (
	"math/rand"

	"parapll/internal/graph"
)

// workload is one traffic mix against one generated graph. The graph
// comes from an internal/gen recipe (fixed by name and scale); every
// pair, batch and update is drawn from the run's --seed.
type workload struct {
	name    string
	dataset string  // internal/gen recipe name
	scale   float64 // recipe scale
	zipf    bool    // Zipf(zipfS) vertex draws; otherwise uniform
	batch   bool    // closed-loop POST /batch instead of GET /query
	living  bool    // -wal server, open-loop reads beside open-loop writes
	conns   int     // client connections (at most 2: the host has 2 vCPUs)
	roots   int     // verification roots checked against Dijkstra
	updates int     // updates each in-process write-path probe applies (traced run)
}

var workloads = []workload{
	// HTTP parse and encode dominate a /query; Zipf pairs make the
	// distance cache answer about half the lookups.
	{name: "query-social", dataset: "Epinions", scale: 0.5, zipf: true, conns: 2, roots: 16, updates: 40},
	// The merge kernel dominates 1,000-pair batches on long road labels;
	// uniform pairs miss the cache. One connection: two concurrent
	// batches make the median follow the host's CPU steal.
	{name: "batch-road", dataset: "RI-USA", scale: 0.1, batch: true, conns: 1, roots: 32, updates: 8},
	// The /query path beside durable writes: WAL fsync, label repair
	// under the pipeline's write lock, compaction swaps.
	{name: "living-social", dataset: "Epinions", scale: 0.5, zipf: true, living: true, conns: 2, roots: 16, updates: 40},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Traffic shape shared by the workloads.
const (
	batchPairs   = 1000 // pairs per POST /batch
	zipfS        = 1.1  // Zipf exponent of the vertex draws
	queryRate    = 1000 // living-social reads per second
	updateRate   = 5    // living-social writes per second
	compactEvery = 12   // living-social -compact-every: several compactions per run
	maxWeight    = 8    // update weights are uniform in [1, maxWeight]
)

// Stream tags keep the seeded streams independent of each other.
const (
	tagPerm = iota + 1
	tagPairs
	tagRoots
	tagUpdates
	tagTargets
)

// subSeed derives a stream seed from the run seed (splitmix64).
func subSeed(seed int64, tag, i int) int64 {
	z := uint64(seed) + uint64(tag)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// vertexDraw draws vertex ids either uniformly or Zipf(zipfS) over a
// seeded permutation, so a "hot" vertex is never simply a low id (low
// ids are the generators' hubs).
type vertexDraw struct {
	r    *rand.Rand
	z    *rand.Zipf
	perm []int
	n    int
}

func newVertexDraw(n int, zipf bool, seed int64, tag, i int) *vertexDraw {
	d := &vertexDraw{r: rand.New(rand.NewSource(subSeed(seed, tag, i))), n: n}
	if zipf {
		d.perm = rand.New(rand.NewSource(subSeed(seed, tagPerm, 0))).Perm(n)
		d.z = rand.NewZipf(d.r, zipfS, 1, uint64(n-1))
	}
	return d
}

func (d *vertexDraw) next() graph.Vertex {
	if d.z == nil {
		return graph.Vertex(d.r.Intn(d.n))
	}
	return graph.Vertex(d.perm[d.z.Uint64()])
}

// pairStream is connection conn's sequence of (s, t) query pairs; s and
// t are drawn independently.
type pairStream struct{ d *vertexDraw }

func newPairStream(n int, wl workload, seed int64, conn int) *pairStream {
	return &pairStream{d: newVertexDraw(n, wl.zipf, seed, tagPairs, conn)}
}

func (p *pairStream) next() [2]graph.Vertex { return [2]graph.Vertex{p.d.next(), p.d.next()} }

func (p *pairStream) take(k int) [][2]graph.Vertex {
	out := make([][2]graph.Vertex, k)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

// updateStream is the seeded sequence of inserted edges: uniform
// endpoints (never a self loop), weights uniform in [1, maxWeight].
type updateStream struct {
	r *rand.Rand
	n int
}

func newUpdateStream(n int, seed int64, i int) *updateStream {
	return &updateStream{r: rand.New(rand.NewSource(subSeed(seed, tagUpdates, i))), n: n}
}

func (u *updateStream) next() graph.Edge {
	a := u.r.Intn(u.n)
	b := u.r.Intn(u.n - 1)
	if b >= a {
		b++
	}
	return graph.Edge{U: graph.Vertex(a), V: graph.Vertex(b), W: graph.Dist(1 + u.r.Intn(maxWeight))}
}

func (u *updateStream) take(k int) []graph.Edge {
	out := make([]graph.Edge, k)
	for i := range out {
		out[i] = u.next()
	}
	return out
}

// pickRoots draws k distinct verification roots from the workload's own
// vertex distribution, so a Zipf mix verifies its hot vertices.
func pickRoots(n int, wl workload, seed int64) []graph.Vertex {
	k := wl.roots
	if k > n {
		k = n
	}
	d := newVertexDraw(n, wl.zipf, seed, tagRoots, 0)
	seen := make(map[graph.Vertex]bool, k)
	roots := make([]graph.Vertex, 0, k)
	for len(roots) < k {
		v := d.next()
		if !seen[v] {
			seen[v] = true
			roots = append(roots, v)
		}
	}
	return roots
}
