// Package pathidx extends ParaPLL's distance index to full shortest-path
// reconstruction. The paper works with P(s,t), the shortest path itself
// (its route-selection use case needs the hops, not just σ(P(s,t)));
// this package stores, with every label (h, d) ∈ L(u), the predecessor
// of u on the path from hub h. A query then finds the meeting hub as
// usual and unwinds the two predecessor chains.
//
// The chain-unwinding is sound because a pruned Dijkstra only relaxes
// neighbors of vertices it did NOT prune, and every non-pruned settled
// vertex receives a label: if u's label for hub h names parent w, then w
// was expanded in the same search and therefore carries a label for h
// too. This holds equally for parallel construction.
package pathidx

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"parapll/internal/core"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/task"
	"parapll/internal/vheap"
)

// Entry is one path-augmented 2-hop label.
type Entry struct {
	Hub    graph.Vertex
	D      graph.Dist
	Parent graph.Vertex // predecessor on the hub→vertex shortest path; == vertex itself at the hub
}

// Options configures a path-index build.
type Options struct {
	// Threads is the number of parallel workers; <= 0 means GOMAXPROCS.
	Threads int
	// Policy is the assignment policy (core.Static or core.Dynamic).
	Policy core.Policy
	// Order is the computing sequence; nil means degree descending.
	Order []graph.Vertex
}

// Index answers exact distance and path queries: the hub labels live
// in a label.Index, so distance queries run the same merge kernel as
// the plain index, and parents holds each entry's predecessor aligned
// with the label runs.
type Index struct {
	idx     *label.Index
	parents [][]graph.Vertex // parents[v][i] belongs to the i-th entry of idx.Label(v)
}

// pstore is the concurrent label store for path entries: the same
// published-length design as label.Store (lock-free reads, per-vertex
// mutex-guarded appends), specialized to the wider Entry.
type pstore struct {
	labels []atomic.Pointer[pslab]
	mu     []sync.Mutex
}

type pslab struct{ entries []Entry }

func newPStore(n int) *pstore {
	s := &pstore{
		labels: make([]atomic.Pointer[pslab], n),
		mu:     make([]sync.Mutex, n),
	}
	empty := &pslab{}
	for i := range s.labels {
		s.labels[i].Store(empty)
	}
	return s
}

func (s *pstore) snapshot(v graph.Vertex) []Entry { return s.labels[v].Load().entries }

func (s *pstore) append(v graph.Vertex, e Entry) {
	s.mu[v].Lock()
	old := s.labels[v].Load().entries
	var next []Entry
	if cap(old) > len(old) {
		next = old[:len(old)+1]
		next[len(old)] = e
	} else {
		next = make([]Entry, len(old)+1, 2*len(old)+4)
		copy(next, old)
		next[len(old)] = e
	}
	s.labels[v].Store(&pslab{entries: next})
	s.mu[v].Unlock()
}

// Build constructs a path-augmented index (parallel, like core.Build).
func Build(g *graph.Graph, opt Options) *Index {
	n := g.NumVertices()
	ord := opt.Order
	if ord == nil {
		ord = graph.DegreeOrder(g)
	} else if len(ord) != n {
		panic("pathidx: Order must be a permutation of the vertices")
	}
	threads := opt.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	var mgr task.Manager
	if opt.Policy == core.Dynamic {
		mgr = task.NewDynamic(ord, threads, 1)
	} else {
		mgr = task.NewStatic(ord, threads)
	}
	store := newPStore(n)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ps := newSearcher(g)
			for {
				r, _, ok := mgr.Next(w)
				if !ok {
					return
				}
				ps.run(r, store)
			}
		}(w)
	}
	wg.Wait()
	return finalize(store, n)
}

// searcher is the per-worker pruned Dijkstra with parent tracking.
type searcher struct {
	g       *graph.Graph
	dist    []graph.Dist
	parent  []graph.Vertex
	tmp     []graph.Dist
	touched []graph.Vertex
	hubs    []graph.Vertex
	heap    *vheap.Indexed
}

func newSearcher(g *graph.Graph) *searcher {
	n := g.NumVertices()
	ps := &searcher{
		g:      g,
		dist:   make([]graph.Dist, n),
		parent: make([]graph.Vertex, n),
		tmp:    make([]graph.Dist, n),
		heap:   vheap.NewIndexed(n),
	}
	for i := 0; i < n; i++ {
		ps.dist[i] = graph.Inf
		ps.tmp[i] = graph.Inf
	}
	return ps
}

func (ps *searcher) run(r graph.Vertex, store *pstore) {
	for _, e := range store.snapshot(r) {
		if e.D < ps.tmp[e.Hub] {
			ps.tmp[e.Hub] = e.D
		}
		ps.hubs = append(ps.hubs, e.Hub)
	}
	ps.dist[r] = 0
	ps.parent[r] = r
	ps.touched = append(ps.touched, r)
	ps.heap.Reset()
	ps.heap.Push(r, 0)
	for ps.heap.Len() > 0 {
		u, d := ps.heap.Pop()
		covered := false
		for _, e := range store.snapshot(u) {
			if t := ps.tmp[e.Hub]; t != graph.Inf && graph.AddDist(t, e.D) <= d {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		store.append(u, Entry{Hub: r, D: d, Parent: ps.parent[u]})
		ns, ws := ps.g.Neighbors(u)
		for i, v := range ns {
			nd := graph.AddDist(d, ws[i])
			if nd < ps.dist[v] {
				if ps.dist[v] == graph.Inf {
					ps.touched = append(ps.touched, v)
				}
				ps.dist[v] = nd
				ps.parent[v] = u
				ps.heap.Push(v, nd)
			}
		}
	}
	for _, v := range ps.touched {
		ps.dist[v] = graph.Inf
	}
	ps.touched = ps.touched[:0]
	for _, h := range ps.hubs {
		ps.tmp[h] = graph.Inf
	}
	ps.hubs = ps.hubs[:0]
}

func finalize(store *pstore, n int) *Index {
	lists := make([][]label.Entry, n)
	parents := make([][]graph.Vertex, n)
	for v := 0; v < n; v++ {
		snap := store.snapshot(graph.Vertex(v))
		list := make([]Entry, len(snap))
		copy(list, snap)
		sort.Slice(list, func(i, j int) bool {
			if list[i].Hub != list[j].Hub {
				return list[i].Hub < list[j].Hub
			}
			return list[i].D < list[j].D
		})
		out := list[:0]
		for _, e := range list {
			if len(out) > 0 && out[len(out)-1].Hub == e.Hub {
				continue
			}
			out = append(out, e)
		}
		// The rows are hub-sorted and duplicate-free, so the label.Index
		// keeps their order and parents stays aligned with its runs.
		row := make([]label.Entry, len(out))
		par := make([]graph.Vertex, len(out))
		for i, e := range out {
			row[i] = label.Entry{Hub: e.Hub, D: e.D}
			par[i] = e.Parent
		}
		lists[v], parents[v] = row, par
	}
	return &Index{idx: label.NewIndexFromLists(lists), parents: parents}
}

// NumVertices returns the number of labeled vertices.
func (x *Index) NumVertices() int { return x.idx.NumVertices() }

// NumEntries returns the total number of label entries.
func (x *Index) NumEntries() int64 { return x.idx.NumEntries() }

// entryFor finds v's entry for the given hub by binary search.
func (x *Index) entryFor(v, hub graph.Vertex) (Entry, bool) {
	hubs, dists := x.idx.Label(v)
	i := sort.Search(len(hubs), func(i int) bool { return hubs[i] >= hub })
	var e Entry
	found := i < len(hubs) && hubs[i] == hub
	if found {
		e = Entry{Hub: hub, D: dists[i], Parent: x.parents[v][i]}
	}
	runtime.KeepAlive(x)
	return e, found
}

// Query returns the exact distance between s and t (graph.Inf if
// disconnected).
func (x *Index) Query(s, t graph.Vertex) graph.Dist { return x.idx.Query(s, t) }

// QueryWithHub is Query but also reports the meeting hub achieving the
// minimum; hub is -1 for disconnected pairs, and (0, s) is returned
// for s == t.
func (x *Index) QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	return x.idx.QueryWithHub(s, t)
}

// QueryBatch answers many (s,t) pairs in parallel (threads <= 0 means
// GOMAXPROCS). The index is immutable, so no synchronization is needed.
func (x *Index) QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist {
	return x.idx.QueryBatch(pairs, threads)
}

// Path returns the vertex sequence of a shortest path from s to t and
// its distance. It returns (nil, Inf) for disconnected pairs and
// ([s], 0) for s == t. The path is exact: its edge weights sum to the
// returned distance.
func (x *Index) Path(s, t graph.Vertex) ([]graph.Vertex, graph.Dist) {
	if s == t {
		return []graph.Vertex{s}, 0
	}
	d, hub := x.idx.QueryWithHub(s, t)
	if hub < 0 {
		return nil, graph.Inf
	}
	sHalf := x.chain(s, hub) // s … hub
	tHalf := x.chain(t, hub) // t … hub
	if sHalf == nil || tHalf == nil {
		return nil, graph.Inf // corrupt index; fail closed
	}
	path := sHalf
	for i := len(tHalf) - 2; i >= 0; i-- { // skip hub, reverse t-half
		path = append(path, tHalf[i])
	}
	return path, d
}

// chain unwinds the predecessor chain from v to hub (inclusive). It
// returns nil if the chain is broken or cyclic (which would indicate a
// bug, not a user error — tests assert it never happens).
func (x *Index) chain(v, hub graph.Vertex) []graph.Vertex {
	out := []graph.Vertex{v}
	cur := v
	for steps := 0; cur != hub; steps++ {
		if steps > x.NumVertices() {
			return nil
		}
		e, ok := x.entryFor(cur, hub)
		if !ok {
			return nil
		}
		cur = e.Parent
		out = append(out, cur)
	}
	return out
}
