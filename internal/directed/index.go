package directed

import (
	"sort"

	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/vheap"
)

// Index is a directed 2-hop cover: per vertex, a hub-sorted in-label
// list (hubs reaching it) and out-label list (hubs it reaches).
type Index struct {
	in  [][]label.Entry
	out [][]label.Entry
}

// Options configures a directed build.
type Options struct {
	// Order is the computing sequence; nil means degree descending.
	Order []graph.Vertex
}

// Build indexes a directed graph serially: per root, one forward and one
// backward pruned Dijkstra.
func Build(g *Digraph, opt Options) *Index {
	n := g.NumVertices()
	ord := opt.Order
	if ord == nil {
		ord = DegreeOrder(g)
	} else if len(ord) != n {
		panic("directed: Order must be a permutation of the vertices")
	}
	x := &Index{
		in:  make([][]label.Entry, n),
		out: make([][]label.Entry, n),
	}
	dist := make([]graph.Dist, n)
	tmp := make([]graph.Dist, n)
	for i := 0; i < n; i++ {
		dist[i] = graph.Inf
		tmp[i] = graph.Inf
	}
	h := vheap.NewIndexed(n)
	var touched, hubs []graph.Vertex

	// search runs one pruned Dijkstra from r. Forward direction expands
	// out-arcs and labels Lin(u) with (r, d(r→u)), pruning when the
	// cover already answers r→u; backward expands in-arcs and labels
	// Lout(u) with (r, d(u→r)).
	search := func(r graph.Vertex, forward bool) {
		// Scatter the root's own labels for the prune query:
		// forward prune of (r→u) needs min over h ∈ Lout(r)∩Lin(u);
		// backward prune of (u→r) needs min over h ∈ Lout(u)∩Lin(r).
		var rootSide []label.Entry
		if forward {
			rootSide = x.out[r]
		} else {
			rootSide = x.in[r]
		}
		for _, e := range rootSide {
			if e.D < tmp[e.Hub] {
				tmp[e.Hub] = e.D
			}
			hubs = append(hubs, e.Hub)
		}
		dist[r] = 0
		touched = append(touched, r)
		h.Reset()
		h.Push(r, 0)
		for h.Len() > 0 {
			u, d := h.Pop()
			var uSide []label.Entry
			if forward {
				uSide = x.in[u]
			} else {
				uSide = x.out[u]
			}
			covered := false
			for _, e := range uSide {
				if t := tmp[e.Hub]; t != graph.Inf && graph.AddDist(t, e.D) <= d {
					covered = true
					break
				}
			}
			if covered {
				continue
			}
			if forward {
				x.in[u] = append(x.in[u], label.Entry{Hub: r, D: d})
			} else {
				x.out[u] = append(x.out[u], label.Entry{Hub: r, D: d})
			}
			var ns []graph.Vertex
			var ws []graph.Dist
			if forward {
				ns, ws = g.Out(u)
			} else {
				ns, ws = g.In(u)
			}
			for i, v := range ns {
				nd := graph.AddDist(d, ws[i])
				if nd < dist[v] {
					if dist[v] == graph.Inf {
						touched = append(touched, v)
					}
					dist[v] = nd
					h.Push(v, nd)
				}
			}
		}
		for _, t := range touched {
			dist[t] = graph.Inf
		}
		touched = touched[:0]
		for _, hb := range hubs {
			tmp[hb] = graph.Inf
		}
		hubs = hubs[:0]
	}

	for _, r := range ord {
		search(r, true)
		search(r, false)
	}
	// Sort label lists by hub for merge-join queries.
	for v := 0; v < n; v++ {
		sortEntries(x.in[v])
		sortEntries(x.out[v])
	}
	return x
}

func sortEntries(l []label.Entry) {
	sort.Slice(l, func(i, j int) bool { return l[i].Hub < l[j].Hub })
}

// Query returns the exact directed distance d(s→t), graph.Inf when t is
// unreachable from s. Note Query(s,t) and Query(t,s) generally differ.
func (x *Index) Query(s, t graph.Vertex) graph.Dist {
	d, _ := x.QueryWithHub(s, t)
	return d
}

// QueryWithHub is Query but also reports the meeting hub achieving the
// minimum; hub is -1 when t is unreachable from s, and (0, s) is
// returned for s == t.
func (x *Index) QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	if s == t {
		return 0, s
	}
	// Hubs s reaches meet hubs reaching t.
	return label.MergeEntries(x.out[s], x.in[t])
}

// QueryBatch answers many directed (s,t) pairs in parallel (threads <= 0
// means GOMAXPROCS). The index is immutable, so no synchronization is
// needed.
func (x *Index) QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist {
	return graph.BatchQuery(x.Query, pairs, threads)
}

// NumVertices returns the number of labeled vertices.
func (x *Index) NumVertices() int { return len(x.in) }

// NumEntries returns the total number of in+out label entries.
func (x *Index) NumEntries() int64 {
	var total int64
	for v := range x.in {
		total += int64(len(x.in[v]) + len(x.out[v]))
	}
	return total
}

// AvgLabelSize returns mean (in+out) entries per vertex.
func (x *Index) AvgLabelSize() float64 {
	if len(x.in) == 0 {
		return 0
	}
	return float64(x.NumEntries()) / float64(len(x.in))
}
