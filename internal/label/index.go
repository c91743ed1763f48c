package label

import (
	"fmt"
	"runtime"
	"slices"
	"sort"

	"parapll/internal/graph"
)

// Index is the immutable, query-optimized form of a label set. Per-vertex
// entries are stored in one flat, hub-sorted, deduplicated array, so a
// distance query is a single merge-intersection of two sorted runs —
// exactly the paper's QUERY(s,t,L) = min over common hubs u of
// σ(P(u,s)) + σ(P(u,t)).
//
// The arrays either live on the heap (built or stream-decoded indexes)
// or alias a read-only file mapping (Open); queries are identical
// either way.
//
// Memory model for mmap-backed indexes: the aliased slices point into
// non-heap memory, so holding one does NOT keep the mapping alive —
// only a reference to the Index (which owns mm) does. A precise GC may
// otherwise collect the Index after its last syntactic use, run the
// mapping finalizer and unmap mid-read. Every method that dereferences
// the arrays therefore ends with runtime.KeepAlive(x); code outside
// this package that retains the slices returned by Label must keep the
// Index reachable the same way for as long as it reads them.
type Index struct {
	off   []int64        // len n+1
	hubs  []graph.Vertex // flat, sorted by hub within each vertex run
	dists []graph.Dist

	format string   // Format* constant; "" means FormatMemory
	mm     *mapping // non-nil when the arrays alias a file (see Open)
}

// Format reports where this index came from: FormatMemory for indexes
// built in process, else the on-disk format it was loaded from
// (FormatFixed, FormatCompact or FormatMmap).
func (x *Index) Format() string {
	if x.format == "" {
		return FormatMemory
	}
	return x.format
}

// Mapped reports whether the index arrays alias a live file mapping
// (true zero-copy — only on unix; the non-unix Open fallback and the
// stream readers are heap-backed).
func (x *Index) Mapped() bool { return x.mm != nil && x.mm.mapped }

// Close releases the file mapping backing an Open'd index. The index
// must not be queried afterwards; callers that cannot prove quiescence
// (e.g. a server hot-swapping snapshots) should instead drop all
// references and let the mapping's finalizer unmap. Close on a
// heap-backed index is a no-op.
func (x *Index) Close() error {
	if x.mm == nil {
		return nil
	}
	mm := x.mm
	x.mm = nil
	runtime.SetFinalizer(mm, nil)
	return mm.close()
}

// NewIndex finalizes a Store into an Index: every label list is sorted by
// hub id and duplicate hubs are collapsed to their minimum distance.
func NewIndex(s *Store) *Index {
	n := s.NumVertices()
	lists := make([][]Entry, n)
	for v := 0; v < n; v++ {
		lists[v] = s.Snapshot(graph.Vertex(v))
	}
	return NewIndexFromLists(lists)
}

// NewIndexFromLists finalizes per-vertex label lists (as built by the
// serial PLL, which needs no concurrent Store) into an Index. Each list is
// sorted by hub and deduplicated to its minimum distance, like NewIndex.
func NewIndexFromLists(lists [][]Entry) *Index {
	sorted := make([][]Entry, len(lists))
	for v, l := range lists {
		list := make([]Entry, len(l))
		copy(list, l)
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
		sorted[v] = out
	}
	return fromLists(sorted)
}

func fromLists(lists [][]Entry) *Index {
	n := len(lists)
	idx := &Index{off: make([]int64, n+1)}
	total := 0
	for v, l := range lists {
		total += len(l)
		idx.off[v+1] = int64(total)
	}
	idx.hubs = make([]graph.Vertex, total)
	idx.dists = make([]graph.Dist, total)
	pos := 0
	for _, l := range lists {
		for _, e := range l {
			idx.hubs[pos] = e.Hub
			idx.dists[pos] = e.D
			pos++
		}
	}
	return idx
}

// Equal reports whether two indexes hold identical label data
// (offsets, hubs and distances), regardless of storage backing (heap or
// mmap) and origin format. This is the invariant the cross-format
// round-trip tests assert.
func (x *Index) Equal(y *Index) bool {
	eq := slices.Equal(x.off, y.off) &&
		slices.Equal(x.hubs, y.hubs) &&
		slices.Equal(x.dists, y.dists)
	runtime.KeepAlive(x)
	runtime.KeepAlive(y)
	return eq
}

// NumVertices returns the number of labeled vertices.
func (x *Index) NumVertices() int { return len(x.off) - 1 }

// NumEntries returns the total number of label entries.
func (x *Index) NumEntries() int64 {
	total := x.off[len(x.off)-1]
	runtime.KeepAlive(x) // x.off may alias a finalizer-managed mapping
	return total
}

// AvgLabelSize returns the mean entries per vertex — the paper's LN metric
// reported in Tables 3–5.
func (x *Index) AvgLabelSize() float64 {
	n := x.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(x.NumEntries()) / float64(n)
}

// MemoryBytes returns the in-memory footprint of the index's arrays
// (offsets + hubs + distances). The paper reports this linear-in-(n·LN)
// quantity peaking at 2.2 GB in its evaluation.
func (x *Index) MemoryBytes() int64 {
	return int64(len(x.off))*8 + int64(len(x.hubs))*4 + int64(len(x.dists))*4
}

// LabelSize returns |L(v)|.
func (x *Index) LabelSize(v graph.Vertex) int {
	size := int(x.off[v+1] - x.off[v])
	runtime.KeepAlive(x)
	return size
}

// Label returns v's entries (hub-sorted). The slices alias internal
// storage and must not be modified; for a possibly mmap-backed index
// the caller must also keep x reachable (runtime.KeepAlive) for as long
// as it reads them — see the Index memory-model comment.
func (x *Index) Label(v graph.Vertex) ([]graph.Vertex, []graph.Dist) {
	lo, hi := x.off[v], x.off[v+1]
	hubs, dists := x.hubs[lo:hi], x.dists[lo:hi]
	runtime.KeepAlive(x)
	return hubs, dists
}

// checkPair validates a query pair, panicking with a descriptive
// message for out-of-range ids. The check is uniform: an out-of-range s
// or t panics whether or not s == t. (Previously s == t short-circuited
// to 0 before any bounds check, so an out-of-range pair with equal ids
// silently "succeeded" while an unequal one crashed with a raw
// slice-index panic.) The panic itself lives in a cold helper so this
// check stays under the inlining budget — it runs once per query on the
// hot path.
// The fast path folds both bounds checks into one compare: for
// non-negative ids, s|t < n implies both are in range, and a negative
// id turns the unsigned compare huge. The compare can fire spuriously
// (s|t can exceed max(s,t) — e.g. 1|2 = 3), so the cold path re-checks
// precisely and simply returns for such false alarms.
func (x *Index) checkPair(s, t graph.Vertex) {
	if uint32(s)|uint32(t) >= uint32(len(x.off)-1) {
		checkPairSlow(s, t, len(x.off)-1)
	}
}

func checkPairSlow(s, t graph.Vertex, n int) {
	if uint(s) >= uint(n) || uint(t) >= uint(n) {
		panic(fmt.Sprintf("label: query pair (%d,%d) out of range [0,%d)", s, t, n))
	}
}

// Query returns the shortest-path distance between s and t, or graph.Inf
// if no common hub covers the pair (disconnected). Complexity is
// O(|L(s)| + |L(t)|), dropping to O(min·log(max/min)) for strongly
// asymmetric label lists via the galloping merge. It allocates nothing.
// Out-of-range ids panic with a descriptive message (consistently —
// including when s == t). The whole pre-kernel ramp — bounds check,
// self-pair shortcut, offset loads — inlines into this frame, so a
// query costs exactly one call.
func (x *Index) Query(s, t graph.Vertex) graph.Dist {
	x.checkPair(s, t)
	if s == t {
		return 0
	}
	d, _, _ := x.mergeAt(x.off[s], x.off[s+1], x.off[t], x.off[t+1])
	runtime.KeepAlive(x) // the offset loads read x's mapping
	return d
}

// QueryWithHub is Query but also reports the meeting hub achieving the
// minimum (useful for path reconstruction and diagnostics). hub is -1 when
// the pair is disconnected; ties go to the smallest hub; for s == t it
// returns (0, s). Out-of-range ids panic exactly as in Query.
func (x *Index) QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	x.checkPair(s, t)
	if s == t {
		return 0, s
	}
	d, hub, _ := x.mergeAt(x.off[s], x.off[s+1], x.off[t], x.off[t+1])
	runtime.KeepAlive(x) // the offset loads read x's mapping
	return d, hub
}

// QueryBatch answers many (s,t) pairs, fanning out over `threads`
// goroutines (<= 0 means GOMAXPROCS). The index is immutable, so
// concurrent queries need no synchronization; this exists because batch
// distance jobs (closeness ranking, distance matrices, /batch requests)
// are the common production query shape. Each worker runs whole
// cache-line-aligned chunks of pairs and pins the index once per chunk.
func (x *Index) QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist {
	return graph.BatchQueryChunks(len(pairs), threads, func(out []graph.Dist, lo, hi int) {
		for i := lo; i < hi; i++ {
			s, t := pairs[i][0], pairs[i][1]
			x.checkPair(s, t)
			if s == t {
				out[i] = 0
				continue
			}
			out[i], _, _ = x.mergeAt(x.off[s], x.off[s+1], x.off[t], x.off[t+1])
		}
		// One pin covers every offset load above: x stays reachable
		// through this closure until the KeepAlive executes.
		runtime.KeepAlive(x)
	})
}

// Remap translates an index built in a relabeled id space back to the
// original ids: newToOld[i] is the original id of relabeled vertex i.
// Row v of the result is row newToOld⁻¹(v) of x with every hub h
// replaced by newToOld[h], re-sorted. Used by the rank-relabeled build
// optimization.
func (x *Index) Remap(newToOld []graph.Vertex) *Index {
	n := x.NumVertices()
	if len(newToOld) != n {
		panic("label: Remap mapping has wrong length")
	}
	oldToNew := make([]graph.Vertex, n)
	for newID, oldID := range newToOld {
		oldToNew[oldID] = graph.Vertex(newID)
	}
	lists := make([][]Entry, n)
	for oldV := 0; oldV < n; oldV++ {
		newV := oldToNew[oldV]
		hubs, dists := x.Label(newV)
		row := make([]Entry, len(hubs))
		for i, h := range hubs {
			row[i] = Entry{Hub: newToOld[h], D: dists[i]}
		}
		lists[oldV] = row
	}
	runtime.KeepAlive(x)
	return NewIndexFromLists(lists)
}

// LabelSizeHistogram returns counts of vertices by label-list length,
// as parallel (size, count) slices sorted by size.
func (x *Index) LabelSizeHistogram() (sizes []int, counts []int) {
	m := make(map[int]int)
	for v := 0; v < x.NumVertices(); v++ {
		m[x.LabelSize(graph.Vertex(v))]++
	}
	for s := range m {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	counts = make([]int, len(sizes))
	for i, s := range sizes {
		counts[i] = m[s]
	}
	return sizes, counts
}
