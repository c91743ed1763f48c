package label_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parapll/internal/dynamic"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pathidx"
	"parapll/internal/pll"
)

// refMerge is the obviously-correct reference for QUERY over two label
// runs: intersect via a map, scan the (sorted) b run so ties resolve to
// the smallest hub, exactly as the kernels' strict < update does.
func refMerge(ah []graph.Vertex, ad []graph.Dist, bh []graph.Vertex, bd []graph.Dist) (graph.Dist, graph.Vertex) {
	da := make(map[graph.Vertex]graph.Dist, len(ah))
	for i, h := range ah {
		da[h] = ad[i]
	}
	best := graph.Inf
	hub := graph.Vertex(-1)
	for j, h := range bh {
		if d0, ok := da[h]; ok {
			if d := graph.AddDist(d0, bd[j]); d < best {
				best = d
				hub = h
			}
		}
	}
	return best, hub
}

// randRun builds a strictly hub-increasing run of length n with hubs
// drawn from [0, hubSpace) and distances from [0, maxDist). A small
// maxDist makes equal distance sums — and so the tie-break — common.
func randRun(r *rand.Rand, n, hubSpace, maxDist int) ([]graph.Vertex, []graph.Dist) {
	if n > hubSpace {
		n = hubSpace
	}
	perm := r.Perm(hubSpace)[:n]
	hubs := make([]graph.Vertex, n)
	for i, h := range perm {
		hubs[i] = graph.Vertex(h)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && hubs[j] < hubs[j-1]; j-- {
			hubs[j], hubs[j-1] = hubs[j-1], hubs[j]
		}
	}
	dists := make([]graph.Dist, n)
	for i := range dists {
		dists[i] = graph.Dist(r.Intn(maxDist))
	}
	return hubs, dists
}

func entries(hubs []graph.Vertex, dists []graph.Dist) []label.Entry {
	l := make([]label.Entry, len(hubs))
	for i := range hubs {
		l[i] = label.Entry{Hub: hubs[i], D: dists[i]}
	}
	return l
}

func runsOf(l []label.Entry) ([]graph.Vertex, []graph.Dist) {
	hubs := make([]graph.Vertex, len(l))
	dists := make([]graph.Dist, len(l))
	for i, e := range l {
		hubs[i], dists[i] = e.Hub, e.D
	}
	return hubs, dists
}

// hubOracle is one query surface under test.
type hubOracle interface {
	QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex)
	Query(s, t graph.Vertex) graph.Dist
	QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist
}

// entryOracle exposes the entry-list merge over the same lists.
type entryOracle [][]label.Entry

func (o entryOracle) QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	if s == t {
		return 0, s
	}
	return label.MergeEntries(o[s], o[t])
}

func (o entryOracle) Query(s, t graph.Vertex) graph.Dist {
	d, _ := o.QueryWithHub(s, t)
	return d
}

func (o entryOracle) QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist {
	return graph.BatchQuery(o.Query, pairs, threads)
}

// explainOracle answers through QueryExplain.
type explainOracle struct{ *label.Index }

func (o explainOracle) QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	ex := o.QueryExplain(s, t)
	return ex.Dist, ex.Hub
}

// surfaces wraps one set of label lists in every query surface that
// can hold arbitrary lists: the heap index, its PIDM-mapped copy,
// QueryExplain, a dynamic index before any insert and the entry-list
// merge.
func surfaces(t *testing.T, lists [][]label.Entry) map[string]hubOracle {
	t.Helper()
	x := label.NewIndexFromLists(lists)
	path := filepath.Join(t.TempDir(), "runs.midx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.WriteMmap(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mapped, err := label.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return map[string]hubOracle{
		"index":   x,
		"mapped":  mapped,
		"explain": explainOracle{x},
		"dynamic": dynamic.FromIndex(graph.FromEdges(len(lists), nil), x),
		"entries": entryOracle(lists),
	}
}

// checkAgreement asserts that every surface answers every listed pair
// exactly like want (dist and meeting hub), one pair at a time and in a
// batch.
func checkAgreement(t *testing.T, oracles map[string]hubOracle, pairs [][2]graph.Vertex, want func(s, t graph.Vertex) (graph.Dist, graph.Vertex)) {
	t.Helper()
	for name, o := range oracles {
		batch := o.QueryBatch(pairs, 3)
		for i, p := range pairs {
			wantD, wantH := want(p[0], p[1])
			gotD, gotH := o.QueryWithHub(p[0], p[1])
			if gotD != wantD || gotH != wantH {
				t.Fatalf("%s: QueryWithHub(%d,%d) = (%d,%d), want (%d,%d)", name, p[0], p[1], gotD, gotH, wantD, wantH)
			}
			if d := o.Query(p[0], p[1]); d != wantD {
				t.Fatalf("%s: Query(%d,%d) = %d, want %d", name, p[0], p[1], d, wantD)
			}
			if batch[i] != wantD {
				t.Fatalf("%s: QueryBatch pair (%d,%d) = %d, want %d", name, p[0], p[1], batch[i], wantD)
			}
		}
	}
}

// refAnswer is the reference over lists: (0, s) for self pairs, else
// refMerge of the two runs.
func refAnswer(lists [][]label.Entry) func(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	return func(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
		if s == t {
			return 0, s
		}
		ah, ad := runsOf(lists[s])
		bh, bd := runsOf(lists[t])
		return refMerge(ah, ad, bh, bd)
	}
}

// TestMergeRunsMatchesReference is the cross-oracle agreement test:
// random run pairs — symmetric, at and around the gallop ratio of 8,
// empty and disjoint, with both wide and tie-heavy distances — are
// packed as vertices (2k, 2k+1) and every surface must return the
// reference (dist, hub) for both orders of each pair and for self
// pairs. QueryExplain's counters are checked on the same pairs.
func TestMergeRunsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sizes := [][2]int{
		{0, 0}, {0, 50}, {3, 3}, {1, 1},
		{1, 100},  // maximal asymmetry: gallop
		{5, 200},  // gallop
		{10, 79},  // just under the gallop ratio: linear
		{10, 80},  // exactly at the ratio: gallop
		{64, 64},  // symmetric linear
		{200, 31}, // longer run first: the kernel must swap
	}
	var lists [][]label.Entry
	for _, sz := range sizes {
		for trial := 0; trial < 50; trial++ {
			maxDist := 1 << 20
			if trial%2 == 1 {
				maxDist = 4 // tie-heavy
			}
			ah, ad := randRun(r, sz[0], 400, maxDist)
			bh, bd := randRun(r, sz[1], 400, maxDist)
			lists = append(lists, entries(ah, ad), entries(bh, bd))
		}
	}
	// A three-way tie (hubs 1, 3 and 7 all sum to 7) must go to hub 1:
	// pathidx.Path unwinds the chain of whichever hub wins.
	lists = append(lists,
		[]label.Entry{{Hub: 1, D: 5}, {Hub: 3, D: 2}, {Hub: 7, D: 1}},
		[]label.Entry{{Hub: 1, D: 2}, {Hub: 3, D: 5}, {Hub: 7, D: 6}})
	if d, h := refAnswer(lists)(graph.Vertex(len(lists)-2), graph.Vertex(len(lists)-1)); d != 7 || h != 1 {
		t.Fatalf("reference tie-break = (%d,%d), want (7,1)", d, h)
	}
	var pairs [][2]graph.Vertex
	for v := 0; v < len(lists); v += 2 {
		s, u := graph.Vertex(v), graph.Vertex(v+1)
		pairs = append(pairs, [2]graph.Vertex{s, u}, [2]graph.Vertex{u, s}, [2]graph.Vertex{s, s})
	}
	checkAgreement(t, surfaces(t, lists), pairs, refAnswer(lists))
	checkExplainWork(t, label.NewIndexFromLists(lists), lists, pairs)
}

// refLinearWork counts the linear walk's work the slow way, one
// increment per step, as the Explain counters define it: every read of
// a hub pair is a probe (the re-read that ends an equal-hub stretch is
// probed again by the dispatch), every pointer advance a linear step.
func refLinearWork(ah, bh []graph.Vertex) (probed, linear int) {
	i, j, inStretch := 0, 0, false
	for i < len(ah) && j < len(bh) {
		probed++
		if ah[i] == bh[j] {
			i, j, linear, inStretch = i+1, j+1, linear+2, true
			continue
		}
		if inStretch {
			probed++
			inStretch = false
		}
		if ah[i] < bh[j] {
			i++
		} else {
			j++
		}
		linear++
	}
	return probed, linear
}

// refGallopWork counts the gallop's work the slow way: per short-run
// hub one probe, then one count per doubling of the exponential probe
// and per halving of the binary search that follows.
func refGallopWork(ah, bh []graph.Vertex) (probed, gallops, halvings int) {
	j := 0
	for _, target := range ah {
		probed++
		lo, step := j, 1
		for lo+step < len(bh) && bh[lo+step] < target {
			lo, step, gallops = lo+step, step*2, gallops+1
		}
		hi := min(lo+step, len(bh))
		for lo < hi {
			halvings++
			if mid := (lo + hi) / 2; bh[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= len(bh) {
			break
		}
		j = lo
		if bh[j] == target {
			if j++; j >= len(bh) {
				break
			}
		}
	}
	return probed, gallops, halvings
}

// checkExplainWork holds QueryExplain's counters to their definitions
// on every distinct pair: the common hubs are the runs' intersection,
// and the linear walk's and the gallop's (ratio >= 8) counts match the
// step-by-step references.
func checkExplainWork(t *testing.T, x *label.Index, lists [][]label.Entry, pairs [][2]graph.Vertex) {
	t.Helper()
	for _, p := range pairs {
		if p[0] == p[1] {
			continue
		}
		ex := x.QueryExplain(p[0], p[1])
		ah, _ := runsOf(lists[p[0]])
		bh, _ := runsOf(lists[p[1]])
		if ex.Swapped != (len(ah) > len(bh)) {
			t.Fatalf("explain %v: Swapped %v with label lengths %d/%d", p, ex.Swapped, len(ah), len(bh))
		}
		if len(ah) > len(bh) {
			ah, bh = bh, ah
		}
		inA := make(map[graph.Vertex]bool, len(ah))
		for _, h := range ah {
			inA[h] = true
		}
		common := 0
		for _, h := range bh {
			if inA[h] {
				common++
			}
		}
		if ex.CommonHubs != common {
			t.Fatalf("explain %v: CommonHubs %d, want %d", p, ex.CommonHubs, common)
		}
		switch {
		case len(ah) == 0:
			if ex.Algo != "empty" || ex.HubsProbed != 0 {
				t.Fatalf("explain %v: %+v, want an empty merge", p, ex)
			}
		case len(bh) >= 8*len(ah):
			probed, gallops, halvings := refGallopWork(ah, bh)
			if ex.Algo != "gallop" || ex.LinearSteps != 0 || ex.HubsProbed != probed || ex.GallopProbes != gallops || ex.BinarySteps != halvings {
				t.Fatalf("explain %v: %+v, want a gallop with %d probes, %d doublings and %d halvings", p, ex, probed, gallops, halvings)
			}
		default:
			probed, linear := refLinearWork(ah, bh)
			if ex.Algo != "linear" || ex.HubsProbed != probed || ex.LinearSteps != linear || ex.GallopProbes != 0 || ex.BinarySteps != 0 {
				t.Fatalf("explain %v: %+v, want a linear walk with %d probes and %d steps", p, ex, probed, linear)
			}
		}
	}
}

// TestMergeRunsGraphSurfaces extends the agreement to the surfaces
// built from a graph: on random graphs with several components and
// small weights (many equal-length paths), pathidx.Index and a dynamic
// index over the serial PLL labels must answer every pair exactly like
// the reference over those labels.
func TestMergeRunsGraphSurfaces(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		n := 30 + r.Intn(30)
		var edges []graph.Edge
		for i := 0; i < 2*n; i++ {
			// Two halves with no edge between them: disconnected pairs.
			half := r.Intn(2) * (n / 2)
			u := graph.Vertex(half + r.Intn(n/2))
			v := graph.Vertex(half + r.Intn(n/2))
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v, W: graph.Dist(1 + r.Intn(3))})
			}
		}
		g := graph.FromEdges(n, edges)
		x := pll.Build(g, pll.Options{})
		lists := make([][]label.Entry, n)
		for v := range lists {
			hubs, dists := x.Label(graph.Vertex(v))
			lists[v] = entries(hubs, dists)
		}
		var pairs [][2]graph.Vertex
		for s := 0; s < n; s++ {
			for u := 0; u < n; u++ {
				pairs = append(pairs, [2]graph.Vertex{graph.Vertex(s), graph.Vertex(u)})
			}
		}
		oracles := map[string]hubOracle{
			"index":   x,
			"pathidx": pathidx.Build(g, pathidx.Options{Threads: 1}),
			"dynamic": dynamic.FromIndex(g, x),
		}
		checkAgreement(t, oracles, pairs, refAnswer(lists))
	}
}

func TestMergeRunsEqualStretch(t *testing.T) {
	// Identical hub lists: the unrolled equal-hub loop consumes the
	// whole pair of runs in one stretch.
	r := rand.New(rand.NewSource(9))
	hubs, ad := randRun(r, 128, 128, 1<<20)
	_, bd := randRun(r, 128, 128, 1<<20)
	lists := [][]label.Entry{entries(hubs, ad), entries(hubs, bd)}
	checkAgreement(t, surfaces(t, lists), [][2]graph.Vertex{{0, 1}, {1, 0}}, refAnswer(lists))
}

func TestMergeRunsSaturation(t *testing.T) {
	// Distances near Inf must saturate, not wrap to a small winner.
	lists := [][]label.Entry{
		{{Hub: 1, D: graph.Inf - 1}, {Hub: 2, D: 5}},
		{{Hub: 1, D: graph.Inf - 1}, {Hub: 3, D: 5}},
	}
	checkAgreement(t, surfaces(t, lists), [][2]graph.Vertex{{0, 1}, {1, 0}}, func(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
		return graph.Inf, -1
	})
}

func TestMergeRunsDisjoint(t *testing.T) {
	lists := [][]label.Entry{
		{{Hub: 0, D: 1}, {Hub: 2, D: 1}, {Hub: 4, D: 1}},
		{{Hub: 1, D: 1}, {Hub: 3, D: 1}, {Hub: 5, D: 1}},
	}
	checkAgreement(t, surfaces(t, lists), [][2]graph.Vertex{{0, 1}, {1, 0}}, func(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
		return graph.Inf, -1
	})
}

func mustPanicContaining(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T); want string", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	f()
}

func TestQueryOutOfRangePanics(t *testing.T) {
	s := label.NewStore(3)
	s.Append(0, 0, 0)
	s.Append(1, 0, 4)
	x := label.NewIndex(s)
	cases := []struct{ s, t graph.Vertex }{
		{3, 0}, {0, 3}, {-1, 0}, {0, -1},
		{3, 3},   // s == t must NOT shortcut past the bounds check
		{-2, -2}, // ditto, negative
	}
	for _, c := range cases {
		mustPanicContaining(t, "out of range", func() { x.Query(c.s, c.t) })
		mustPanicContaining(t, "out of range", func() { x.QueryWithHub(c.s, c.t) })
	}
	// In-range self query still answers 0 without touching labels.
	if d := x.Query(2, 2); d != 0 {
		t.Fatalf("Query(2,2) = %d, want 0", d)
	}
}

func TestQueryBatchChunkedMatchesQuery(t *testing.T) {
	// Big enough that BatchQueryChunks splits into many aligned chunks,
	// with thread counts that do not divide the pair count.
	r := rand.New(rand.NewSource(99))
	s := label.NewStore(300)
	for i := 0; i < 6000; i++ {
		s.Append(graph.Vertex(r.Intn(300)), graph.Vertex(r.Intn(300)), graph.Dist(r.Intn(5000)))
	}
	x := label.NewIndex(s)
	pairs := make([][2]graph.Vertex, 5003)
	for i := range pairs {
		pairs[i] = [2]graph.Vertex{graph.Vertex(r.Intn(300)), graph.Vertex(r.Intn(300))}
	}
	want := make([]graph.Dist, len(pairs))
	for i, p := range pairs {
		want[i] = x.Query(p[0], p[1])
	}
	for _, threads := range []int{1, 2, 7, 16, 0} {
		got := x.QueryBatch(pairs, threads)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threads=%d pair %d: batch %d != single %d", threads, i, got[i], want[i])
			}
		}
	}
}
