package compact

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"parapll/internal/core"
	"parapll/internal/dynamic"
	"parapll/internal/graph"
	"parapll/internal/sssp"
	"parapll/internal/task"
	"parapll/internal/wal"
)

func randomGraph(r *rand.Rand, n, extra int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1+extra)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(v)), V: graph.Vertex(v), W: graph.Dist(1 + r.Intn(20)),
		})
	}
	for i := 0; i < extra; i++ {
		edges = append(edges, graph.Edge{
			U: graph.Vertex(r.Intn(n)), V: graph.Vertex(r.Intn(n)), W: graph.Dist(1 + r.Intn(20)),
		})
	}
	return graph.FromEdges(n, edges)
}

// randomInserts draws valid distinct-endpoint inserts.
func randomInserts(r *rand.Rand, n, count int) []wal.Update {
	ups := make([]wal.Update, 0, count)
	for len(ups) < count {
		u, v := graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))
		if u == v {
			continue
		}
		ups = append(ups, wal.Update{U: u, V: v, W: graph.Dist(1 + r.Intn(15))})
	}
	return ups
}

// applied folds base plus the given updates into a plain graph — the
// ground truth the pipeline must match.
func applied(base *graph.Graph, ups []wal.Update) *graph.Graph {
	edges := base.Edges()
	for _, up := range ups {
		edges = append(edges, graph.Edge{U: up.U, V: up.V, W: up.W})
	}
	return graph.FromEdges(base.NumVertices(), edges)
}

// checkAllPairs verifies the pipeline against Dijkstra on cur.
func checkAllPairs(t *testing.T, cur *graph.Graph, p *Pipeline) {
	t.Helper()
	n := cur.NumVertices()
	for s := graph.Vertex(0); int(s) < n; s++ {
		want := sssp.Dijkstra(cur, s)
		for u := graph.Vertex(0); int(u) < n; u++ {
			if got := p.Query(s, u); got != want[u] {
				t.Fatalf("query(%d,%d) = %d, want %d", s, u, got, want[u])
			}
		}
	}
}

func TestPipelineExactUnderUpdates(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	base := randomGraph(r, 30, 40)
	dir := t.TempDir()
	p, err := Open(Options{Dir: dir, Graph: base})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer p.Close()
	checkAllPairs(t, base, p)
	ups := randomInserts(r, 30, 20)
	for _, up := range ups {
		if err := p.Update(up.U, up.V, up.W); err != nil {
			t.Fatalf("Update(%v): %v", up, err)
		}
	}
	checkAllPairs(t, applied(base, ups), p)
	if st := p.Stats(); st.WALRecords != len(ups) || st.Updates != uint64(len(ups)) {
		t.Fatalf("stats = %+v, want %d records", st, len(ups))
	}
}

func TestReopenReplaysWAL(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	base := randomGraph(r, 25, 30)
	dir := t.TempDir()
	p, err := Open(Options{Dir: dir, Graph: base})
	if err != nil {
		t.Fatal(err)
	}
	ups := randomInserts(r, 25, 15)
	for _, up := range ups {
		if err := p.Update(up.U, up.V, up.W); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh process: same dir, same boot graph, no compaction ever ran
	// — the WAL alone must reconstruct the exact pre-close state.
	p2, err := Open(Options{Dir: dir, Graph: base})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	if got := p2.Stats().WALRecords; got != len(ups) {
		t.Fatalf("reopened with %d WAL records, want %d", got, len(ups))
	}
	checkAllPairs(t, applied(base, ups), p2)
}

func TestCompactFoldMode(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	base := randomGraph(r, 25, 30)
	dir := t.TempDir()
	p, err := Open(Options{Dir: dir, Graph: base})
	if err != nil {
		t.Fatal(err)
	}
	ups := randomInserts(r, 25, 10) // 10 <= DefaultFoldLimit
	for _, up := range ups {
		if err := p.Update(up.U, up.V, up.W); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := p.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if rep.Mode != "fold" || rep.Folded != len(ups) {
		t.Fatalf("report = %+v, want fold of %d", rep, len(ups))
	}
	if got := p.Stats().WALRecords; got != 0 {
		t.Fatalf("WAL holds %d records after compaction", got)
	}
	cur := applied(base, ups)
	checkAllPairs(t, cur, p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart resumes from the checkpoint pair with an empty WAL.
	p2, err := Open(Options{Dir: dir, Graph: base})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	checkAllPairs(t, cur, p2)
	for _, f := range []string{GraphFile, IndexFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("checkpoint file %s: %v", f, err)
		}
	}
}

func TestCompactRebuildMode(t *testing.T) {
	r := rand.New(rand.NewSource(84))
	base := randomGraph(r, 25, 30)
	dir := t.TempDir()
	p, err := Open(Options{Dir: dir, Graph: base, FoldLimit: -1}) // force rebuild
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ups := randomInserts(r, 25, 8)
	for _, up := range ups {
		if err := p.Update(up.U, up.V, up.W); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := p.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if rep.Mode != "rebuild" || rep.Folded != len(ups) {
		t.Fatalf("report = %+v, want rebuild of %d", rep, len(ups))
	}
	checkAllPairs(t, applied(base, ups), p)
	// Updates keep landing on the rolled index.
	more := randomInserts(r, 25, 5)
	for _, up := range more {
		if err := p.Update(up.U, up.V, up.W); err != nil {
			t.Fatal(err)
		}
	}
	checkAllPairs(t, applied(base, append(append([]wal.Update{}, ups...), more...)), p)
}

func TestCompactEmptyWALIsNoop(t *testing.T) {
	r := rand.New(rand.NewSource(85))
	base := randomGraph(r, 10, 5)
	p, err := Open(Options{Dir: t.TempDir(), Graph: base})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep, err := p.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "" || rep.Folded != 0 {
		t.Fatalf("empty-WAL compaction produced %+v", rep)
	}
	if p.Generation() != 0 {
		t.Fatalf("generation bumped to %d by a no-op", p.Generation())
	}
}

func TestUpdateRejectsInvalid(t *testing.T) {
	r := rand.New(rand.NewSource(86))
	base := randomGraph(r, 10, 5)
	p, err := Open(Options{Dir: t.TempDir(), Graph: base})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cases := []wal.Update{
		{U: 3, V: 3, W: 1},         // self loop
		{U: 0, V: 99, W: 1},        // out of range
		{U: -2, V: 1, W: 1},        // negative id
		{U: 0, V: 1, W: 0},         // zero weight
		{U: 0, V: 1, W: graph.Inf}, // Inf sentinel
	}
	for _, up := range cases {
		err := p.Update(up.U, up.V, up.W)
		if !errors.Is(err, dynamic.ErrInvalid) {
			t.Errorf("Update(%v) = %v, want ErrInvalid", up, err)
		}
	}
	if got := p.Stats().WALRecords; got != 0 {
		t.Fatalf("invalid updates reached the WAL: %d records", got)
	}
}

func TestAutoCompactionTriggers(t *testing.T) {
	r := rand.New(rand.NewSource(87))
	base := randomGraph(r, 20, 20)
	var published atomic.Bool
	p, err := Open(Options{
		Dir: t.TempDir(), Graph: base, CompactEvery: 4,
		OnPublish: func(Report) { published.Store(true) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ups := randomInserts(r, 20, 6)
	for _, up := range ups {
		if err := p.Update(up.U, up.V, up.W); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Generation() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compaction never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !published.Load() {
		t.Fatal("OnPublish not called")
	}
	checkAllPairs(t, applied(base, ups), p)
}

// hookEngine is core.PerRoot with a hook that runs at the start of
// every build, so a test can act while a rebuild is in flight.
type hookEngine struct {
	core.PerRoot
	during func()
}

func (e hookEngine) Run(g *graph.Graph, mgr task.Manager, store core.LabelStore, cfg core.RunConfig) []int64 {
	e.during()
	return e.PerRoot.Run(g, mgr, store, cfg)
}

// TestBackgroundCompactionSkipsStaleKick streams updates through
// rebuild-mode background compactions. One update lands mid-rebuild;
// Update still counts the records being folded, so it queues a kick
// that outlives the compaction. Every background compaction must fold
// at least CompactEvery records — the stale kick must not fold the
// one-record tail on its own.
func TestBackgroundCompactionSkipsStaleKick(t *testing.T) {
	const every = 6
	r := rand.New(rand.NewSource(89))
	base := randomGraph(r, 24, 24)
	ups := randomInserts(r, 24, 2*every)
	reports := make(chan Report, len(ups))
	var p *Pipeline
	var injected atomic.Bool
	engine := hookEngine{during: func() {
		if injected.Swap(true) {
			return
		}
		if err := p.Update(ups[every].U, ups[every].V, ups[every].W); err != nil {
			t.Errorf("mid-rebuild update: %v", err)
		}
	}}
	p, err := Open(Options{
		Dir: t.TempDir(), Graph: base, Index: core.Build(base, core.Options{Threads: 1}),
		CompactEvery: every, FoldLimit: -1, Threads: 1, Engine: engine,
		OnPublish: func(rep Report) { reports <- rep },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, up := range ups[:every] {
		if err := p.Update(up.U, up.V, up.W); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for folded := 0; folded < len(ups); {
		select {
		case rep := <-reports:
			if rep.Mode != "rebuild" || rep.Folded < every {
				t.Fatalf("background compaction %+v: want a rebuild of >= %d records", rep, every)
			}
			if folded == 0 {
				// The backlog is now the mid-rebuild record; these bring
				// it to exactly CompactEvery.
				for _, up := range ups[every+1:] {
					if err := p.Update(up.U, up.V, up.W); err != nil {
						t.Fatal(err)
					}
				}
			}
			folded += rep.Folded
		case <-deadline:
			t.Fatal("background compactions did not fold every update")
		}
	}
	checkAllPairs(t, applied(base, ups), p)
}

func TestOpenRejectsMismatchedGraph(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	base := randomGraph(r, 20, 10)
	dir := t.TempDir()
	p, err := Open(Options{Dir: dir, Graph: base})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Update(0, 5, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	other := randomGraph(r, 7, 3)
	if _, err := Open(Options{Dir: dir, Graph: other}); err == nil {
		t.Fatal("Open paired a checkpoint with a different graph")
	}
}
