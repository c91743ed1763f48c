// Package compact is the living-graph pipeline: a serving-side wrapper
// that keeps a dynamic PLL index exact under a stream of edge inserts
// while a background compactor periodically folds the accumulated
// updates into a fresh checkpoint artifact and rolls the serving index
// onto it — LSM discipline applied to distance labeling.
//
// # State machine
//
// A Pipeline owns three durable files in one directory:
//
//	wal.log    the fsynced edge-update log (internal/wal)
//	graph.bin  the last compacted graph (checkpoint base)
//	index.midx the last compacted index, exact for graph.bin
//
// and two in-memory pieces: the checkpoint graph and a dynamic.Index
// that is the checkpoint index repaired by every WAL record (the live
// overlay). The invariant, held at every instant including across kill
// -9: checkpoint index + full WAL replay = exact index for checkpoint
// graph + WAL edges. Open reconstructs exactly that, so an
// acknowledged update is never lost and a queried distance is never
// wrong after recovery.
//
// # Update path
//
// Update is log-before-apply: validate (CheckInsert), append + fsync to
// the WAL, then repair the live index — so any record that reaches the
// log is one the index accepts on apply and on crash replay, and any
// crash between the two is healed by replay idempotence (re-inserting
// an edge the index already has never changes a distance).
//
// # Compaction
//
// When the WAL holds n records, Compact folds them into the graph and
// produces a fresh exact index two ways: for small n (<= FoldLimit) it
// snapshots the live repaired lists (dynamic.ToIndex) under the write
// lock — O(index) with zero search work; for large n it rebuilds from
// scratch with the pluggable build engine off the serving path. Either
// way the new artifact pair is saved (graph.bin first, then
// index.midx, both through the atomic temp+fsync+rename discipline),
// a fresh dynamic index is warmed off-lock, and a short write-locked
// swap replays the records that arrived mid-compaction, publishes the
// new index, and truncates the folded prefix off the WAL. Every crash
// window in that sequence leaves a (checkpoint, WAL) pair whose replay
// is exact — a stale index beside a newer graph only overestimates,
// and the untruncated WAL replay repairs precisely those pairs.
//
// # Concurrency
//
// dynamic.Index is single-writer; the Pipeline turns it into a safe
// concurrent surface with one RWMutex: queries take the read lock,
// Update and the compaction swap take the write lock. QueryBatch under
// the read lock means dynamic's batch tripwire can never fire through
// this wrapper. Compactions themselves are serialized by a separate
// mutex and do all expensive work (fold, rebuild, artifact writes)
// outside both.
package compact

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"parapll/internal/core"
	"parapll/internal/dynamic"
	"parapll/internal/fileio"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/oracle"
	"parapll/internal/trace"
	"parapll/internal/wal"
)

// File names inside the pipeline directory.
const (
	WALFile   = "wal.log"
	GraphFile = "graph.bin"
	IndexFile = "index.midx"
)

// DefaultFoldLimit is the update count up to which compaction snapshots
// the live repaired lists instead of rebuilding. Folding is O(index
// size) and holds the write lock for the copy, so it must stay small;
// past it a from-scratch engine build off the serving path wins.
const DefaultFoldLimit = 64

// Options configures a Pipeline.
type Options struct {
	// Dir is the pipeline directory holding wal.log and the checkpoint
	// artifacts. Required; created if missing.
	Dir string
	// Graph is the base graph used when no graph.bin checkpoint exists
	// yet (first boot). Required.
	Graph *graph.Graph
	// Index, when non-nil, seeds the first boot (no checkpoint on disk)
	// with an already-built index for Graph instead of paying a build in
	// Open. Ignored once a checkpoint exists — the checkpoint pair is
	// newer by construction.
	Index *label.Index
	// CompactEvery triggers a background compaction whenever the WAL
	// reaches this many records; <= 0 means compaction runs only when
	// Compact is called explicitly.
	CompactEvery int
	// FoldLimit is the incremental-fold cutoff (0 means
	// DefaultFoldLimit; negative disables folding entirely).
	FoldLimit int
	// Threads is the rebuild parallelism (as core.Options.Threads;
	// <= 0 means GOMAXPROCS).
	Threads int
	// Engine selects the rebuild algorithm; nil means core.PerRoot.
	Engine core.Engine
	// Tracer, when non-nil, is consulted per operation; sampled updates
	// emit wal.append spans on trace.TIDWAL and every compaction emits
	// a compact.run span on trace.TIDCompact.
	Tracer *trace.Tracer
	// OnPublish, when non-nil, is called after every completed
	// compaction, outside all pipeline locks — the server uses it to
	// bump its snapshot generation and metrics.
	OnPublish func(Report)
	// OnFsync, when non-nil, receives the duration of every WAL append
	// fsync (wired to wal.Log.SetSyncObserver). It runs inside the WAL's
	// critical section and must be cheap — the anomaly watchdog feeds it
	// into a windowed latency histogram.
	OnFsync func(elapsed time.Duration)
	// Logf, when non-nil, receives progress lines (compaction start,
	// mode, timings, failures).
	Logf func(format string, args ...any)
}

func (o *Options) foldLimit() int {
	if o.FoldLimit == 0 {
		return DefaultFoldLimit
	}
	if o.FoldLimit < 0 {
		return 0
	}
	return o.FoldLimit
}

// Report describes one completed compaction.
type Report struct {
	// Mode is "fold" (live-list snapshot) or "rebuild" (engine build).
	Mode string
	// Folded is how many WAL records the checkpoint absorbed.
	Folded int
	// Tail is how many records arrived mid-compaction and were replayed
	// during the swap.
	Tail int
	// BuildTime covers producing the new exact index (snapshot or
	// engine build, including the graph fold).
	BuildTime time.Duration
	// SaveTime covers writing graph.bin and index.midx.
	SaveTime time.Duration
	// SwapTime is the write-locked publish window — tail replay, index
	// swap and WAL truncation; the pipeline's publish-to-visible
	// latency.
	SwapTime time.Duration
	// Generation is the pipeline's compaction count after this run.
	Generation uint64
}

// Stats is a point-in-time snapshot of the pipeline's observable state,
// shaped for the server's /stats and /metrics endpoints.
type Stats struct {
	WALRecords   int    `json:"wal_records"`
	WALBytes     int64  `json:"wal_bytes"`
	Updates      uint64 `json:"updates_total"`
	Compactions  uint64 `json:"compactions_total"`
	Compacting   bool   `json:"compacting"`
	CompactEvery int    `json:"compact_every"`
	// CompactingSinceUnixNano is the start time of the compaction in
	// flight, 0 when none is running — the watchdog's stalled-compaction
	// signal.
	CompactingSinceUnixNano int64 `json:"compacting_since_unix_nano,omitempty"`
	// LastCompactUnixNano is 0 until the first compaction completes.
	LastCompactUnixNano int64  `json:"last_compaction_unix_nano"`
	LastCompactMode     string `json:"last_compaction_mode,omitempty"`
	LastSwapNanos       int64  `json:"last_swap_nanos,omitempty"`
}

// Pipeline is the living-graph serving surface. It implements
// oracle.Oracle (queries under a read lock) plus Update (durable edge
// insert) and Compact (checkpoint roll). Create with Open, release
// with Close.
type Pipeline struct {
	opt    Options
	dir    string
	log    *wal.Log
	engine core.Engine

	mu       sync.RWMutex // queries RLock; Update and the swap Lock
	live     *dynamic.Index
	curGraph *graph.Graph

	compactMu    sync.Mutex // serializes whole compactions
	compacting   atomic.Bool
	compactSince atomic.Int64 // start of the in-flight compaction; 0 when idle
	updates      atomic.Uint64
	compactions  atomic.Uint64
	lastCompact  atomic.Int64
	lastSwap     atomic.Int64
	lastMode     atomic.Pointer[string]

	kickC chan struct{}
	stopC chan struct{}
	doneC chan struct{}
}

// Open builds a Pipeline from the directory's durable state: load the
// checkpoint pair if present (falling back to opt.Graph / opt.Index /
// an engine build on first boot), then replay the WAL on top so the
// live index is exact for the full pre-crash edge set. The WAL's own
// Open truncates any torn tail first.
func Open(opt Options) (*Pipeline, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("compact: Options.Dir is required")
	}
	if opt.Graph == nil {
		return nil, fmt.Errorf("compact: Options.Graph is required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("compact: creating %s: %w", opt.Dir, err)
	}
	engine := opt.Engine
	if engine == nil {
		engine = core.PerRoot{}
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Checkpoint graph: the folded one on disk supersedes the boot graph
	// (it is the boot graph plus every previously compacted insert).
	g := opt.Graph
	gpath := filepath.Join(opt.Dir, GraphFile)
	if _, err := os.Stat(gpath); err == nil {
		cg, err := fileio.LoadGraph(gpath)
		if err != nil {
			return nil, fmt.Errorf("compact: loading checkpoint graph: %w", err)
		}
		if cg.NumVertices() != g.NumVertices() {
			return nil, fmt.Errorf("compact: checkpoint graph has %d vertices, boot graph %d — wrong -wal directory for this graph",
				cg.NumVertices(), g.NumVertices())
		}
		g = cg
	}

	// Checkpoint index. A stale index beside a newer graph.bin (crash
	// between the two saves) only overestimates, and the still-full WAL
	// replay below repairs exactly those pairs — so any surviving pair
	// of files is safe to resume from.
	var idx *label.Index
	ipath := filepath.Join(opt.Dir, IndexFile)
	switch _, err := os.Stat(ipath); {
	case err == nil:
		if idx, err = fileio.LoadIndex(ipath); err != nil {
			return nil, fmt.Errorf("compact: loading checkpoint index: %w", err)
		}
	case opt.Index != nil && g == opt.Graph:
		idx = opt.Index
	default:
		logf("compact: no checkpoint index, building from %d vertices / %d edges", g.NumVertices(), g.NumEdges())
		idx = core.Build(g, core.Options{Threads: opt.Threads, Engine: engine})
	}
	if idx.NumVertices() != g.NumVertices() {
		return nil, fmt.Errorf("compact: checkpoint index covers %d vertices, graph has %d", idx.NumVertices(), g.NumVertices())
	}
	// First boot: persist whatever checkpoint piece is missing, so the
	// next restart resumes in O(artifact) instead of rebuilding, and the
	// serving layer can always publish Dir/index.midx as its snapshot
	// source. Graph first — see the crash-window analysis above.
	if _, err := os.Stat(gpath); err != nil {
		if err := fileio.SaveGraph(gpath, g); err != nil {
			return nil, fmt.Errorf("compact: saving initial checkpoint graph: %w", err)
		}
	}
	if _, err := os.Stat(ipath); err != nil {
		if err := fileio.SaveIndexAs(ipath, idx, label.FormatMmap); err != nil {
			return nil, fmt.Errorf("compact: saving initial checkpoint index: %w", err)
		}
	}

	log, ups, err := wal.Open(filepath.Join(opt.Dir, WALFile))
	if err != nil {
		return nil, err
	}
	if opt.OnFsync != nil {
		log.SetSyncObserver(opt.OnFsync)
	}
	live := dynamic.FromIndex(g, idx)
	for i, up := range ups {
		if err := live.InsertEdge(up.U, up.V, up.W); err != nil {
			log.Close()
			return nil, fmt.Errorf("compact: WAL record %d (%d,%d,%d) does not apply to this graph: %w", i, up.U, up.V, up.W, err)
		}
	}
	if len(ups) > 0 {
		logf("compact: replayed %d WAL records", len(ups))
	}

	p := &Pipeline{
		opt:      opt,
		dir:      opt.Dir,
		log:      log,
		engine:   engine,
		live:     live,
		curGraph: g,
		kickC:    make(chan struct{}, 1),
		stopC:    make(chan struct{}),
		doneC:    make(chan struct{}),
	}
	p.opt.Logf = logf
	go p.loop()
	return p, nil
}

// loop is the background compactor: it waits for threshold kicks and
// runs one compaction per kick whose backlog still meets the threshold.
// Errors are logged, not fatal — the WAL keeps absorbing updates and the
// next kick retries.
func (p *Pipeline) loop() {
	defer close(p.doneC)
	for {
		select {
		case <-p.stopC:
			return
		case <-p.kickC:
			// Update counts records a running compaction is still folding,
			// so a kick queued during one can outlive its reason: once that
			// compaction truncates the WAL, only its small tail remains.
			// Re-check the backlog instead of folding that tail.
			if p.log.Len() < p.opt.CompactEvery {
				continue
			}
			if _, err := p.Compact(); err != nil {
				p.opt.Logf("compact: background compaction failed: %v", err)
			}
		}
	}
}

// kick requests a background compaction without blocking.
func (p *Pipeline) kick() {
	select {
	case p.kickC <- struct{}{}:
	default:
	}
}

// NumVertices implements oracle.Oracle.
func (p *Pipeline) NumVertices() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.live.NumVertices()
}

// Query implements oracle.Oracle.
func (p *Pipeline) Query(s, t graph.Vertex) graph.Dist {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.live.Query(s, t)
}

// QueryWithHub implements oracle.Oracle.
func (p *Pipeline) QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.live.QueryWithHub(s, t)
}

// QueryBatch implements oracle.Oracle. The whole batch runs under the
// read lock, so it can never interleave with an insert — dynamic's
// batch tripwire is structurally unreachable through the Pipeline.
func (p *Pipeline) QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.live.QueryBatch(pairs, threads)
}

// Update durably inserts the undirected edge {u,v,w}: validate, append
// + fsync to the WAL, repair the live index — in that order, so every
// acknowledged insert survives kill -9 and every logged record is
// applicable on replay. Validation failures wrap dynamic.ErrInvalid.
func (p *Pipeline) Update(u, v graph.Vertex, w graph.Dist) error {
	tr := p.opt.Tracer
	sampled := tr.Sample()
	var t0 int64
	if sampled {
		t0 = tr.Now()
	}
	p.mu.Lock()
	err := p.insertLocked(u, v, w)
	pending := p.log.Len()
	p.mu.Unlock()
	if err != nil {
		return err
	}
	if sampled {
		tr.Buf(trace.TIDWAL).Span(tr.Intern("wal.append", "u", "v", "w"), t0, tr.Now(),
			uint64(uint32(u)), uint64(uint32(v)), uint64(w))
	}
	p.updates.Add(1)
	if p.opt.CompactEvery > 0 && pending >= p.opt.CompactEvery {
		p.kick()
	}
	return nil
}

func (p *Pipeline) insertLocked(u, v graph.Vertex, w graph.Dist) error {
	if err := p.live.CheckInsert(u, v, w); err != nil {
		return err
	}
	if err := p.log.Append(u, v, w); err != nil {
		return fmt.Errorf("compact: durable append failed, insert not applied: %w", err)
	}
	if err := p.live.InsertEdge(u, v, w); err != nil {
		// CheckInsert passed and the write lock excludes batches, so
		// this is unreachable; the logged record replays harmlessly.
		return fmt.Errorf("compact: logged but failed to apply: %w", err)
	}
	return nil
}

// Compact folds the WAL into a fresh checkpoint and rolls the serving
// index onto it. Small backlogs (<= FoldLimit) snapshot the live
// repaired lists; larger ones rebuild from scratch with the build
// engine, off the serving path. Returns a zero-Mode Report when the
// WAL is empty. Safe to call concurrently; compactions serialize.
func (p *Pipeline) Compact() (Report, error) {
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	p.compacting.Store(true)
	p.compactSince.Store(time.Now().UnixNano())
	defer func() {
		p.compactSince.Store(0)
		p.compacting.Store(false)
	}()

	tr := p.opt.Tracer
	traced := tr.Enabled()
	var tr0 int64
	if traced {
		tr0 = tr.Now()
	}

	// Phase 1 (write-locked): fix the fold point n; in fold mode also
	// snapshot the live lists, which are exact for checkpoint+ups[:n]
	// because appends only happen under the same lock.
	tBuild := time.Now()
	p.mu.Lock()
	n := p.log.Len()
	if n == 0 {
		p.mu.Unlock()
		return Report{}, nil
	}
	ups := p.log.Updates()[:n]
	fold := n <= p.opt.foldLimit()
	var idx *label.Index
	if fold {
		idx = p.live.ToIndex()
	}
	p.mu.Unlock()

	// Phase 2 (unlocked): fold the graph; rebuild if the backlog was
	// too large to snapshot. curGraph is only written under compactMu,
	// which we hold.
	edges := p.curGraph.Edges()
	for _, up := range ups {
		edges = append(edges, graph.Edge{U: up.U, V: up.V, W: up.W})
	}
	g2 := graph.FromEdges(p.curGraph.NumVertices(), edges)
	mode := "fold"
	if !fold {
		mode = "rebuild"
		idx = core.Build(g2, core.Options{Threads: p.opt.Threads, Engine: p.engine})
	}
	buildTime := time.Since(tBuild)

	// Phase 3 (unlocked): persist the pair, graph first. Each write is
	// atomic; see Open for why every crash interleaving stays safe.
	tSave := time.Now()
	if err := fileio.SaveGraph(filepath.Join(p.dir, GraphFile), g2); err != nil {
		return Report{}, fmt.Errorf("compact: saving checkpoint graph: %w", err)
	}
	if err := fileio.SaveIndexAs(filepath.Join(p.dir, IndexFile), idx, label.FormatMmap); err != nil {
		return Report{}, fmt.Errorf("compact: saving checkpoint index: %w", err)
	}
	saveTime := time.Since(tSave)

	// Phase 4 (unlocked): warm the replacement dynamic index.
	next := dynamic.FromIndex(g2, idx)

	// Phase 5 (write-locked): replay what arrived mid-compaction, swap,
	// drop the folded prefix. If truncation fails the swap stands — the
	// over-long WAL replays idempotently on the new checkpoint.
	tSwap := time.Now()
	p.mu.Lock()
	tail := p.log.Updates()[n:]
	for _, up := range tail {
		if err := next.InsertEdge(up.U, up.V, up.W); err != nil {
			p.mu.Unlock()
			return Report{}, fmt.Errorf("compact: replaying mid-compaction record (%d,%d,%d): %w", up.U, up.V, up.W, err)
		}
	}
	p.live = next
	p.curGraph = g2
	truncErr := p.log.TruncateFront(n)
	p.mu.Unlock()
	swapTime := time.Since(tSwap)
	if truncErr != nil {
		p.opt.Logf("compact: WAL truncation failed (harmless, replay is idempotent): %v", truncErr)
	}

	gen := p.compactions.Add(1)
	p.lastCompact.Store(time.Now().UnixNano())
	p.lastSwap.Store(int64(swapTime))
	p.lastMode.Store(&mode)
	rep := Report{
		Mode: mode, Folded: n, Tail: len(tail),
		BuildTime: buildTime, SaveTime: saveTime, SwapTime: swapTime,
		Generation: gen,
	}
	if traced {
		var m uint64
		if mode == "rebuild" {
			m = 1
		}
		tr.Buf(trace.TIDCompact).Span(tr.Intern("compact.run", "folded", "tail", "rebuild"),
			tr0, tr.Now(), uint64(n), uint64(len(tail)), m)
	}
	p.opt.Logf("compact: generation %d: %s of %d records (+%d tail) build=%s save=%s swap=%s",
		gen, mode, n, len(tail), buildTime.Round(time.Microsecond), saveTime.Round(time.Microsecond), swapTime.Round(time.Microsecond))
	if p.opt.OnPublish != nil {
		p.opt.OnPublish(rep)
	}
	return rep, nil
}

// Stats snapshots the pipeline's observable state.
func (p *Pipeline) Stats() Stats {
	s := Stats{
		WALRecords:              p.log.Len(),
		WALBytes:                p.log.Bytes(),
		Updates:                 p.updates.Load(),
		Compactions:             p.compactions.Load(),
		Compacting:              p.compacting.Load(),
		CompactEvery:            p.opt.CompactEvery,
		CompactingSinceUnixNano: p.compactSince.Load(),
		LastCompactUnixNano:     p.lastCompact.Load(),
		LastSwapNanos:           p.lastSwap.Load(),
	}
	if m := p.lastMode.Load(); m != nil {
		s.LastCompactMode = *m
	}
	return s
}

// Generation returns the number of completed compactions.
func (p *Pipeline) Generation() uint64 { return p.compactions.Load() }

// IndexPath returns the checkpoint index artifact's path. The file
// exists from Open onward and is atomically replaced by compactions —
// the path a serving layer hands to its /reload machinery.
func (p *Pipeline) IndexPath() string { return filepath.Join(p.dir, IndexFile) }

// GraphPath returns the checkpoint graph artifact's path.
func (p *Pipeline) GraphPath() string { return filepath.Join(p.dir, GraphFile) }

// Close stops the background compactor and releases the WAL. It does
// not run a final compaction — the WAL is the durable state.
func (p *Pipeline) Close() error {
	select {
	case <-p.stopC:
	default:
		close(p.stopC)
	}
	<-p.doneC
	// A compaction in flight when stop fired still holds compactMu;
	// wait for it so the WAL handle is not yanked mid-truncation.
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	return p.log.Close()
}

// InsertEdge implements oracle.Updatable as an alias for Update, so
// the Pipeline drops into any seam that accepts a dynamic.Index.
func (p *Pipeline) InsertEdge(u, v graph.Vertex, w graph.Dist) error {
	return p.Update(u, v, w)
}

// The Pipeline is itself an updatable oracle.
var _ oracle.Updatable = (*Pipeline)(nil)
