// parapll-server serves a built index as an HTTP JSON API — distance
// queries, batches, optional path reconstruction, stats, and the
// observability endpoints /metrics and /healthz.
//
// The listener comes up immediately; the index loads (or builds) in the
// background and is published atomically when ready. Until then /readyz
// answers 503 and query endpoints answer 503 "index is still loading",
// so orchestrators can distinguish "starting" from "broken". A running
// server hot-swaps its index without dropping queries via POST /reload
// (optionally {"path": "other.idx"}) or SIGHUP.
//
// Usage:
//
//	parapll-server -index g.idx -addr :8080
//	parapll-server -index g.midx -addr :8080           # mmap: O(1) open
//	parapll-server -graph g.bin -addr :8080            # index on startup
//	parapll-server -graph g.bin -paths -addr :8080     # also serve /path
//	parapll-server -index g.idx -pprof -addr :8080     # + /debug/pprof/
//
// Endpoints: GET /query?s=&t=   POST /batch   GET /path?s=&t=
// GET /knn?s=&k=   GET /stats   POST /update   POST /reload   GET /readyz
// GET /metrics (JSON, or Prometheus text under Accept: text/plain)
// GET /healthz   GET /debug/slow   GET /debug/trace?sec=N
// GET /debug/explain?s=&t=   GET /debug/health   GET /debug/bundle
// and, with -pprof, the standard net/http/pprof handlers under
// /debug/pprof/ (opt-in: profiling endpoints leak internals and cost
// CPU, so they stay off unless asked for).
//
// Serving flags: -cache-entries bounds the (s,t) distance LRU cache
// (generation-keyed, so a /reload hot-swap can never serve distances
// from the previous graph; 0 disables); -batch-threads caps the
// goroutine fan-out of one /batch request.
//
// Living-graph flags: -wal DIR turns the server into an updatable
// deployment — POST /update durably inserts edges (fsynced to
// DIR/wal.log before they are applied, so acknowledged inserts survive
// kill -9, and replayed on restart), -compact-every N folds the log
// into a fresh checkpoint artifact in the background once it holds N
// records (publishing it through the same generation machinery as
// /reload), and -compact-threads bounds that rebuild's parallelism.
// Living-graph mode needs -graph, serves no path index (so -paths is
// rejected), and disables the distance cache: distances mutate within
// a generation, so a cached answer could outlive the insert that
// shortened it.
//
// Observability flags: -slow-ms bounds the /debug/slow slow-query log;
// -trace-sample N records a span for 1 in N requests; -trace FILE
// writes the recorded timeline as Chrome trace-event JSON on
// SIGINT/SIGTERM (and arms /debug/trace even with sampling off).
//
// Diagnostics flags: -flight DIR arms the always-on flight recorder —
// a bounded spool of self-contained incident bundles (recent trace,
// metrics, goroutine/heap profiles, /stats, WAL state) written on
// GET /debug/bundle, on any handler panic, on SIGQUIT, and on every SLO
// breach; -flight-keep / -flight-gap-ms / -flight-trace-sec bound the
// spool, the auto-capture rate, and the trace window. A bundle is only
// as good as the trace it embeds, so -flight turns request tracing on
// at 1 in 1 (or 1 in N with -trace-sample N), with or without -trace;
// -trace FILE then receives that same recording. -slo-window-ms arms
// the anomaly watchdog (GET /debug/health, slo.* gauges on /metrics):
// -slo-query-p99-us watches the windowed /query+/batch p99,
// -slo-fsync-p99-us the WAL fsync p99 (living-graph mode),
// -slo-compact-ms flags a compaction running past its deadline, and a
// reload-failure rule is always on.
//
// Flag combinations that would silently do nothing are rejected with
// exit status 1 before the listener binds: -paths with -wal, any -slo-*
// rule without -slo-window-ms, and -slo-fsync-p99-us or -slo-compact-ms
// without -wal.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"parapll"
	"parapll/internal/compact"
	"parapll/internal/core"
	"parapll/internal/fileio"
	"parapll/internal/flight"
	"parapll/internal/label"
	"parapll/internal/metrics"
	"parapll/internal/pathidx"
	"parapll/internal/server"
)

func main() {
	var (
		indexPath  = flag.String("index", "", "pre-built index file (from parapll-index)")
		graphPath  = flag.String("graph", "", "graph file; indexed at startup if -index is not given")
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		threads    = flag.Int("threads", 0, "indexing threads (0 = all cores)")
		paths      = flag.Bool("paths", false, "also build a path index and serve /path (needs -graph)")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		traceOut   = flag.String("trace", "", "on SIGINT/SIGTERM, write the recorded request timeline here as Chrome trace-event JSON")
		traceRate  = flag.Int64("trace-sample", 0, "record request spans for 1 in N requests (0 = tracing off, 1 = every request); also arms GET /debug/trace")
		slowMS     = flag.Int64("slow-ms", 100, "log requests slower than this to GET /debug/slow (0 disables)")
		cacheEnts  = flag.Int("cache-entries", 65536, "bound of the (s,t) distance LRU cache, positive and negative answers (0 disables)")
		batchThr   = flag.Int("batch-threads", 0, "goroutine fan-out per /batch request (0 = min(4, GOMAXPROCS))")
		walDir     = flag.String("wal", "", "living-graph mode: directory for the edge-update WAL and compaction checkpoints (needs -graph; enables POST /update)")
		compactN   = flag.Int("compact-every", 0, "living-graph mode: background-compact once the WAL holds this many records (0 = only on restart)")
		compactThr = flag.Int("compact-threads", 0, "living-graph mode: threads for compaction rebuilds (0 = all cores)")

		flightDir      = flag.String("flight", "", "arm the flight recorder: spool incident bundles into this directory (enables GET /debug/bundle, panic/SIGQUIT dumps)")
		flightKeep     = flag.Int("flight-keep", 8, "flight recorder: keep at most this many bundles on disk")
		flightGapMS    = flag.Int64("flight-gap-ms", 30000, "flight recorder: minimum gap between automatic (breach-triggered) captures")
		flightTraceSec = flag.Int64("flight-trace-sec", 30, "flight recorder: seconds of recent trace history embedded in each bundle")

		sloWindowMS   = flag.Int64("slo-window-ms", 0, "arm the anomaly watchdog with this evaluation window (0 = off; enables GET /debug/health)")
		sloQueryP99US = flag.Int64("slo-query-p99-us", 0, "SLO: breach when the windowed /query+/batch p99 exceeds this many microseconds (0 = rule off)")
		sloFsyncP99US = flag.Int64("slo-fsync-p99-us", 0, "SLO: breach when the windowed WAL fsync p99 exceeds this many microseconds (living-graph mode; 0 = rule off)")
		sloCompactMS  = flag.Int64("slo-compact-ms", 0, "SLO: breach when a compaction has been running longer than this many milliseconds (0 = rule off)")
	)
	flag.Parse()
	// Reject missing inputs and flag combinations whose feature would
	// otherwise be silently dropped, before anything starts.
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{*indexPath == "" && *graphPath == "", "need -index or -graph"},
		{*paths && *graphPath == "", "-paths needs -graph"},
		{*walDir != "" && *graphPath == "", "-wal needs -graph (the pipeline folds updates into the graph)"},
		{*walDir != "" && *paths, "-paths cannot be combined with -wal (living-graph mode serves no path index)"},
		{*sloQueryP99US > 0 && *sloWindowMS <= 0, "-slo-query-p99-us needs -slo-window-ms (the watchdog that evaluates it)"},
		{*sloFsyncP99US > 0 && *sloWindowMS <= 0, "-slo-fsync-p99-us needs -slo-window-ms (the watchdog that evaluates it)"},
		{*sloCompactMS > 0 && *sloWindowMS <= 0, "-slo-compact-ms needs -slo-window-ms (the watchdog that evaluates it)"},
		{*sloFsyncP99US > 0 && *walDir == "", "-slo-fsync-p99-us needs -wal (it watches the living-graph pipeline)"},
		{*sloCompactMS > 0 && *walDir == "", "-slo-compact-ms needs -wal (it watches the living-graph pipeline)"},
	} {
		if c.bad {
			fatalf("%s", c.msg)
		}
	}
	if *walDir != "" && *cacheEnts != 0 {
		// Living-graph distances mutate within a generation; the
		// generation-keyed cache would serve overestimates.
		*cacheEnts = 0
	}
	reg := metrics.NewRegistry()

	// One tracer decision. A flight bundle is only as good as the trace
	// it embeds, so -flight records every request unless -trace-sample
	// says otherwise; with only -trace, the tracer stays disabled until a
	// GET /debug/trace capture turns it on for its window.
	var tr *parapll.Tracer
	if *traceRate > 0 || *traceOut != "" || *flightDir != "" {
		tr = parapll.NewTracer(0, 0)
		sample := *traceRate
		if sample <= 0 && *flightDir != "" {
			sample = 1
		}
		if sample > 0 {
			tr.SetSample(uint64(sample))
			tr.Enable()
		}
	}

	if *traceOut != "" {
		term := make(chan os.Signal, 1)
		signal.Notify(term, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-term
			f, err := os.Create(*traceOut)
			if err == nil {
				err = tr.WriteJSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "parapll-server: writing trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("trace: %d events (%d dropped) -> %s\n", len(tr.Events()), tr.Drops(), *traceOut)
			os.Exit(0)
		}()
	}

	// Living-graph pipeline settings; prepareLive fills in the rest.
	live := compact.Options{Dir: *walDir, CompactEvery: *compactN, Threads: *compactThr, Tracer: tr}

	// The recorder's and the watchdog's sources read srv and wd, which
	// are built after them; both are set before the listener, the
	// watchdog or a signal can trigger a capture.
	var srv *server.Server
	var wd *flight.Watchdog
	var rec *flight.Recorder
	if *flightDir != "" {
		var err error
		rec, err = flight.New(flight.Options{
			Dir:         *flightDir,
			MaxBundles:  *flightKeep,
			MinGap:      time.Duration(*flightGapMS) * time.Millisecond,
			TraceWindow: time.Duration(*flightTraceSec) * time.Second,
		}, flight.Sources{
			Tracer:   tr,
			Registry: reg,
			Stats:    func() any { return srv.StatsPayload() },
			WAL: func() any {
				up := srv.Updater()
				if up == nil {
					return nil
				}
				st := up.Stats()
				return &st
			},
			Health: func() any {
				if wd == nil {
					return nil
				}
				return wd.Health()
			},
		})
		if err != nil {
			fatalf("arming flight recorder: %v", err)
		}
	}

	// Anomaly watchdog: windowed SLO verdicts at /debug/health, slo.*
	// gauges on /metrics, and (with -flight) a rate-limited capture on
	// every breach.
	var queryWin *metrics.WindowedHistogram
	var rules []string
	if *sloWindowMS > 0 {
		wd = flight.NewWatchdog(flight.WatchdogOptions{
			Window:   time.Duration(*sloWindowMS) * time.Millisecond,
			Registry: reg,
			Recorder: rec,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "parapll-server: "+format+"\n", args...)
			},
		})
		if *sloQueryP99US > 0 {
			queryWin = metrics.NewWindowed(metrics.DefaultLatencyBuckets, 6)
			wd.AddLatencyRule("query_p99", "us", queryWin, 0.99, *sloQueryP99US, 1)
			rules = append(rules, fmt.Sprintf("query p99 > %dus", *sloQueryP99US))
		}
		if *sloFsyncP99US > 0 {
			fsyncWin := metrics.NewWindowed(metrics.DefaultLatencyBuckets, 6)
			live.OnFsync = func(d time.Duration) { fsyncWin.Observe(d.Microseconds()) }
			wd.AddLatencyRule("wal_fsync_p99", "us", fsyncWin, 0.99, *sloFsyncP99US, 1)
			rules = append(rules, fmt.Sprintf("wal fsync p99 > %dus", *sloFsyncP99US))
		}
		if *sloCompactMS > 0 {
			deadline := *sloCompactMS
			wd.AddProbeRule("compact_deadline", "ms", deadline, func() (int64, bool) {
				up := srv.Updater()
				if up == nil {
					return 0, false
				}
				since := up.Stats().CompactingSinceUnixNano
				if since == 0 {
					return 0, false
				}
				ms := (time.Now().UnixNano() - since) / int64(time.Millisecond)
				return ms, ms > deadline
			})
			rules = append(rules, fmt.Sprintf("compact > %dms", deadline))
		}
	}

	srv = server.NewPending(&server.Options{
		Registry: reg,
		Loader: func(path string) (*label.Index, *pathidx.Index, error) {
			idx, err := fileio.LoadIndex(path)
			return idx, nil, err // nil pidx: a reload keeps the current path index
		},
		BatchThreads: *batchThr,
		Tracer:       tr,
		Flight:       rec,
		Watchdog:     wd,
		QueryWindow:  queryWin,
	})
	srv.SlowQueries().SetThreshold(time.Duration(*slowMS) * time.Millisecond)
	srv.SetCacheEntries(*cacheEnts) // before the first Publish: snapshots wrap at publish time

	if rec != nil {
		// SIGQUIT = "dump evidence and die": the bundle carries the same
		// goroutine stacks the default handler would print, plus the
		// trace/metrics context the stacks alone lack.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			<-quit
			path, err := rec.Trigger("sigquit")
			if err != nil {
				fmt.Fprintf(os.Stderr, "parapll-server: SIGQUIT flight capture: %v\n", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "parapll-server: SIGQUIT: flight bundle -> %s\n", path)
			os.Exit(2)
		}()
		fmt.Printf("flight recorder armed: spool %s (keep %d)\n", *flightDir, *flightKeep)
	}
	if wd != nil {
		wd.AddCounterRule("reload_failures", srv.ReloadFailures(), 0)
		rules = append(rules, "any reload failure")
		wd.Start()
		fmt.Printf("watchdog armed: window %dms (%s)\n",
			*sloWindowMS, strings.Join(rules, ", "))
	}

	// Load or build off-thread so the listener (and /readyz, /healthz,
	// /metrics) is up from the first moment.
	go func() {
		if *walDir != "" {
			prepareLive(srv, live, *indexPath, *graphPath)
			return
		}
		idx, pidx, source := prepare(*indexPath, *graphPath, *paths, *threads)
		gen := srv.Publish(idx, pidx, source)
		fmt.Printf("ready: generation %d  (n=%d, entries=%d, LN=%.1f, format=%s, mmap=%v, paths=%v)\n",
			gen, idx.NumVertices(), idx.NumEntries(), idx.AvgLabelSize(),
			idx.Format(), idx.Mapped(), pidx != nil)
	}()

	// SIGHUP re-reads the current index file and swaps it in atomically —
	// the classic "rotate the artifact, nudge the daemon" flow.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			gen, err := srv.Reload("")
			if err != nil {
				fmt.Fprintf(os.Stderr, "parapll-server: SIGHUP reload: %v\n", err)
				continue
			}
			fmt.Printf("SIGHUP reload: now at generation %d\n", gen)
		}
	}()

	handler := http.Handler(srv)
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", srv)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	fmt.Printf("listening on http://%s  (pprof=%v); index loading in background, poll /readyz\n",
		*addr, *pprofOn)
	if err := http.ListenAndServe(*addr, handler); err != nil {
		fatalf("%v", err)
	}
}

// prepareLive boots the living-graph pipeline: open (or create) the
// WAL directory's checkpoint + log, replay pending updates, install the
// pipeline as the server's updater, and publish the checkpoint artifact
// as the first snapshot. Compactions publish their fresh artifact back
// through the server's /reload machinery, so the generation counter
// advances exactly once per checkpoint roll. opt carries the flag-set
// fields; prepareLive fills in the graph, seed index and callbacks.
func prepareLive(srv *server.Server, opt compact.Options, indexPath, graphPath string) {
	g, err := parapll.LoadGraph(graphPath)
	if err != nil {
		fatalf("loading graph: %v", err)
	}
	opt.Graph = g
	if indexPath != "" {
		if opt.Index, err = fileio.LoadIndex(indexPath); err != nil {
			fatalf("loading index: %v", err)
		}
	}
	var pipe *compact.Pipeline
	t0 := time.Now()
	opt.OnPublish = func(rep compact.Report) {
		gen, err := srv.Reload(pipe.IndexPath())
		if err != nil {
			fmt.Fprintf(os.Stderr, "parapll-server: publishing compacted checkpoint: %v\n", err)
			return
		}
		fmt.Printf("compaction published: generation %d (%s of %d records, swap %s)\n",
			gen, rep.Mode, rep.Folded, rep.SwapTime.Round(time.Microsecond))
	}
	opt.Logf = func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "parapll-server: "+format+"\n", args...)
	}
	pipe, err = compact.Open(opt)
	if err != nil {
		fatalf("opening living-graph pipeline: %v", err)
	}
	srv.SetUpdater(pipe) // before Publish: snapshots must query the pipeline
	idx, err := fileio.LoadIndex(pipe.IndexPath())
	if err != nil {
		fatalf("loading checkpoint index: %v", err)
	}
	gen := srv.Publish(idx, nil, pipe.IndexPath())
	st := pipe.Stats()
	fmt.Printf("ready (living-graph): generation %d  (n=%d, wal=%d records, compact-every=%d) in %.2fs\n",
		gen, idx.NumVertices(), st.WALRecords, opt.CompactEvery, time.Since(t0).Seconds())
	// A WAL already past the threshold (accumulated while down) should
	// not wait for the next insert to fold.
	if opt.CompactEvery > 0 && st.WALRecords >= opt.CompactEvery {
		go func() {
			if _, err := pipe.Compact(); err != nil {
				fmt.Fprintf(os.Stderr, "parapll-server: boot compaction: %v\n", err)
			}
		}()
	}
}

// prepare loads or builds the serving artifacts. It runs off the main
// goroutine; failures are fatal because the server cannot become ready
// without an index.
func prepare(indexPath, graphPath string, paths bool, threads int) (*parapll.Index, *pathidx.Index, string) {
	var idx *parapll.Index
	var err error
	source := indexPath
	if indexPath != "" {
		t0 := time.Now()
		idx, err = fileio.LoadIndex(indexPath)
		if err != nil {
			fatalf("loading index: %v", err)
		}
		fmt.Printf("opened %s in %.1fms (format=%s, mmap=%v)\n",
			indexPath, float64(time.Since(t0).Microseconds())/1e3, idx.Format(), idx.Mapped())
	} else {
		g, err := parapll.LoadGraph(graphPath)
		if err != nil {
			fatalf("loading graph: %v", err)
		}
		t0 := time.Now()
		prog := &parapll.BuildProgress{}
		stopLog := logProgress(prog, t0)
		idx = parapll.Build(g, parapll.Options{Threads: threads, Policy: parapll.Dynamic, Progress: prog})
		stopLog()
		fmt.Printf("indexed %d vertices in %.2fs\n", g.NumVertices(), time.Since(t0).Seconds())
		source = graphPath
	}

	var pidx *pathidx.Index
	if paths {
		g, err := parapll.LoadGraph(graphPath)
		if err != nil {
			fatalf("loading graph: %v", err)
		}
		t0 := time.Now()
		pidx = pathidx.Build(g, pathidx.Options{Threads: threads, Policy: core.Dynamic})
		fmt.Printf("path index built in %.2fs\n", time.Since(t0).Seconds())
	}
	return idx, pidx, source
}

// logProgress samples prog every 2s and prints a one-line status —
// including the average root rate and an ETA — until the returned stop
// function is called. Quiet for fast builds: nothing is printed before
// the first tick.
func logProgress(prog *parapll.BuildProgress, start time.Time) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				s := prog.Snapshot()
				elapsed := time.Since(start)
				line := fmt.Sprintf("indexing: %d/%d roots, %d labels, %.0f roots/s",
					s.RootsDone, s.TotalRoots, s.LabelsAdded, s.Rate(elapsed))
				if eta, ok := s.ETA(elapsed); ok {
					line += fmt.Sprintf(", ETA %s", eta.Round(time.Second))
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "parapll-server: "+format+"\n", args...)
	os.Exit(1)
}
