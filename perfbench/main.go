// Command perfbench is parapll's end-to-end benchmark. It starts a real
// parapll-server process built from the tree, drives it over loopback
// from this one client process (at most two connections), checks every
// answer it can against an oracle, and prints the metrics a user of the
// server sees. With -trace 1 it also times the calls into each layer's
// public functions in-process and prints per-layer numbers.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload query-social --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The lines before it
// are a readable report: the run envelope (revision, toolchain, host,
// inputs, server flags) and every metric with its unit and sample
// count. README.md maps workloads and layer metrics to end-to-end ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"parapll/internal/fileio"
	"parapll/internal/gen"
	"parapll/internal/graph"
)

// config is one benchmark run.
type config struct {
	wl        workload
	seed      int64
	seconds   float64
	trace     bool
	serverBin string
	workDir   string
	setups    int           // server launches; setup_s is their median
	warmup    time.Duration // traffic before the measured window
	// scale overrides the workload's recipe scale when > 0 (tests).
	scale float64
	// skew is added to every oracle distance (tests prove the gate).
	skew graph.Dist
}

// metric is one named number with its unit and sample count.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// outcome is a finished run: the verdict, the report and the metrics
// the final JSON line carries.
type outcome struct {
	correct           bool
	attempted, failed int64
	why               []string // why the run is not correct
	env               envelope
	endToEnd          []metric // the BENCHMARK.json end_to_end set
	report            []metric // further end-to-end figures, report only
	layers            []metric // the BENCHMARK.json per_layer set (trace runs)
}

func main() {
	var (
		wlName    = flag.String("workload", "", "workload name: query-social, batch-road or living-social")
		seed      = flag.Int64("seed", 1, "seed for pairs, batches, updates and verification roots")
		seconds   = flag.Float64("seconds", 10, "length of the measured window")
		traceFlag = flag.Int("trace", 0, "1 = also run the per-layer measurements and print those metrics")
		serverBin = flag.String("server", "", "parapll-server binary built from this tree")
		workDir   = flag.String("work", ".bench_build/work", "scratch directory for graphs and WAL dirs")
	)
	flag.Parse()
	wl, ok := findWorkload(*wlName)
	if !ok || *serverBin == "" || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -server BIN -workload query-social|batch-road|living-social [-seed N] [-seconds S] [-trace 0|1]")
		os.Exit(2)
	}
	cfg := config{
		wl: wl, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		serverBin: *serverBin, workDir: *workDir, setups: 5, warmup: time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	out, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printOutcome(os.Stdout, cfg, out)
}

func printOutcome(f *os.File, cfg config, out *outcome) {
	env, _ := json.Marshal(out.env)
	fmt.Fprintf(f, "envelope %s\n", env)
	for _, m := range out.endToEnd {
		fmt.Fprintf(f, "e2e   %-28s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, m := range out.report {
		fmt.Fprintf(f, "e2e   %-28s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, m := range out.layers {
		fmt.Fprintf(f, "layer %-28s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, w := range out.why {
		fmt.Fprintf(f, "INCORRECT %s\n", w)
	}
	set := out.endToEnd
	if cfg.trace {
		set = out.layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(set))
	for _, m := range set {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	last, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, ms})
	fmt.Fprintf(f, "%s\n", last)
}

// inputs is the generated graph and everything derived from the seed.
type inputs struct {
	g         *graph.Graph
	graphPath string
	roots     []graph.Vertex
}

func makeInputs(cfg config, dir string) (*inputs, error) {
	rec, err := gen.FindRecipe(cfg.wl.dataset)
	if err != nil {
		return nil, err
	}
	scale := cfg.wl.scale
	if cfg.scale > 0 {
		scale = cfg.scale
	}
	in := &inputs{g: rec.Generate(scale), graphPath: filepath.Join(dir, "graph.bin")}
	if err := fileio.SaveGraph(in.graphPath, in.g); err != nil {
		return nil, err
	}
	in.roots = pickRoots(in.g.NumVertices(), cfg.wl, cfg.seed)
	return in, nil
}

// serverArgs are the flags every launch of this workload gets (plus
// -addr); living-social also gets a fresh WAL directory per launch.
func serverArgs(wl workload, graphPath, walDir string) []string {
	args := []string{"-graph", graphPath}
	if wl.living {
		args = append(args, "-wal", walDir, "-compact-every", strconv.Itoa(compactEvery))
	}
	return args
}

// run performs one benchmark pass: inputs, repeated set-ups, traffic,
// verification, and (trace runs) the per-layer measurements.
func run(ctx context.Context, cfg config) (*outcome, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := makeInputs(cfg, dir)
	if err != nil {
		return nil, err
	}
	n := in.g.NumVertices()
	var gt *gate
	if !cfg.wl.living {
		gt = newGate(in.g, in.roots, cfg.skew)
	}

	// Set-up: launch the server cfg.setups times; keep the last one.
	var srv *serverProc
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		walDir := filepath.Join(dir, "wal-"+strconv.Itoa(i))
		p, err := launch(ctx, cfg.serverBin, filepath.Join(dir, "server-"+strconv.Itoa(i)+".log"),
			serverArgs(cfg.wl, in.graphPath, walDir))
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.setup.Seconds())
		if i < cfg.setups-1 {
			p.stop()
			continue
		}
		srv = p
	}
	defer srv.stop()

	c := newClient(srv.addr, cfg.wl.conns)
	defer c.close()
	start := time.Now()
	w := window{start: start, open: start.Add(cfg.warmup), trace: cfg.trace}
	w.end = w.open.Add(time.Duration(cfg.seconds * float64(time.Second)))
	out := &outcome{}
	var reads, writes *tally
	var living *livingResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		if cfg.wl.living {
			living = livingLoop(c, cfg.wl, n, cfg.seed, w)
			reads, writes = living.reads, living.writes
		} else {
			reads = closedLoop(c, cfg.wl, n, cfg.seed, gt, w)
		}
	}()
	// The server's CPU time over the window: unlike wall-clock rates it
	// does not grow when the hypervisor steals the host's vCPUs.
	waitUntil(w.open)
	cpu0, err0 := srv.cpuSeconds()
	waitUntil(w.end)
	cpu1, err1 := srv.cpuSeconds()
	<-done
	if err0 != nil || err1 != nil {
		return nil, fmt.Errorf("reading server CPU time: %v %v", err0, err1)
	}

	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	st, err := srv.stats(c.hc)
	if err != nil {
		return nil, err
	}

	var final *tally
	if cfg.wl.living {
		final = livingFinalCheck(c, in, living.acked, cfg)
	}
	srv.stop()
	fmt.Fprintf(os.Stderr, "server log (%s):\n%s\n", srv.log, tail(srv.log))

	out.attempted = reads.attempted
	out.failed = reads.failed + reads.wrong
	note := func(t *tally, what string) {
		if t.firstErr != nil {
			out.why = append(out.why, fmt.Sprintf("%s: %d failed, first: %v", what, t.failed, t.firstErr))
		}
		if t.wrong > 0 {
			out.why = append(out.why, fmt.Sprintf("%s: %d wrong answers", what, t.wrong))
		}
	}
	note(reads, "reads")
	if gt != nil && gt.checked.Load() == 0 {
		out.why = append(out.why, "no answer touched a verification root")
	}
	if writes != nil {
		out.attempted += writes.attempted + final.attempted
		out.failed += writes.failed + final.failed + final.wrong
		note(writes, "updates")
		note(final, "post-write exact check")
		base, err := exactIndex(in.g, in.roots)
		if err != nil {
			return nil, err
		}
		fin, err := exactIndex(withEdges(in.g, living.acked), in.roots)
		if err != nil {
			return nil, err
		}
		if bad := boundViolations(living.answers, base, fin, cfg.skew); bad > 0 {
			out.failed += bad
			out.why = append(out.why, fmt.Sprintf("%d of %d reads outside [final, base] distance", bad, len(living.answers)))
		}
	}
	out.correct = len(out.why) == 0 && out.attempted > 0

	out.env = newEnvelope(cfg, in, st, serverArgs(cfg.wl, "graph.bin", "<fresh dir>"))
	out.addEndToEnd(cfg, w, setups, rss, cpu1-cpu0, reads, writes, st)
	if cfg.trace {
		layers, err := measureLayers(cfg, in, dir, reads)
		if err != nil {
			return nil, err
		}
		out.layers = layers
	}
	return out, nil
}

// livingFinalCheck runs after the writes stop: answers must now be
// exact on the base graph plus every acknowledged insert.
func livingFinalCheck(c *client, in *inputs, acked []graph.Edge, cfg config) *tally {
	g := withEdges(in.g, acked)
	gt := newGate(g, in.roots, cfg.skew)
	targets := newPairStream(g.NumVertices(), workload{}, subSeed(cfg.seed, tagTargets, 0), 0)
	t := &tally{}
	for _, r := range in.roots {
		for k := 0; k < 32; k++ {
			v := targets.next()[0]
			t.attempted++
			d, err := c.query(r, v)
			if err != nil {
				t.fail(err)
				continue
			}
			if !gt.check(r, v, d) {
				t.wrong++
			}
		}
	}
	return t
}

// addEndToEnd fills the BENCHMARK.json end_to_end set and the
// report-only figures, each with its sample count.
func (out *outcome) addEndToEnd(cfg config, w window, setups []float64, rss, cpu float64, reads, writes *tally, st serverStats) {
	rep := func(name string, v float64, unit string, n int) {
		out.report = append(out.report, metric{name, v, unit, n})
	}
	e2e := func(name string, v float64, unit string, n int) {
		out.endToEnd = append(out.endToEnd, metric{name, v, unit, n})
	}
	e2e("setup_s", median(setups), "s", len(setups))
	e2e("server_rss_mb", rss, "MB", 1)
	rep("error_share", float64(out.failed)/float64(max(out.attempted, 1)), "share", int(out.attempted))

	win := w.end.Sub(w.open)
	n := len(reads.ops)
	p50 := sliced(reads.ops, win, quantileOf(0.50))
	p99 := latencies(reads.ops, false, nil).quantile(0.99)
	rate := sliced(reads.ops, win, pairsPerSecond)
	var pairs int64
	for _, o := range reads.ops {
		pairs += int64(o.pairs)
	}
	switch {
	case cfg.wl.batch:
		rep("batch_pairs_per_s", rate, "1/s", n)
		rep("batch_p50_ms", p50/1e3, "ms", n)
		rep("batch_p99_ms", p99/1e3, "ms", n)
	case cfg.wl.living:
		// An open loop's offered rate is fixed; what it achieved is the
		// answers over the span until the last one arrived.
		var last time.Duration
		for _, o := range reads.ops {
			last = max(last, o.at+o.lat)
		}
		rate = float64(pairs) / last.Seconds()
		rep("query_rps", rate, "1/s", n)
		rep("query_p50_us", p50, "us", n)
		rep("query_p99_us", p99, "us", n)
		upd := latencies(writes.ops, false, nil)
		rep("update_p50_us", upd.quantile(0.50), "us", len(upd))
		rep("update_p99_us", upd.quantile(0.99), "us", len(upd))
		late := append(append(durations(nil), reads.late...), writes.late...)
		rep("client.late_p50_us", late.quantile(0.50), "us", len(late))
		rep("client.late_p99_us", late.quantile(0.99), "us", len(late))
		if st.Wal != nil {
			rep("server.updates", float64(st.Wal.Updates), "count", 1)
			rep("server.compactions", float64(st.Wal.Compactions), "count", 1)
		}
	default:
		rep("query_rps", rate, "1/s", n)
		rep("query_p50_us", p50, "us", n)
		rep("query_p99_us", p99, "us", n)
	}
	rep("server.cpu_s", cpu, "s", 1)
	if st.Cache != nil && st.Cache.Hits+st.Cache.Misses > 0 {
		rep("server.cache_hit_share", float64(st.Cache.Hits)/float64(st.Cache.Hits+st.Cache.Misses), "share",
			int(st.Cache.Hits+st.Cache.Misses))
	}
	e2e("read_p50_us", p50, "us", n)
	e2e("pairs_per_cpu_s", float64(pairs)/cpu, "1/s", n)
}
