// parapll-query runs the querying stage: it loads an index built by
// parapll-index and answers distance queries — explicit pairs, a random
// batch with latency statistics, or a verification pass against Dijkstra.
//
// Usage:
//
//	parapll-query -index g.idx -pair 17,2042 -pair 5,9
//	parapll-query -index g.idx -pair 17,2042 -explain
//	parapll-query -index g.idx -random 10000
//	parapll-query -index g.idx -graph g.bin -verify 100
//
// -explain answers each -pair through the instrumented cold-path
// sibling of the merge kernel and prints a JSON cost breakdown per
// pair: label lengths, the strategy the dispatch chose (linear vs.
// gallop), hubs probed, pointer/probe step counts, the meeting hub, and
// the merge's nanosecond cost — the offline twin of the server's
// GET /debug/explain.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"parapll"
	"parapll/internal/stats"
)

type pairList [][2]parapll.Vertex

func (p *pairList) String() string { return fmt.Sprint(*p) }
func (p *pairList) Set(s string) error {
	var a, b int64
	if _, err := fmt.Sscanf(s, "%d,%d", &a, &b); err != nil {
		return fmt.Errorf("want S,T: %v", err)
	}
	*p = append(*p, [2]parapll.Vertex{parapll.Vertex(a), parapll.Vertex(b)})
	return nil
}

func main() {
	var pairs pairList
	var (
		indexPath = flag.String("index", "", "index file from parapll-index")
		graphPath = flag.String("graph", "", "graph file (needed for -verify)")
		random    = flag.Int("random", 0, "time N random queries and print latency stats")
		verify    = flag.Int("verify", 0, "cross-check N random sources against Dijkstra")
		seed      = flag.Int64("seed", 1, "seed for -random/-verify")
		explain   = flag.Bool("explain", false, "answer each -pair through the instrumented kernel and print a JSON cost breakdown")
	)
	flag.Var(&pairs, "pair", "query pair S,T (repeatable)")
	flag.Parse()
	if *indexPath == "" {
		fatalf("need -index")
	}
	loaded, err := parapll.LoadIndex(*indexPath)
	if err != nil {
		fatalf("loading index: %v", err)
	}
	// A mapped index opens in O(1) and defers its section checksums;
	// check every byte once before answering from it.
	if err := loaded.Verify(); err != nil {
		fatalf("verifying index: %v", err)
	}
	// Everything below queries through the Oracle interface — the code
	// is identical whether the index is heap-decoded or mmap-backed.
	var idx parapll.Oracle = loaded
	n := idx.NumVertices()
	fmt.Printf("index: n=%d entries=%d LN=%.1f format=%s mmap=%v\n",
		n, loaded.NumEntries(), loaded.AvgLabelSize(), loaded.Format(), loaded.Mapped())

	// Validate every pair up front: the index's Query panics (by
	// documented contract) on out-of-range ids, and the CLI should
	// report a usable error before any partial output, not a stack
	// trace mid-run.
	for _, p := range pairs {
		if int(p[0]) >= n || int(p[1]) >= n || p[0] < 0 || p[1] < 0 {
			fatalf("pair %d,%d out of range: index has vertices [0,%d)", p[0], p[1], n)
		}
	}
	if (*random > 0 || *verify > 0) && n == 0 {
		fatalf("index has no vertices; nothing to sample for -random/-verify")
	}

	if *explain && len(pairs) == 0 {
		fatalf("-explain needs at least one -pair")
	}
	if *explain {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		for _, p := range pairs {
			ex := loaded.QueryExplain(p[0], p[1])
			// Same wire encoding as the server: -1 = unreachable.
			wire := struct {
				parapll.Explain
				Dist int64 `json:"dist"`
			}{Explain: ex, Dist: -1}
			if ex.Reachable {
				wire.Dist = int64(ex.Dist)
			}
			if err := enc.Encode(wire); err != nil {
				fatalf("encoding explain: %v", err)
			}
		}
	} else {
		for _, p := range pairs {
			d := idx.Query(p[0], p[1])
			if d == parapll.Inf {
				fmt.Printf("d(%d,%d) = unreachable\n", p[0], p[1])
			} else {
				fmt.Printf("d(%d,%d) = %d\n", p[0], p[1], d)
			}
		}
	}

	if *random > 0 {
		r := rand.New(rand.NewSource(*seed))
		qs := make([][2]parapll.Vertex, *random)
		for i := range qs {
			qs[i] = [2]parapll.Vertex{parapll.Vertex(r.Intn(n)), parapll.Vertex(r.Intn(n))}
		}
		lat := make([]float64, len(qs))
		for i, q := range qs {
			t0 := time.Now()
			idx.Query(q[0], q[1])
			lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		s := stats.Summarize(lat)
		fmt.Printf("%d random queries: mean %.3fus  p50 %.3fus  p99 %.3fus  max %.3fus\n",
			s.N, s.Mean, stats.Percentile(lat, 50), stats.Percentile(lat, 99), s.Max)
	}

	if *verify > 0 {
		if *graphPath == "" {
			fatalf("-verify needs -graph")
		}
		g, err := parapll.LoadGraph(*graphPath)
		if err != nil {
			fatalf("loading graph: %v", err)
		}
		if g.NumVertices() != n {
			fatalf("graph has %d vertices, index has %d", g.NumVertices(), n)
		}
		r := rand.New(rand.NewSource(*seed))
		for i := 0; i < *verify; i++ {
			s := parapll.Vertex(r.Intn(n))
			want := parapll.Dijkstra(g, s)
			for probe := 0; probe < 32; probe++ {
				u := parapll.Vertex(r.Intn(n))
				if got := idx.Query(s, u); got != want[u] {
					fatalf("MISMATCH: d(%d,%d) index=%d dijkstra=%d", s, u, got, want[u])
				}
			}
		}
		fmt.Printf("verified %d random sources x 32 targets against Dijkstra: all exact\n", *verify)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "parapll-query: "+format+"\n", args...)
	os.Exit(1)
}
