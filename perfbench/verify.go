package main

import (
	"fmt"
	"sync/atomic"

	"parapll/internal/core"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/sssp"
)

// wire encodes a distance the way the server does: -1 is unreachable.
func wire(d graph.Dist) int64 {
	if d == graph.Inf {
		return -1
	}
	return int64(d)
}

// gate is the correctness check of query-social and batch-road: every
// answer whose source or target is a verification root is compared
// with a Dijkstra row from that root.
type gate struct {
	slot []int32 // vertex -> row in rows, -1 for a non-root
	rows [][]graph.Dist
	// skew is added to every expected finite distance. It is 0 in
	// benchmark runs; the tests set it to prove a wrong oracle fails
	// the run.
	skew graph.Dist

	checked atomic.Int64
	wrong   atomic.Int64
}

func newGate(g *graph.Graph, roots []graph.Vertex, skew graph.Dist) *gate {
	gt := &gate{slot: make([]int32, g.NumVertices()), skew: skew}
	for i := range gt.slot {
		gt.slot[i] = -1
	}
	for i, r := range roots {
		gt.slot[r] = int32(i)
		gt.rows = append(gt.rows, sssp.Dijkstra(g, r))
	}
	return gt
}

// expect returns the oracle's answer for (s, t) and whether it has one.
func (gt *gate) expect(s, t graph.Vertex) (int64, bool) {
	var d graph.Dist
	switch {
	case gt.slot[s] >= 0:
		d = gt.rows[gt.slot[s]][t]
	case gt.slot[t] >= 0:
		d = gt.rows[gt.slot[t]][s]
	default:
		return 0, false
	}
	if d != graph.Inf {
		d += gt.skew
	}
	return wire(d), true
}

// check compares one answer; it returns false only for a wrong one.
func (gt *gate) check(s, t graph.Vertex, got int64) bool {
	want, ok := gt.expect(s, t)
	if !ok {
		return true
	}
	gt.checked.Add(1)
	if got != want {
		gt.wrong.Add(1)
		return false
	}
	return true
}

// read is one living-social /query answer, kept for the bound check.
type read struct {
	s, t graph.Vertex
	d    int64
}

// exactIndex builds a reference index for g and checks it against
// Dijkstra rows from the roots before it is trusted as an oracle.
func exactIndex(g *graph.Graph, roots []graph.Vertex) (*label.Index, error) {
	idx := core.Build(g, core.Options{Policy: core.Dynamic})
	for _, r := range roots {
		row := sssp.Dijkstra(g, r)
		for v := range row {
			if got := idx.Query(r, graph.Vertex(v)); got != row[v] {
				return nil, fmt.Errorf("reference index disagrees with Dijkstra at (%d,%d): %d vs %d", r, v, got, row[v])
			}
		}
	}
	return idx, nil
}

// boundViolations counts living-social reads outside [final, base]: a
// read may lag the inserts acknowledged so far, but it can never be
// longer than the base-graph distance nor shorter than the distance on
// the final graph. skew shifts both bounds up (tests only).
func boundViolations(reads []read, base, final *label.Index, skew graph.Dist) int64 {
	var bad int64
	for _, rd := range reads {
		lo, hi := final.Query(rd.s, rd.t), base.Query(rd.s, rd.t)
		if lo != graph.Inf {
			lo += skew
		}
		if hi != graph.Inf {
			hi += skew
		}
		if rd.d < 0 {
			// Unreachable may lag an insert, but not the base graph.
			if hi != graph.Inf {
				bad++
			}
			continue
		}
		if hi != graph.Inf && rd.d > int64(hi) || lo == graph.Inf || rd.d < int64(lo) {
			bad++
		}
	}
	return bad
}

// withEdges returns g plus the inserted edges.
func withEdges(g *graph.Graph, extra []graph.Edge) *graph.Graph {
	return graph.FromEdges(g.NumVertices(), append(g.Edges(), extra...))
}
