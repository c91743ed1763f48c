package label

import (
	"math/bits"
	"runtime"

	"parapll/internal/graph"
)

// merge.go is the QUERY(s,t,L) kernel: the minimum of sd[i]+td[j] over
// common hubs of two hub-sorted label runs, and the hub achieving it.
// Every Index query surface — Query, QueryBatch, QueryWithHub and
// QueryExplain — runs the one mergeAt below. This is the
// multiply-by-millions inner loop, so it gets two specializations the
// plain two-pointer walk lacks:
//
//   - an unrolled equal-hub fast path: the highest-ranked hubs appear
//     in almost every label list, so the two runs typically open with a
//     long stretch of identical hub ids. The unrolled loop consumes
//     such a stretch with one compare per pair instead of re-entering
//     the three-way dispatch each iteration.
//
//   - galloping probes for asymmetric runs: when one run is >=
//     gallopRatio x longer, walking it linearly inspects mostly
//     irrelevant hubs. Iterating the short run and locating each hub in
//     the long one with an exponential probe + binary search does
//     O(short * log(long/short)) work instead of O(long).
//
// The kernel is allocation-free and reads only within the given offset
// bounds. Mutable label lists (dynamic, directed) use MergeEntries.

// gallopRatio is the length asymmetry at which mergeAt switches from
// the linear walk to galloping probes over the longer run. 8 is the
// conventional crossover (TimSort uses 7): below it the probe's branch
// mispredictions cost more than the skipped comparisons save.
const gallopRatio = 8

// work is the cost of one mergeAt call; the fields are Explain's
// counters. It has five fields, so the compiler keeps it in mergeAt's
// frame rather than in registers. The walk's own state fills the
// registers: with the counters in registers too, it spilled and
// reloaded that state on every step of an equal-hub stretch (about +6%
// per query on RI-USA @ 0.1, where stretches dominate), while frame
// increments run beside the walk at no measurable cost.
type work struct {
	probed   int // hub ids inspected (dispatch reads + stretch re-reads; short-run hubs in the gallop)
	common   int // hubs present in both runs
	linear   int // i and j advances of the two-pointer walk
	gallops  int // exponential-probe doublings
	halvings int // binary-search halvings
}

// algo names the strategy the dispatch took, read off the counters: an
// empty run inspects nothing, the linear walk always advances a
// pointer, and the gallop never does.
func (w work) algo() string {
	switch {
	case w.probed == 0:
		return "empty"
	case w.linear == 0:
		return "gallop"
	default:
		return "linear"
	}
}

// mergeAt intersects the runs [slo,shi) and [tlo,thi) of the index
// arrays and returns the minimum distance sum, the meeting hub
// achieving it (graph.Inf, -1 when the runs share no hub; ties go to
// the smallest hub) and the work done. Runs must be strictly
// hub-increasing — the Index invariant established by
// NewIndexFromLists and the readers.
//
// It is addressed by offsets rather than pre-cut slices: four
// slice-header arguments are twelve words — three of them spill to the
// stack at every call under the register ABI — where the receiver plus
// four offsets all arrive in registers, and the runs are cut here in
// the callee's own frame. The single exit ends with a pin of the
// receiver, so the kernel satisfies the mmap memory model on its own
// (the pin is a free liveness marker, not an instruction).
func (x *Index) mergeAt(slo, shi, tlo, thi int64) (graph.Dist, graph.Vertex, work) {
	ah, ad, bh, bd := x.hubs[slo:shi], x.dists[slo:shi], x.hubs[tlo:thi], x.dists[tlo:thi]
	// Intersection is symmetric: put the shorter run first so the
	// gallop always iterates the short side.
	if len(ah) > len(bh) {
		ah, bh = bh, ah
		ad, bd = bd, ad
	}
	best := graph.Inf
	// The hub is only ever set together with best, from a value already
	// in a register, so both updates compile to conditional moves. A
	// fresh load there (hub = ah[i]) turns them into a branch that
	// mispredicts as best improves: about +30% per query on RI-USA.
	hub := graph.Vertex(-1)
	var w work
	switch {
	case len(ah) == 0:
		// no common hubs possible; best stays Inf
	case len(bh) >= gallopRatio*len(ah):
		// Gallop: iterate the short run and locate each of its hubs in
		// the long run with an exponential probe from the previous
		// position followed by a binary search over the probed window.
		// halvings, bumped inside the binary search, is the one counter
		// kept in a register.
		nb := len(bh)
		j, halvings := 0, 0
		for i := 0; i < len(ah); i++ {
			target := ah[i]
			w.probed++
			// Exponential probe: find a window (lo, lo+step] known to
			// bracket the first element >= target.
			lo, step := j, 1
			for lo+step < nb && bh[lo+step] < target {
				lo += step
				step <<= 1
			}
			w.gallops += bits.TrailingZeros(uint(step)) // one per doubling
			hi := lo + step
			if hi > nb {
				hi = nb
			}
			// Binary search for the first index in [lo, hi) with hub >= target.
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				halvings++
				if bh[mid] < target {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo >= nb {
				break // the long run is exhausted: no more partners exist
			}
			j = lo
			if bh[j] == target {
				w.common++
				if d := graph.AddDist(ad[i], bd[j]); d < best {
					best = d
					hub = target
				}
				j++
				if j >= nb {
					break
				}
			}
		}
		w.halvings = halvings
	default:
		// Two-pointer walk with the equal-hub stretch unrolled into its
		// own tight loop. Plain compare-and-branch dispatch: label runs
		// advance in long predictable stretches, so branches are almost
		// always predicted; a conditional-move lowering would chain every
		// iteration through the compare's data dependency instead.
		//
		// The mismatch loop counts nothing: every advance of either
		// pointer is a linear step, and every probe is a mismatch (one
		// step), a match (two steps) or the re-read that ends a stretch,
		// so the totals follow from i+j, the matches and the stretch
		// ends.
		na, nb := len(ah), len(bh)
		i, j := 0, 0
	scan:
		for i < na && j < nb {
			a, b := ah[i], bh[j]
			if a < b {
				i++
				continue
			}
			if a > b {
				j++
				continue
			}
			// Equal-hub fast path: consume the whole matching stretch
			// without re-testing the three-way dispatch.
			for {
				w.common++
				if d := graph.AddDist(ad[i], bd[j]); d < best {
					best = d
					hub = a
				}
				i++
				j++
				if i >= na || j >= nb {
					break scan
				}
				a, b = ah[i], bh[j]
				if a != b {
					break
				}
			}
			w.probed++ // the re-read that ended the stretch
		}
		w.linear = i + j
		w.probed += w.linear - w.common
	}
	runtime.KeepAlive(x) // the runs alias x's possibly-mmap'd arrays
	return best, hub, w
}

// MergeEntries is QUERY over two mutable label lists: the minimum
// distance sum over their common hubs and the hub achieving it
// (graph.Inf, -1 when they share none; ties go to the smallest hub,
// as in the Index kernel). Both lists must be strictly hub-increasing.
// It is the plain two-pointer walk — the dynamic and directed indexes
// rewrite their lists in place and so cannot use the Index kernel.
func MergeEntries(a, b []Entry) (graph.Dist, graph.Vertex) {
	best := graph.Inf
	hub := graph.Vertex(-1)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Hub < b[j].Hub:
			i++
		case a[i].Hub > b[j].Hub:
			j++
		default:
			if d := graph.AddDist(a[i].D, b[j].D); d < best {
				best = d
				hub = a[i].Hub
			}
			i++
			j++
		}
	}
	return best, hub
}
