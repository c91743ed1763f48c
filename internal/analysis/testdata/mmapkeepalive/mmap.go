// Package mmaptest is the mmapkeepalive golden-test corpus: a stand-in
// for label.Index with the structural owner signature (off/hubs/dists
// slices plus the mm mapping field).
package mmaptest

import "runtime"

type Vertex = int32
type Dist = uint32

type mapping struct{ data []byte }

type Index struct {
	off   []int64
	hubs  []Vertex
	dists []Dist
	mm    *mapping
}

// Label returns aliases into the mapping; the deref of off is pinned.
func (x *Index) Label(v Vertex) ([]Vertex, []Dist) {
	defer runtime.KeepAlive(x)
	lo, hi := x.off[v], x.off[v+1]
	return x.hubs[lo:hi], x.dists[lo:hi]
}

// heapIndex has the array fields but no mm: always heap-backed, exempt.
type heapIndex struct {
	off   []int64
	hubs  []Vertex
	dists []Dist
}

func heapOK(h *heapIndex) Dist {
	return h.dists[0]
}

func deferOK(x *Index) Dist {
	defer runtime.KeepAlive(x)
	return x.dists[0]
}

func pinAfterOK(x *Index) int64 {
	var s int64
	for i := 0; i < len(x.off); i++ {
		s += x.off[i]
	}
	runtime.KeepAlive(x)
	return s
}

func lenOnlyOK(x *Index) int {
	return len(x.off) + cap(x.dists) // slice headers only: no pin needed
}

func freshOK() Dist {
	x := &Index{off: []int64{0, 1}, hubs: []Vertex{0}, dists: []Dist{7}}
	return x.dists[0] // just allocated: no finalizer can be registered yet
}

func directBad(x *Index) Dist {
	return x.dists[0] // want `dereferences mmap-aliased x.dists without runtime.KeepAlive`
}

func aliasBad(x *Index) Vertex {
	hubs := x.hubs
	return hubs[0] // want `dereferences mmap-aliased hubs without runtime.KeepAlive\(x\)`
}

func labelAliasBad(x *Index, v Vertex) Dist {
	_, dists := x.Label(v)
	var s Dist
	for _, d := range dists { // want `dereferences mmap-aliased dists without runtime.KeepAlive\(x\)`
		s += d
	}
	return s
}

func labelAliasOK(x *Index, v Vertex) Dist {
	defer runtime.KeepAlive(x)
	_, dists := x.Label(v)
	var s Dist
	for _, d := range dists {
		s += d
	}
	return s
}

func wrongOrderBad(x *Index) Dist {
	d := x.dists[0]
	runtime.KeepAlive(x)
	return d + x.dists[1] // want `does not cover the exit`
}

func ignoredOK(x *Index) Dist {
	//parapll:vet-ignore mmapkeepalive caller pins the index for the full call
	return x.dists[0]
}

// --- Merge-kernel-shaped cases: the query hot path slices the owner's
// arrays into plain-slice runs, hands them to an allocation-free kernel,
// and pins once per call (or per chunk) rather than per deref.

// kernel takes plain slices — no owner fields, so derefs inside are
// exempt regardless of what the slices alias. Pinning is the caller's
// contract, as for any plain-slice helper.
func kernel(ah []Vertex, ad []Dist, bh []Vertex, bd []Dist) Dist {
	best := Dist(0)
	i, j := 0, 0
	for i < len(ah) && j < len(bh) {
		if ah[i] == bh[j] {
			best += ad[i] + bd[j]
			i++
			j++
		} else if ah[i] < bh[j] {
			i++
		} else {
			j++
		}
	}
	return best
}

// kernelCallOK: slicing the owner's arrays as call arguments is a
// header copy, not a deref; the off derefs are pinned at the exit.
func kernelCallOK(x *Index, s, t Vertex) Dist {
	slo, shi := x.off[s], x.off[s+1]
	tlo, thi := x.off[t], x.off[t+1]
	d := kernel(x.hubs[slo:shi], x.dists[slo:shi], x.hubs[tlo:thi], x.dists[tlo:thi])
	runtime.KeepAlive(x)
	return d
}

// kernelCallBad: same shape but the pin is missing — the off derefs
// feeding the kernel must still be covered.
func kernelCallBad(x *Index, s, t Vertex) Dist {
	slo, shi := x.off[s], x.off[s+1] // want `dereferences mmap-aliased x.off without runtime.KeepAlive`
	return kernel(x.hubs[slo:shi], x.dists[slo:shi], x.hubs[:0], x.dists[:0])
}

// gallopBad: a binary-probe loop over the owner's hub array — the
// merge-kernel access pattern written directly against x — still needs
// the pin.
func gallopBad(x *Index, target Vertex) int {
	lo, hi := 0, len(x.hubs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.hubs[mid] < target { // want `dereferences mmap-aliased x.hubs without runtime.KeepAlive`
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// chunkPinOK: the batch shape — many pair derefs inside the chunk loop,
// one pin after the last deref, amortized per chunk instead of per pair.
func chunkPinOK(x *Index, pairs [][2]Vertex, out []Dist) {
	for i, p := range pairs {
		slo, shi := x.off[p[0]], x.off[p[0]+1]
		tlo, thi := x.off[p[1]], x.off[p[1]+1]
		out[i] = kernel(x.hubs[slo:shi], x.dists[slo:shi], x.hubs[tlo:thi], x.dists[tlo:thi])
	}
	runtime.KeepAlive(x)
}
