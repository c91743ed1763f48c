package label

import (
	"runtime"
	"time"

	"parapll/internal/graph"
)

// Explain is the cost-attribution record for one query. Counters are
// defined by the kernel's actual work:
//
//   - HubsProbed: hub ids inspected — three-way dispatch iterations plus
//     equal-stretch pairs in the linear walk; short-run hubs located in
//     the gallop.
//   - CommonHubs: hub ids present in both labels (candidate meeting
//     hubs whose distance sums were compared).
//   - LinearSteps: pointer advances of the two-pointer walk (i and j
//     increments), zero for galloped queries.
//   - GallopProbes / BinarySteps: exponential-probe doublings and
//     binary-search halvings, zero for linear queries.
type Explain struct {
	S         graph.Vertex `json:"s"`
	T         graph.Vertex `json:"t"`
	Dist      graph.Dist   `json:"-"`           // graph.Inf when unreachable; wire encodings re-encode it
	Hub       graph.Vertex `json:"meeting_hub"` // -1 when disconnected
	Reachable bool         `json:"reachable"`

	SLabelLen int `json:"s_label_len"`
	TLabelLen int `json:"t_label_len"`

	// Algo is the kernel strategy the dispatch chose: "self" (s == t,
	// no merge), "empty" (a label list is empty), "linear" (two-pointer
	// walk) or "gallop" (length ratio >= 8 — probe the long run).
	Algo string `json:"algo"`
	// Swapped reports that the merge iterated t's label as the short
	// run (the kernel always puts the shorter run first).
	Swapped bool `json:"swapped"`

	HubsProbed   int `json:"hubs_probed"`
	CommonHubs   int `json:"common_hubs"`
	LinearSteps  int `json:"linear_steps"`
	GallopProbes int `json:"gallop_probes"`
	BinarySteps  int `json:"binary_steps"`

	MergeNanos int64 `json:"merge_ns"`
}

// QueryExplain answers exactly like Query/QueryWithHub — same distance,
// same meeting hub, same out-of-range panic — while reporting the cost
// breakdown of the one merge kernel those queries run. It is a
// diagnostics path (`/debug/explain`, `parapll-query -explain`): the
// returned struct is by-value, but the timing call may cost more than a
// short merge, so it is never used on the serving hot path.
func (x *Index) QueryExplain(s, t graph.Vertex) Explain {
	x.checkPair(s, t)
	ex := Explain{S: s, T: t}
	if s == t {
		ex.Dist, ex.Hub, ex.Reachable, ex.Algo = 0, s, true, "self"
		ex.SLabelLen = x.LabelSize(s)
		ex.TLabelLen = ex.SLabelLen
		return ex
	}
	slo, shi := x.off[s], x.off[s+1]
	tlo, thi := x.off[t], x.off[t+1]
	runtime.KeepAlive(x) // x.off may alias a finalizer-managed mapping
	ex.SLabelLen = int(shi - slo)
	ex.TLabelLen = int(thi - tlo)
	// The kernel iterates the shorter run first.
	ex.Swapped = ex.SLabelLen > ex.TLabelLen

	t0 := time.Now()
	d, hub, w := x.mergeAt(slo, shi, tlo, thi)
	ex.MergeNanos = time.Since(t0).Nanoseconds()

	ex.Dist, ex.Hub, ex.Reachable = d, hub, d != graph.Inf
	ex.Algo = w.algo()
	ex.HubsProbed = w.probed
	ex.CommonHubs = w.common
	ex.LinearSteps = w.linear
	ex.GallopProbes = w.gallops
	ex.BinarySteps = w.halvings
	return ex
}
