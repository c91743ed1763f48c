package label

import (
	"math/rand"
	"testing"

	"parapll/internal/graph"
)

// TestExplainMatchesQueryRandomized: over randomized indexes (including
// strongly asymmetric labels that trigger the gallop path) QueryExplain
// must return exactly Query's distance and QueryWithHub's meeting hub,
// and counters consistent with the strategy it reports.
func TestExplainMatchesQueryRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(40) + 2
		s := NewStore(n)
		for v := 0; v < n; v++ {
			// Mix tiny and huge label lists so the gallop dispatch
			// (ratio >= 8) fires regularly.
			var size int
			if r.Intn(3) == 0 {
				size = r.Intn(3)
			} else {
				size = r.Intn(64) + 8
			}
			for k := 0; k < size; k++ {
				s.Append(graph.Vertex(v), graph.Vertex(r.Intn(n)), graph.Dist(r.Intn(1000)+1))
			}
		}
		x := NewIndex(s)
		for q := 0; q < 200; q++ {
			a := graph.Vertex(r.Intn(n))
			b := graph.Vertex(r.Intn(n))
			wantD := x.Query(a, b)
			wantHubD, wantHub := x.QueryWithHub(a, b)
			ex := x.QueryExplain(a, b)
			if ex.Dist != wantD || wantHubD != wantD {
				t.Fatalf("n=%d (%d,%d): explain dist %d, Query %d, QueryWithHub %d",
					n, a, b, ex.Dist, wantD, wantHubD)
			}
			if ex.Hub != wantHub {
				t.Fatalf("n=%d (%d,%d): explain hub %d, QueryWithHub hub %d", n, a, b, ex.Hub, wantHub)
			}
			if ex.Reachable != (wantD != graph.Inf) {
				t.Fatalf("(%d,%d): reachable %v for dist %d", a, b, ex.Reachable, wantD)
			}
			if ex.SLabelLen != x.LabelSize(a) || ex.TLabelLen != x.LabelSize(b) {
				t.Fatalf("(%d,%d): label lens %d/%d, want %d/%d",
					a, b, ex.SLabelLen, ex.TLabelLen, x.LabelSize(a), x.LabelSize(b))
			}
			switch ex.Algo {
			case "self":
				if a != b {
					t.Fatalf("(%d,%d): algo self for distinct pair", a, b)
				}
			case "empty":
				if ex.SLabelLen != 0 && ex.TLabelLen != 0 {
					t.Fatalf("(%d,%d): algo empty with lens %d/%d", a, b, ex.SLabelLen, ex.TLabelLen)
				}
			case "linear":
				if ex.GallopProbes != 0 || ex.BinarySteps != 0 {
					t.Fatalf("(%d,%d): linear walk reported gallop counters %+v", a, b, ex)
				}
			case "gallop":
				short, long := ex.SLabelLen, ex.TLabelLen
				if short > long {
					short, long = long, short
				}
				if long < gallopRatio*short {
					t.Fatalf("(%d,%d): algo gallop below ratio (lens %d/%d)", a, b, ex.SLabelLen, ex.TLabelLen)
				}
				if ex.LinearSteps != 0 {
					t.Fatalf("(%d,%d): gallop reported linear steps %d", a, b, ex.LinearSteps)
				}
			default:
				t.Fatalf("(%d,%d): unknown algo %q", a, b, ex.Algo)
			}
		}
	}
}

// TestExplainDispatch pins the strategy selection and the counters on
// hand-built shapes.
func TestExplainDispatch(t *testing.T) {
	// Vertex 0: one hub {0}; vertex 1: hubs {0..9} (ratio 10 >= 8 -> gallop);
	// vertex 2: hubs {0,1,2} (ratio 3 -> linear); vertex 3: empty.
	s := NewStore(4)
	s.Append(0, 0, 5)
	for h := 0; h < 10; h++ {
		s.Append(1, graph.Vertex(h), graph.Dist(h+1))
	}
	for h := 0; h < 3; h++ {
		s.Append(2, graph.Vertex(h), graph.Dist(h+1))
	}
	x := NewIndex(s)

	ex := x.QueryExplain(0, 1)
	if ex.Algo != "gallop" || !ex.Reachable || ex.Dist != 6 || ex.Hub != 0 {
		t.Fatalf("0-1: %+v", ex)
	}
	if ex.HubsProbed != 1 || ex.CommonHubs != 1 {
		t.Fatalf("0-1 counters: %+v", ex)
	}

	ex = x.QueryExplain(2, 1)
	if ex.Algo != "linear" || ex.Dist != 2 || ex.Hub != 0 {
		t.Fatalf("2-1: %+v", ex)
	}
	if ex.CommonHubs != 3 || ex.HubsProbed == 0 || ex.LinearSteps == 0 {
		t.Fatalf("2-1 counters: %+v", ex)
	}
	if ex.Swapped { // vertex 2's label (3 hubs) is already the short run
		t.Fatalf("2-1 unexpectedly swapped: %+v", ex)
	}

	ex = x.QueryExplain(1, 2) // same pair reversed: t becomes the short run
	if ex.Algo != "linear" || !ex.Swapped || ex.Dist != 2 || ex.Hub != 0 {
		t.Fatalf("1-2: %+v", ex)
	}

	ex = x.QueryExplain(0, 3)
	if ex.Algo != "empty" || ex.Reachable || ex.Hub != -1 || ex.Dist != graph.Inf {
		t.Fatalf("0-3: %+v", ex)
	}

	ex = x.QueryExplain(3, 3)
	if ex.Algo != "self" || ex.Dist != 0 || ex.Hub != 3 || !ex.Reachable {
		t.Fatalf("3-3: %+v", ex)
	}
}

// TestExplainPanicsLikeQuery: out-of-range pairs panic exactly as in
// Query (uniform bounds check).
func TestExplainPanicsLikeQuery(t *testing.T) {
	s := NewStore(2)
	s.Append(0, 0, 1)
	x := NewIndex(s)
	defer func() {
		if recover() == nil {
			t.Fatal("QueryExplain(0, 9) did not panic")
		}
	}()
	x.QueryExplain(0, 9)
}
