package label

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"parapll/internal/graph"
)

// seedIndexFiles returns the fuzz seeds per format: the same small
// indexes written by WriteMmap and by WriteCompact, truncations of
// each, and inputs every reader must reject.
func seedIndexFiles(tb testing.TB) (pidm, pidc [][]byte) {
	lists := [][][]Entry{
		{{}},
		{{{Hub: 0, D: 0}}},
		{
			{{Hub: 0, D: 0}},
			{{Hub: 0, D: 3}, {Hub: 1, D: 0}},
			{{Hub: 0, D: 5}, {Hub: 2, D: 0}},
		},
	}
	for _, l := range lists {
		x := NewIndexFromLists(l)
		var mm, c bytes.Buffer
		if err := x.WriteMmap(&mm); err != nil {
			tb.Fatalf("WriteMmap: %v", err)
		}
		if err := x.WriteCompact(&c); err != nil {
			tb.Fatalf("WriteCompact: %v", err)
		}
		pidm = append(pidm, mm.Bytes())
		pidc = append(pidc, c.Bytes())
	}
	// Truncations and a bad magic: the parsers' first hurdles.
	truncate := func(files [][]byte) [][]byte {
		whole := files[len(files)-1]
		return append(files, whole[:8], whole[:len(whole)-1])
	}
	pidm = append(truncate(pidm), []byte("nope"), []byte{})
	// A header claiming 2^62 vertices, and a checksum-valid hub delta
	// that wraps prev+1+dh negative (see TestCompactCorruption).
	pidc = append(truncate(pidc), craftCompact(1<<62, false),
		craftCompact(2, true, 1, 1<<63+0x7fffffff, 0, 0))
	return pidm, pidc
}

// FuzzReadAny drives the stream loader with arbitrary bytes, seeded
// from both on-disk formats. It must never panic, and any file it
// accepts must produce a structurally sound index: consistent label
// rows and panic-free queries over every vertex. A PIDC file must also
// deliver what ReadCompact promises: strictly increasing hubs in
// [0, n) and finite distances in every row.
func FuzzReadAny(f *testing.F) {
	pidm, pidc := seedIndexFiles(f)
	for _, data := range append(pidm, pidc...) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := ReadAny(bytes.NewReader(data))
		if err != nil {
			return
		}
		defer runtime.KeepAlive(x)
		n := x.NumVertices()
		if n < 0 {
			t.Fatalf("accepted index with %d vertices", n)
		}
		if got := x.NumEntries(); got < 0 {
			t.Fatalf("accepted index with %d entries", got)
		}
		for v := 0; v < n; v++ {
			hubs, dists := x.Label(graph.Vertex(v))
			if len(hubs) != len(dists) {
				t.Fatalf("vertex %d: %d hubs vs %d dists", v, len(hubs), len(dists))
			}
			if x.Format() != FormatCompact {
				continue
			}
			for i, h := range hubs {
				if h < 0 || int(h) >= n || (i > 0 && h <= hubs[i-1]) {
					t.Fatalf("vertex %d: hub %d at position %d out of order or range [0,%d)", v, h, i, n)
				}
				if dists[i] >= graph.Inf {
					t.Fatalf("vertex %d: hub %d: distance %d not below Inf", v, h, dists[i])
				}
			}
		}
		if n > 0 {
			// Self-distance must be finite-or-Inf without panicking, and
			// symmetric queries must agree on the shared label set.
			_ = x.Query(0, graph.Vertex(n-1))
			_ = x.Query(graph.Vertex(n-1), 0)
		}
	})
}

// TestRegenFuzzCorpus writes the seed files as go-fuzz corpus files
// under testdata/fuzz/FuzzReadAny. It is a no-op unless
// PARAPLL_REGEN_CORPUS=1, so the checked-in corpus stays reproducible
// from the writers instead of being hand-maintained hex.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("PARAPLL_REGEN_CORPUS") != "1" {
		t.Skip("set PARAPLL_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadAny")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	pidm, pidc := seedIndexFiles(t)
	for prefix, files := range map[string][][]byte{"seed-pidm": pidm, "seed-pidc": pidc} {
		for i, data := range files {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			name := filepath.Join(dir, fmt.Sprintf("%s-%02d", prefix, i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
