package label_test

import (
	"math/rand"
	"sync"
	"testing"

	"parapll/internal/core"
	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/label"
)

// shapePairs is the number of uniform query pairs per shape: a power of
// two so the benchmark loop can wrap with a mask.
const shapePairs = 1 << 18

// shape is one real-graph index the kernel benchmarks run against.
type shape struct {
	idx   *label.Index
	pairs [][2]graph.Vertex
}

var (
	shapesMu sync.Mutex
	shapes   = map[string]*shape{}
)

// loadShape builds (once per process) a one-thread index over the named
// generator recipe and draws its seeded uniform pairs.
func loadShape(b *testing.B, dataset string, scale float64) *shape {
	b.Helper()
	shapesMu.Lock()
	defer shapesMu.Unlock()
	if sh, ok := shapes[dataset]; ok {
		return sh
	}
	rec, err := gen.FindRecipe(dataset)
	if err != nil {
		b.Fatal(err)
	}
	g := rec.Generate(scale)
	sh := &shape{idx: core.Build(g, core.Options{Threads: 1}), pairs: make([][2]graph.Vertex, shapePairs)}
	r := rand.New(rand.NewSource(1))
	n := g.NumVertices()
	for i := range sh.pairs {
		sh.pairs[i] = [2]graph.Vertex{graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))}
	}
	shapes[dataset] = sh
	return sh
}

var shapeSink graph.Dist

// BenchmarkQueryShapes times Index.Query on the label shapes the
// serving benchmark meets: a social graph (Epinions @ 0.25: short
// hub-dense labels, frequent gallops) and a road graph (RI-USA @ 0.1:
// long labels, linear walks). The synthetic BenchmarkIndexQuery labels
// never gallop. Reproduce the kernel table with
//
//	go test -run '^$' -bench QueryShapes -count 10 ./internal/label/
func BenchmarkQueryShapes(b *testing.B) {
	for _, c := range []struct {
		dataset string
		scale   float64
	}{{"Epinions", 0.25}, {"RI-USA", 0.1}} {
		b.Run(c.dataset, func(b *testing.B) {
			sh := loadShape(b, c.dataset, c.scale)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := sh.pairs[i&(shapePairs-1)]
				shapeSink = sh.idx.Query(p[0], p[1])
			}
		})
	}
}
