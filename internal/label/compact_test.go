package label

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"parapll/internal/graph"
)

func randomIndex(seed int64, n, perVertex int) *Index {
	r := rand.New(rand.NewSource(seed))
	s := NewStore(n)
	for v := 0; v < n; v++ {
		k := r.Intn(perVertex + 1)
		for j := 0; j < k; j++ {
			s.Append(graph.Vertex(v), graph.Vertex(r.Intn(n)), graph.Dist(r.Intn(100000)))
		}
	}
	return NewIndex(s)
}

func TestCompactRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		x    *Index
	}{
		{"empty", NewIndex(NewStore(0))},
		{"no-labels", NewIndex(NewStore(7))},
		{"random-small", randomIndex(1, 20, 5)},
		{"random-large", randomIndex(2, 300, 40)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.x.WriteCompact(&buf); err != nil {
				t.Fatal(err)
			}
			y, err := ReadCompact(&buf)
			if err != nil {
				t.Fatal(err)
			}
			// Normalize nil-vs-empty slices before comparing.
			if tc.x.NumEntries() == 0 && y.NumEntries() == 0 {
				if tc.x.NumVertices() != y.NumVertices() {
					t.Fatal("vertex count changed")
				}
				return
			}
			if !tc.x.Equal(y) {
				t.Fatal("compact round trip changed index")
			}
		})
	}
}

func TestCompactSmallerThanFixed(t *testing.T) {
	x := randomIndex(3, 500, 30)
	var fixed, compact bytes.Buffer
	if err := x.WriteMmap(&fixed); err != nil {
		t.Fatal(err)
	}
	if err := x.WriteCompact(&compact); err != nil {
		t.Fatal(err)
	}
	if compact.Len() >= fixed.Len() {
		t.Fatalf("compact %d bytes >= fixed-width PIDM %d bytes", compact.Len(), fixed.Len())
	}
	t.Logf("fixed-width PIDM %d bytes, compact %d bytes (%.1fx smaller)",
		fixed.Len(), compact.Len(), float64(fixed.Len())/float64(compact.Len()))
}

func TestCompactQueriesMatch(t *testing.T) {
	x := randomIndex(4, 100, 20)
	var buf bytes.Buffer
	if err := x.WriteCompact(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := ReadCompact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for q := 0; q < 200; q++ {
		a, b := graph.Vertex(r.Intn(100)), graph.Vertex(r.Intn(100))
		if x.Query(a, b) != y.Query(a, b) {
			t.Fatalf("query (%d,%d) differs after compact round trip", a, b)
		}
	}
}

func TestCompactCorruption(t *testing.T) {
	x := randomIndex(6, 50, 10)
	var buf bytes.Buffer
	if err := x.WriteCompact(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Flip a byte near the end (in the payload, before the checksum).
	b[len(b)-8] ^= 0x41
	if _, err := ReadCompact(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupted compact stream accepted")
	}
	if _, err := ReadCompact(bytes.NewReader([]byte("JUNK1234"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadCompact(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	// Crafted headers and deltas must be errors, not panics or accepted
	// indexes: a vertex count of 2^62 once sized an up-front allocation,
	// and a hub delta of 2^63+0x7fffffff once wrapped prev+1+dh to a
	// negative hub that truncated to vertex 2147483647.
	for name, data := range map[string][]byte{
		"huge-vertex-count": craftCompact(1<<62, false),
		"wrapping-hub-delta": craftCompact(2, true,
			1, 1<<63+0x7fffffff, 0, // vertex 0: one entry
			0), // vertex 1: no entries
	} {
		if y, err := ReadCompact(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: accepted (n=%d, entries=%d)", name, y.NumVertices(), y.NumEntries())
		}
	}
}

// craftCompact assembles a PIDC stream by hand: the header claiming n
// vertices, then body as raw uvarints, then (if sum) the CRC trailer a
// genuine writer would append.
func craftCompact(n uint64, sum bool, body ...uint64) []byte {
	b := []byte(compactMagic)
	b = binary.LittleEndian.AppendUint32(b, compactVersion)
	b = binary.LittleEndian.AppendUint64(b, n)
	for _, v := range body {
		b = binary.AppendUvarint(b, v)
	}
	if sum {
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	return b
}
