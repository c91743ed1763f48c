package fileio

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
)

func testGraph() *graph.Graph {
	return graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 5}, {U: 0, V: 3, W: 20},
	})
}

func TestGraphRoundTripFormats(t *testing.T) {
	dir := t.TempDir()
	g := testGraph()
	for _, name := range []string{"g.txt", "g.edges", "g.bin"} {
		path := filepath.Join(dir, name)
		if err := SaveGraph(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g2, err := LoadGraph(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Fatalf("%s: round trip changed graph", name)
		}
	}
}

func TestLoadDIMACS(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.gr")
	content := "p sp 2 1\na 1 2 9\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 9 {
		t.Fatalf("DIMACS load wrong: w=%d ok=%v", w, ok)
	}
}

// TestIndexRoundTrip saves through SaveIndex under every extension
// class: ".cidx" picks compact, anything else (".idx", ".midx", an
// unknown suffix) the mmap-native format, which opens as a real mapping
// where the platform has one.
func TestIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	x := pll.Build(testGraph(), pll.Options{})
	for _, tc := range []struct{ name, format string }{
		{"g.idx", label.FormatMmap},
		{"g.midx", label.FormatMmap},
		{"g.cidx", label.FormatCompact},
		{"g.whatever", label.FormatMmap},
	} {
		path := filepath.Join(dir, tc.name)
		if err := SaveIndex(path, x); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		y, err := LoadIndex(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !x.Equal(y) {
			t.Fatalf("%s: round trip changed index", tc.name)
		}
		if y.Format() != tc.format {
			t.Fatalf("%s: Format() = %q, want %q", tc.name, y.Format(), tc.format)
		}
		mapPlatform := runtime.GOOS == "linux" || runtime.GOOS == "darwin"
		if tc.format == label.FormatMmap && mapPlatform && !y.Mapped() {
			t.Fatalf("%s: mmap-native index did not open as a mapping", tc.name)
		}
		y.Close()
	}
}

func TestCompactIndexExtension(t *testing.T) {
	dir := t.TempDir()
	g := testGraph()
	x := pll.Build(g, pll.Options{})
	mmapPath := filepath.Join(dir, "g.idx")
	compact := filepath.Join(dir, "g.cidx")
	if err := SaveIndex(mmapPath, x); err != nil {
		t.Fatal(err)
	}
	if err := SaveIndex(compact, x); err != nil {
		t.Fatal(err)
	}
	y, err := LoadIndex(compact)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(y) {
		t.Fatal("compact extension round trip changed index")
	}
	mi, _ := os.Stat(mmapPath)
	ci, _ := os.Stat(compact)
	if ci.Size() >= mi.Size() {
		t.Fatalf("compact file %d bytes >= mmap-native %d bytes", ci.Size(), mi.Size())
	}
	// Loading dispatches on content, not extension: a PIDM file renamed
	// to .cidx must load transparently, not misparse.
	renamed := filepath.Join(dir, "renamed.cidx")
	data, _ := os.ReadFile(mmapPath)
	if err := os.WriteFile(renamed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	z, err := LoadIndex(renamed)
	if err != nil {
		t.Fatalf("PIDM payload under .cidx: %v", err)
	}
	if !x.Equal(z) {
		t.Fatal("PIDM payload under .cidx loaded wrong")
	}
	if z.Format() != label.FormatMmap {
		t.Fatalf("PIDM payload under .cidx: Format() = %q", z.Format())
	}
	z.Close()
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := LoadGraph("/nonexistent/g.bin"); err == nil {
		t.Fatal("missing graph accepted")
	}
	if _, err := LoadIndex("/nonexistent/g.idx"); err == nil {
		t.Fatal("missing index accepted")
	}
}

// TestLoadCorruptIndex: every malformed artifact is an error from
// LoadIndex, never a panic or an accepted index — including a file from
// the retired fixed-width writer, whose magic no reader recognizes.
func TestLoadCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.idx")
	if err := SaveIndex(good, pll.Build(testGraph(), pll.Options{})); err != nil {
		t.Fatal(err)
	}
	pidm, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	// The retired format's magic and version, then an all-zero header.
	legacy := append([]byte{'P', 'I', 'D', 'X', 1, 0, 0, 0}, make([]byte, 24)...)
	flipped := bytes.Clone(pidm)
	flipped[9] ^= 0x01 // inside n; the header CRC no longer matches
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"junk", []byte("not an index")},
		{"retired-fixed-width-magic", legacy},
		{"truncated-pidm", pidm[:len(pidm)-1]},
		{"flipped-pidm-header", flipped},
	} {
		path := filepath.Join(dir, tc.name+".idx")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if y, err := LoadIndex(path); err == nil {
			y.Close()
			t.Fatalf("%s: corrupt index accepted", tc.name)
		}
	}
}

func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	if err := SaveGraph(filepath.Join(dir, "g.bin"), testGraph()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "g.bin" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory has %v, want only g.bin", names)
	}
}

func TestSaveIntoMissingDirFails(t *testing.T) {
	if err := SaveGraph("/nonexistent/dir/g.bin", testGraph()); err == nil {
		t.Fatal("save into missing dir succeeded")
	}
	var x *label.Index = pll.Build(testGraph(), pll.Options{})
	if err := SaveIndex("/nonexistent/dir/g.idx", x); err == nil {
		t.Fatal("index save into missing dir succeeded")
	}
}
