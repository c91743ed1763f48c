// Package fileio persists graphs and 2-hop indexes to disk for the
// two-stage workflow: cmd/parapll-gen writes graphs, cmd/parapll-index
// reads a graph and writes an index, cmd/parapll-query and
// cmd/parapll-server map the index back. All writes are atomic and
// durable (temp file + fsync + rename + directory fsync) so a crash
// mid-save can never leave a truncated or missing artifact behind.
package fileio

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"parapll/internal/graph"
	"parapll/internal/label"
)

// WriteAtomic writes via a temp file in the same directory and renames
// it into place on success. Durability, not just atomicity: the temp
// file is fsynced before the rename (so the bytes precede the name) and
// the parent directory is fsynced after it (so the rename itself
// survives a crash). Without the directory sync a power cut can forget
// the rename and leave the old file — or no file — behind. Exported for
// the WAL's checkpoint/truncation rewrites, which need the same
// discipline for files this package has no format knowledge of.
func WriteAtomic(path string, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		_ = tmp.Close() // the write error wins; the temp file is discarded
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // the sync error wins; the temp file is discarded
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making a completed rename durable. On
// windows directories cannot be opened for syncing; the rename is still
// atomic there, so this degrades to a no-op rather than failing saves.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // the sync error wins; the handle is read-only
		return fmt.Errorf("fileio: fsync %s: %w", dir, err)
	}
	return d.Close()
}

// SaveGraph writes g to path. The format is chosen by extension:
// ".txt"/".edges" for the text edge list, anything else for the binary
// cache format.
func SaveGraph(path string, g *graph.Graph) error {
	return WriteAtomic(path, func(f *os.File) error {
		if isTextGraph(path) {
			return graph.WriteEdgeList(f, g)
		}
		return graph.WriteBinary(f, g)
	})
}

// LoadGraph reads a graph from path, dispatching on extension: ".gr" is
// DIMACS, ".txt"/".edges" is a text edge list, anything else the binary
// cache format.
func LoadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".gr"):
		return graph.ReadDIMACS(f)
	case isTextGraph(path):
		return graph.ReadEdgeList(f)
	default:
		return graph.ReadBinary(f)
	}
}

func isTextGraph(path string) bool {
	return strings.HasSuffix(path, ".txt") || strings.HasSuffix(path, ".edges")
}

// FormatForPath returns the index format SaveIndex picks for path by
// extension: ".cidx" selects the compact varint-delta encoding, anything
// else the mmap-native format.
func FormatForPath(path string) string {
	if strings.HasSuffix(path, ".cidx") {
		return label.FormatCompact
	}
	return label.FormatMmap
}

// SaveIndex writes a finalized 2-hop index to path in the format
// FormatForPath picks from the extension.
func SaveIndex(path string, x *label.Index) error {
	return SaveIndexAs(path, x, FormatForPath(path))
}

// SaveIndexAs writes the index in an explicit format:
// label.FormatCompact (varint-delta, 2–4x smaller) or label.FormatMmap
// (section-aligned, opens zero-copy via LoadIndex/label.Open). Loading
// always sniffs the content, so either format may live under any
// extension.
func SaveIndexAs(path string, x *label.Index, format string) error {
	var write func(*os.File) error
	switch format {
	case label.FormatCompact:
		write = func(f *os.File) error { return x.WriteCompact(f) }
	case label.FormatMmap:
		write = func(f *os.File) error { return x.WriteMmap(f) }
	default:
		return fmt.Errorf("fileio: unknown index format %q (want %s or %s)",
			format, label.FormatCompact, label.FormatMmap)
	}
	return WriteAtomic(path, write)
}

// LoadIndex reads an index written by SaveIndex in any format,
// dispatching on the file's magic bytes rather than its extension.
// Mmap-native files open zero-copy (label.Open): O(1) start-up with the
// arrays aliasing the page cache; Index.Verify runs the deferred
// section checksums. Compact files heap-decode with full checksum
// verification.
func LoadIndex(path string) (*label.Index, error) {
	x, err := label.OpenAny(path)
	if err != nil {
		return nil, fmt.Errorf("fileio: %s: %w", path, err)
	}
	return x, nil
}
