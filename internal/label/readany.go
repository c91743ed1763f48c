package label

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// Canonical names of the two on-disk index formats, as reported by
// Index.Format and accepted by fileio.SaveIndexAs.
const (
	// FormatCompact is the varint-delta compressed format ("PIDC").
	FormatCompact = "compact"
	// FormatMmap is the section-aligned mmap-native format ("PIDM").
	FormatMmap = "mmap"
	// FormatMemory marks an index built in process, never deserialized.
	FormatMemory = "memory"
)

// ReadAny deserializes an index in either on-disk format, dispatching
// on the leading magic bytes — callers need not know whether a file is
// PIDC or PIDM. Both paths verify every checksum. For PIDM files on
// disk prefer OpenAny/Open, which map the file instead of copying it.
func ReadAny(r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("label: reading index magic: %w", err)
	}
	switch string(magic) {
	case compactMagic:
		return ReadCompact(br)
	case mmapMagic:
		return readPIDMStream(br)
	default:
		return nil, fmt.Errorf("label: unrecognized index magic %q (want PIDC or PIDM)", magic)
	}
}

// OpenAny loads the index at path through the cheapest route its format
// allows: PIDM files are memory-mapped zero-copy via Open (O(1)
// start-up, no section checksum — see Open), PIDC files are
// heap-decoded with full verification via ReadAny. The format is
// sniffed from the file contents; extensions are irrelevant.
func OpenAny(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("label: reading index magic: %w", err)
	}
	if string(magic[:]) == mmapMagic {
		f.Close()
		return Open(path)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	defer f.Close()
	return ReadAny(f)
}
