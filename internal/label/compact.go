package label

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"

	"parapll/internal/graph"
)

// Compact on-disk index format ("PIDC"): hubs are sorted per vertex, so
// they delta-encode as small varints, and most distances are small too.
// On typical indexes this is 2–4x smaller than the fixed-width PIDM
// format at slightly higher encode/decode cost — the right trade for
// shipping indexes between the indexing and querying stages across
// machines, which is exactly what the paper's cluster deployment does.

const compactMagic = "PIDC"
const compactVersion = 1

// WriteCompact serializes the index in the varint-delta format.
func (x *Index) WriteCompact(w io.Writer) error {
	defer runtime.KeepAlive(x) // the arrays may alias a finalizer-managed mapping
	bw := bufio.NewWriterSize(w, 1<<20)
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(bw, crc)
	if _, err := mw.Write([]byte(compactMagic)); err != nil {
		return err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], compactVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(x.NumVertices()))
	if _, err := mw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := mw.Write(buf[:n])
		return err
	}
	for v := 0; v < x.NumVertices(); v++ {
		hubs, dists := x.Label(graph.Vertex(v))
		if err := putUvarint(uint64(len(hubs))); err != nil {
			return err
		}
		prev := int64(-1)
		for i, h := range hubs {
			if err := putUvarint(uint64(int64(h) - prev - 1)); err != nil {
				return err
			}
			prev = int64(h)
			if err := putUvarint(uint64(dists[i])); err != nil {
				return err
			}
		}
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := bw.Write(sum[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCompact deserializes an index written by WriteCompact, verifying
// the checksum and structural invariants (sorted, in-range hubs). A
// corrupt header or hub delta is an error, never a panic or an
// allocation sized by the claim.
func ReadCompact(r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	crc := crc32.NewIEEE()
	tr := &teeByteReader{r: br, crc: crc}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(tr, magic); err != nil {
		return nil, err
	}
	if string(magic) != compactMagic {
		return nil, fmt.Errorf("label: bad compact magic %q", magic)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(tr, hdr[:]); err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != compactVersion {
		return nil, fmt.Errorf("label: unsupported compact version %d", v)
	}
	// Bounded like parsePIDM, and never allocated up front: off grows
	// one vertex at a time, so memory follows the bytes actually read
	// rather than the header's claim.
	nv := binary.LittleEndian.Uint64(hdr[4:12])
	if nv > math.MaxInt32 {
		return nil, fmt.Errorf("label: compact: vertex count %d overflows", nv)
	}
	n := int(nv)
	x := &Index{off: []int64{0}, format: FormatCompact}
	for v := 0; v < n; v++ {
		count, err := binary.ReadUvarint(tr)
		if err != nil {
			return nil, fmt.Errorf("label: vertex %d: %w", v, err)
		}
		prev := int64(-1)
		for i := uint64(0); i < count; i++ {
			dh, err := binary.ReadUvarint(tr)
			if err != nil {
				return nil, err
			}
			// hub = prev+1+dh must stay below n; compare before adding,
			// since a huge dh would wrap the sum negative.
			if dh >= uint64(int64(n)-1-prev) {
				return nil, fmt.Errorf("label: vertex %d: hub delta %d past vertex count %d", v, dh, n)
			}
			hub := prev + 1 + int64(dh)
			prev = hub
			d, err := binary.ReadUvarint(tr)
			if err != nil {
				return nil, err
			}
			if d >= uint64(graph.Inf) {
				return nil, fmt.Errorf("label: vertex %d: distance overflow", v)
			}
			x.hubs = append(x.hubs, graph.Vertex(hub))
			x.dists = append(x.dists, graph.Dist(d))
		}
		x.off = append(x.off, int64(len(x.hubs)))
	}
	want := crc.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("label: compact checksum mismatch: file %08x, computed %08x", got, want)
	}
	return x, nil
}

// teeByteReader is an io.ByteReader + io.Reader that mirrors all read
// bytes into the checksum (binary.ReadUvarint needs ByteReader, which
// io.TeeReader does not provide).
type teeByteReader struct {
	r   *bufio.Reader
	crc io.Writer
}

func (t *teeByteReader) ReadByte() (byte, error) {
	b, err := t.r.ReadByte()
	if err == nil {
		t.crc.Write([]byte{b})
	}
	return b, err
}

func (t *teeByteReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.crc.Write(p[:n])
	}
	return n, err
}
