package server

// Wire codec for the two distance endpoints. GET /query and POST /batch
// are the request paths a client pays for per pair, so they skip
// reflection: request bytes are scanned in place, replies are appended
// into pooled buffers with strconv, and the bytes on the wire are the
// ones json.Encoder writes for queryResponse / batchResponse.
//
// The scanners only ever accept the canonical shape of a request. On
// anything else they hand the same input to the standard library
// (url.ParseQuery, encoding/json), so there is no second grammar whose
// accept/reject decisions must track the first; FuzzBatchBody and
// FuzzQueryParams check that the two paths agree.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"parapll/internal/graph"
)

// maxPooledWire caps, in bytes, the buffers the codec keeps pooled: one
// near-limit batch must not pin megabytes per P after it is answered.
const maxPooledWire = 1 << 20

var (
	// bytesPool holds *[]byte: a /batch body, then its reply; a /query reply.
	bytesPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}
	// pairsPool holds *[][2]graph.Vertex: decoded /batch pairs.
	pairsPool = sync.Pool{New: func() any { p := make([][2]graph.Vertex, 0, 64); return &p }}
)

// putWire empties *s and returns it to pool, or drops it when its
// capacity grew past maxPooledWire.
func putWire[T any](pool *sync.Pool, s *[]T) {
	var zero T
	if cap(*s)*int(unsafe.Sizeof(zero)) > maxPooledWire {
		return
	}
	*s = (*s)[:0]
	pool.Put(s)
}

// writeWire sends a complete 200 JSON reply. It sets no Content-Length,
// as writeJSON does not: net/http adds one itself when the reply fits
// its buffer and chunks a larger one.
func writeWire(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// appendDist appends d as the wire encodes it: -1 for unreachable.
func appendDist(b []byte, d graph.Dist) []byte {
	if d == graph.Inf {
		return append(b, "-1"...)
	}
	return strconv.AppendUint(b, uint64(d), 10)
}

// appendQueryReply appends the /query reply for d(s,t) = d.
func appendQueryReply(b []byte, s, t graph.Vertex, d graph.Dist) []byte {
	b = append(b, `{"s":`...)
	b = strconv.AppendInt(b, int64(s), 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, int64(t), 10)
	b = append(b, `,"dist":`...)
	b = appendDist(b, d)
	b = append(b, `,"reachable":`...)
	b = strconv.AppendBool(b, d != graph.Inf)
	return append(b, "}\n"...)
}

// appendBatchReply appends the /batch reply for dists.
func appendBatchReply(b []byte, dists []graph.Dist) []byte {
	b = append(b, `{"dists":[`...)
	for i, d := range dists {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendDist(b, d)
	}
	return append(b, "]}\n"...)
}

// readBody appends all of r to buf. The buffer grows only with the
// bytes that arrive, never with the Content-Length a client claims, so
// a request that announces a large body and sends a few bytes costs a
// few bytes; the pooled buffer keeps its capacity between requests.
func readBody(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// queryParam returns the first value of key in the raw query q when
// the fast path can vouch for it: q needs no unescaping (no '%' or '+')
// and has no ';' (which url.ParseQuery drops segments for), and the
// value is 1–10 ASCII digits. Otherwise ok is false and the caller asks
// url.Values, which then returns the same string or a different verdict.
func queryParam(q, key string) (v string, ok bool) {
	if strings.ContainsAny(q, "%+;") {
		return "", false
	}
	for q != "" {
		var seg string
		seg, q, _ = strings.Cut(q, "&")
		k, v, _ := strings.Cut(seg, "=")
		if k != key {
			continue
		}
		if len(v) == 0 || len(v) > 10 {
			return "", false
		}
		for i := 0; i < len(v); i++ {
			if v[i] < '0' || v[i] > '9' {
				return "", false
			}
		}
		return v, true
	}
	return "", false
}

// parseVertex reads vertex parameter name from u's query and checks it
// against [0,n).
func parseVertex(u *url.URL, name string, n int) (graph.Vertex, error) {
	raw, ok := queryParam(u.RawQuery, name)
	if !ok {
		raw = u.Query().Get(name)
	}
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad vertex %q", raw)
	}
	if v < 0 || int(v) >= n {
		return 0, fmt.Errorf("vertex %d out of range [0,%d)", v, n)
	}
	return graph.Vertex(v), nil
}

// decodeBatch decodes a /batch body into dst (reusing its storage).
// The canonical shape goes through scanPairs; every other input is
// decoded by encoding/json from the same bytes, so both paths accept
// exactly what encoding/json accepts. On top of that, each pair must be
// exactly two integers: encoding/json would pad [3] to [3,0] and cut
// [3,4,5] to [3,4]. The returned error is the client-facing message.
func decodeBatch(dst [][2]graph.Vertex, body []byte) ([][2]graph.Vertex, error) {
	if pairs, ok := scanPairs(dst[:0], body); ok {
		return pairs, nil
	}
	var req batchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return dst[:0], fmt.Errorf("bad body: %v", err)
	}
	// The typed decode succeeded, so every pair is null or an array
	// whose first two elements are numbers or null; only the shape is
	// left to check.
	var shape struct {
		Pairs [][]json.RawMessage `json:"pairs"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&shape); err != nil {
		return dst[:0], fmt.Errorf("bad body: %v", err)
	}
	for i, p := range shape.Pairs {
		if len(p) != 2 || string(p[0]) == "null" || string(p[1]) == "null" {
			return dst[:0], fmt.Errorf("pair %d: want [s,t]", i)
		}
	}
	return append(dst[:0], req.Pairs...), nil
}

// scanPairs parses the canonical /batch body, {"pairs":[[s,t],...]}
// with any JSON whitespace and s, t plain decimal int32s, appending to
// dst. ok is false for any other input, including valid JSON that
// encoding/json reads differently (escaped or case-variant keys,
// duplicate keys, trailing data) — the caller must decode it instead.
func scanPairs(dst [][2]graph.Vertex, b []byte) (pairs [][2]graph.Vertex, ok bool) {
	const head = `"pairs"`
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return dst, false
	}
	i = skipSpace(b, i+1)
	if !bytes.HasPrefix(b[i:], []byte(head)) {
		return dst, false
	}
	if i, ok = expect(b, i+len(head), ':'); !ok {
		return dst, false
	}
	if i, ok = expect(b, i, '['); !ok {
		return dst, false
	}
	if j, ok := expect(b, i, ']'); ok {
		i = j
	} else {
		for {
			var s, t graph.Vertex
			if i, ok = expect(b, i, '['); !ok {
				return dst, false
			}
			if s, i, ok = scanVertex(b, i); !ok {
				return dst, false
			}
			if i, ok = expect(b, i, ','); !ok {
				return dst, false
			}
			if t, i, ok = scanVertex(b, i); !ok {
				return dst, false
			}
			if i, ok = expect(b, i, ']'); !ok {
				return dst, false
			}
			dst = append(dst, [2]graph.Vertex{s, t})
			if i, ok = expect(b, i, ','); !ok {
				break
			}
		}
		if i, ok = expect(b, i, ']'); !ok {
			return dst, false
		}
	}
	if i, ok = expect(b, i, '}'); !ok {
		return dst, false
	}
	return dst, skipSpace(b, i) == len(b)
}

// skipSpace returns the index of the first non-whitespace byte of b at
// or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// expect skips whitespace from i and then byte c, returning the index
// after c, or ok = false (and an index at the unexpected byte).
func expect(b []byte, i int, c byte) (int, bool) {
	i = skipSpace(b, i)
	if i < len(b) && b[i] == c {
		return i + 1, true
	}
	return i, false
}

// scanVertex skips whitespace from i and reads -?(0|[1-9][0-9]*)
// within int32 range, returning the index after it. It refuses -0 and
// leading zeros, and leaves a fraction or exponent unread so the
// caller's next expect fails.
func scanVertex(b []byte, i int) (graph.Vertex, int, bool) {
	i = skipSpace(b, i)
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v uint64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + uint64(c)
	}
	digits := i - start
	if digits == 0 || digits > 10 || (b[start] == '0' && (digits > 1 || neg)) {
		return 0, i, false
	}
	if neg {
		if v > -math.MinInt32 {
			return 0, i, false
		}
		return graph.Vertex(-int64(v)), i, true
	}
	if v > math.MaxInt32 {
		return 0, i, false
	}
	return graph.Vertex(v), i, true
}
