package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"parapll/internal/graph"
)

// seedBatchBodies are /batch bodies on both sides of the wire codec's
// fast path: canonical bodies it parses itself, and valid or invalid
// JSON it must hand to encoding/json.
var seedBatchBodies = []string{
	`{"pairs":[[0,1],[2,3]]}`,
	" { \"pairs\" : [ [ 0 , 1 ] ,\n\t[2,3] ] } \r\n",
	`{"pairs":[]}`,
	`{"pairs":[[-2147483648,2147483647]]}`,
	`{"PAIRS":[[0,1]]}`,
	`{"pairs":[[0,1]]}`,
	`{"pairs":[[0,1]],"pairs":[[2,3]]}`,
	`{"pairs":[[0,1,2]],"pairs":[[2,3]]}`,
	`{"other":1,"pairs":[[0,1]]}`,
	`{"pairs":null}`,
	`{"pairs":[null]}`,
	`{"pairs":[[1,null]]}`,
	`{"pairs":[[1e2,3]]}`,
	`{"pairs":[[1.5,3]]}`,
	`{"pairs":[[-0,1]]}`,
	`{"pairs":[[007,1]]}`,
	`{"pairs":[[2147483648,1]]}`,
	`{"pairs":[[3]]}`,
	`{"pairs":[[]]}`,
	`{"pairs":[[3,4,5]]}`,
	`{"pairs":[["0",1]]}`,
	`{"pairs":[[0,1],]}`,
	`{"pairs":[[0,1]]} trailing`,
	`{"pairs":[[0,1]]}{"pairs":[[2,3]]}`,
	`{}`,
	`{nope`,
	``,
}

// seedRawQueries are /query raw query strings on both sides of the
// fast path: plain digit values, and unescaping, ';' segments, '+',
// repeats and values url.ParseQuery or ParseInt read differently.
var seedRawQueries = []string{
	"s=1&t=2",
	"t=2&s=1",
	"s=007&t=2",
	"%73=1&t=2",
	"s=%31&t=2",
	"s=1;t=2",
	"s=+5&t=1",
	"s=1&s=2&t=3",
	"s=&t=1",
	"s&t=1",
	"t=1",
	"s=2147483647&t=0",
	"s=2147483648&t=0",
	"s=99999999999&t=0",
	"s=-1&t=0",
	"s==1&t=2",
	"&&s=3&&t=4&",
	"s=1%26t=2",
	"",
}

// refBatch is the reference /batch decoder: encoding/json into
// batchRequest, plus the arity rule (every pair exactly two numbers),
// checked on an untyped decode of the same bytes.
func refBatch(body []byte) ([][2]graph.Vertex, bool) {
	var req batchRequest
	if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
		return nil, false
	}
	var shape struct {
		Pairs []any `json:"pairs"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if dec.Decode(&shape) != nil {
		return nil, false
	}
	for _, p := range shape.Pairs {
		pair, ok := p.([]any)
		if !ok || len(pair) != 2 {
			return nil, false
		}
		for _, e := range pair {
			if _, ok := e.(json.Number); !ok {
				return nil, false
			}
		}
	}
	return req.Pairs, true
}

func samePairs(a, b [][2]graph.Vertex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzBatchBody checks that the /batch codec and the reference decoder
// agree on accept or reject and on the decoded pairs, and that every
// body the fast path claims is one the reference accepts identically.
func FuzzBatchBody(f *testing.F) {
	for _, b := range seedBatchBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, ok := refBatch(body)
		got, err := decodeBatch(nil, body)
		if (err == nil) != ok {
			t.Fatalf("%q: codec err %v, reference accepts %v", body, err, ok)
		}
		if ok && !samePairs(got, want) {
			t.Fatalf("%q: codec %v, reference %v", body, got, want)
		}
		if fast, claimed := scanPairs(nil, body); claimed && (!ok || !samePairs(fast, want)) {
			t.Fatalf("%q: fast path claimed %v, reference %v (accepts %v)", body, fast, want, ok)
		}
	})
}

// refVertex is the reference /query parameter reader: url.Values then
// ParseInt, with parseVertex's messages.
func refVertex(u *url.URL, name string, n int) (graph.Vertex, error) {
	raw := u.Query().Get(name)
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

// FuzzQueryParams checks that vertexParam's reader gives the
// reference's vertex or error for any raw query, and that the fast
// path, where it answers, returns exactly url.Values' string.
func FuzzQueryParams(f *testing.F) {
	for _, q := range seedRawQueries {
		f.Add(q)
	}
	const n = 1 << 20
	f.Fuzz(func(t *testing.T, q string) {
		u := &url.URL{RawQuery: q}
		for _, name := range []string{"s", "t"} {
			got, gerr := parseVertex(u, name, n)
			want, werr := refVertex(u, name, n)
			if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%q %s: got (%d, %v), want (%d, %v)", q, name, got, gerr, want, werr)
			}
			if raw, ok := queryParam(q, name); ok && raw != u.Query().Get(name) {
				t.Fatalf("%q %s: fast path %q, url.Values %q", q, name, raw, u.Query().Get(name))
			}
		}
	})
}

// TestRegenFuzzCorpus writes the seed bodies and queries as go-fuzz
// corpus files under testdata/fuzz. It is a no-op unless
// PARAPLL_REGEN_CORPUS=1, so the checked-in corpus stays reproducible
// from the seed lists above.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("PARAPLL_REGEN_CORPUS") != "1" {
		t.Skip("set PARAPLL_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	write := func(target, prefix string, seeds []string, typ string) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n%s(%q)\n", typ, s)
			name := filepath.Join(dir, fmt.Sprintf("%s-%02d", prefix, i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("FuzzBatchBody", "seed-body", seedBatchBodies, "[]byte")
	write("FuzzQueryParams", "seed-query", seedRawQueries, "string")
}
