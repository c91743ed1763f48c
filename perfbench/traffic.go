package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"

	"parapll/internal/graph"
)

// client talks to one server over keep-alive connections.
type client struct {
	hc   *http.Client
	base string
	buf  sync.Pool // response bodies
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{
		hc:   &http.Client{Transport: tr, Timeout: time.Minute},
		base: "http://" + addr,
		buf:  sync.Pool{New: func() any { return new(bytes.Buffer) }},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends req and decodes a 200 reply into out.
func (c *client) do(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	b := c.buf.Get().(*bytes.Buffer)
	defer c.buf.Put(b)
	b.Reset()
	_, err = io.Copy(b, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(b.Bytes()))
	}
	return json.Unmarshal(b.Bytes(), out)
}

func itoa(v graph.Vertex) string { return strconv.Itoa(int(v)) }

func (c *client) query(s, t graph.Vertex) (int64, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/query?s="+itoa(s)+"&t="+itoa(t), nil)
	if err != nil {
		return 0, err
	}
	var out struct {
		Dist int64 `json:"dist"`
	}
	return out.Dist, c.do(req, &out)
}

// batchBody encodes a /batch request.
func batchBody(pairs [][2]graph.Vertex) []byte {
	b := append(make([]byte, 0, 16*len(pairs)), `{"pairs":[`...)
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(p[0]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p[1]), 10)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

func (c *client) batch(body []byte, want int) ([]int64, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var out struct {
		Dists []int64 `json:"dists"`
	}
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	if len(out.Dists) != want {
		return nil, fmt.Errorf("/batch answered %d of %d pairs", len(out.Dists), want)
	}
	return out.Dists, nil
}

func (c *client) update(e graph.Edge) error {
	body := fmt.Sprintf(`{"u":%d,"v":%d,"w":%d}`, e.U, e.V, e.W)
	req, err := http.NewRequest(http.MethodPost, c.base+"/update", bytes.NewReader([]byte(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	var out struct {
		Status string `json:"status"`
	}
	if err := c.do(req, &out); err != nil {
		return err
	}
	if out.Status != "ok" {
		return fmt.Errorf("/update status %q", out.Status)
	}
	return nil
}

// op is one operation answered inside the measured window.
type op struct {
	at    time.Duration // send (closed loop) or due (open loop) time, since the window opened
	lat   time.Duration // from send (closed loop) or from due time (open loop)
	send  time.Duration // from send, both loops: the layer split uses it
	pairs int32         // distances answered
}

// tally is what one sender measured.
type tally struct {
	ops  []op
	late durations // open loop: how late an idle generator sent
	// Trace runs record a span per request in every other one-second
	// slice; comparing the two halves gives the tracing overhead.
	spans []span

	attempted, failed, wrong int64
	firstErr                 error
}

// span is one client request as the traced run records it, relative
// to the window's opening.
type span struct{ start, end time.Duration }

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o *tally) {
	t.ops = append(t.ops, o.ops...)
	t.late = append(t.late, o.late...)
	t.spans = append(t.spans, o.spans...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// traced reports whether an operation at this offset fell in a traced
// slice.
func traced(at time.Duration) bool { return int(at/time.Second)%2 == 1 }

// latencies returns the operations' latencies; keep selects a subset.
func latencies(ops []op, send bool, keep func(op) bool) durations {
	out := make(durations, 0, len(ops))
	for _, o := range ops {
		if keep != nil && !keep(o) {
			continue
		}
		if send {
			out = append(out, o.send)
		} else {
			out = append(out, o.lat)
		}
	}
	return out
}

// slices is how many equal parts of the window the end-to-end figures
// are computed over; each figure is the median over the parts, so a
// short burst of interference from outside moves it little.
const slices = 10

// sliced returns the median over the window's slices of f applied to
// the operations of each slice.
func sliced(ops []op, window time.Duration, f func(part []op, secs float64) float64) float64 {
	parts := make([][]op, slices)
	for _, o := range ops {
		i := int(int64(o.at) * slices / int64(window))
		if i >= 0 && i < slices {
			parts[i] = append(parts[i], o)
		}
	}
	vals := make([]float64, 0, slices)
	for _, p := range parts {
		if len(p) > 0 {
			vals = append(vals, f(p, window.Seconds()/slices))
		}
	}
	return median(vals)
}

func quantileOf(q float64) func([]op, float64) float64 {
	return func(p []op, _ float64) float64 { return latencies(p, false, nil).quantile(q) }
}

func pairsPerSecond(p []op, secs float64) float64 {
	var n int64
	for _, o := range p {
		n += int64(o.pairs)
	}
	return float64(n) / secs
}

// window is a run's timeline: warm-up from start to open, measured
// operations from open to end.
type window struct {
	start, open, end time.Time
	trace            bool
}

// record files one operation's timings; due is the zero time in a
// closed loop, and idle says the open-loop sender waited for due.
func (w window) record(t *tally, due, sent, done time.Time, idle bool, pairs int) {
	ref := sent
	if !due.IsZero() {
		ref = due
	}
	if ref.Before(w.open) {
		return
	}
	o := op{at: ref.Sub(w.open), lat: done.Sub(ref), send: done.Sub(sent), pairs: int32(pairs)}
	t.ops = append(t.ops, o)
	if idle {
		t.late = append(t.late, sent.Sub(due))
	}
	if w.trace && traced(o.at) {
		t.spans = append(t.spans, span{start: sent.Sub(w.open), end: done.Sub(w.open)})
	}
}

// closedLoop runs one client per connection, each sending its next
// request as soon as the previous one is answered, until the window
// ends.
func closedLoop(c *client, wl workload, n int, seed int64, gt *gate, w window) *tally {
	parts := make([]tally, wl.conns)
	var wg sync.WaitGroup
	for i := 0; i < wl.conns; i++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			t := &parts[conn]
			ps := newPairStream(n, wl, seed, conn)
			for time.Now().Before(w.end) {
				if wl.batch {
					pairs := ps.take(batchPairs)
					body := batchBody(pairs)
					t.attempted++
					sent := time.Now()
					dists, err := c.batch(body, len(pairs))
					done := time.Now()
					if err != nil {
						t.fail(err)
						continue
					}
					for k, p := range pairs {
						if !gt.check(p[0], p[1], dists[k]) {
							t.wrong++
						}
					}
					w.record(t, time.Time{}, sent, done, false, len(pairs))
					continue
				}
				p := ps.next()
				t.attempted++
				sent := time.Now()
				d, err := c.query(p[0], p[1])
				done := time.Now()
				if err != nil {
					t.fail(err)
					continue
				}
				if !gt.check(p[0], p[1], d) {
					t.wrong++
				}
				w.record(t, time.Time{}, sent, done, false, 1)
			}
		}(i)
	}
	wg.Wait()
	var all tally
	for i := range parts {
		all.merge(&parts[i])
	}
	return &all
}

// waitUntil blocks until due and reports whether it had to wait. It
// never sleeps when the schedule is behind, and it waits with
// nanosleep(2), which overshoots by tens of microseconds where a Go
// timer overshoots by about a millisecond on a 2-vCPU host.
func waitUntil(due time.Time) bool {
	waited := false
	for {
		d := time.Until(due)
		if d <= 0 {
			return waited
		}
		waited = true
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the clock
	}
}

// openLoop calls send for operation i at start + i/rate until end. The
// schedule is fixed in advance, so a stall delays every operation due
// behind it and each one is timed from its due time. idle tells send
// that the sender waited for the due time, so any lateness is the
// generator's own and not a queue behind a slow reply.
func openLoop(rate float64, start, end time.Time, send func(due time.Time, idle bool)) {
	period := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(end) {
			return
		}
		idle := waitUntil(due)
		send(due, idle)
	}
}

// livingResult is what the living-social traffic produced.
type livingResult struct {
	reads, writes *tally
	answers       []read       // every /query answer, for the bound check
	acked         []graph.Edge // acknowledged inserts, in order
}

// livingLoop sends open-loop reads on one connection from w.start and
// open-loop writes on the other from w.open, both until w.end.
func livingLoop(c *client, wl workload, n int, seed int64, w window) *livingResult {
	res := &livingResult{reads: &tally{}, writes: &tally{}}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ps := newPairStream(n, wl, seed, 0)
		t := res.reads
		openLoop(queryRate, w.start, w.end, func(due time.Time, idle bool) {
			p := ps.next()
			t.attempted++
			sent := time.Now()
			d, err := c.query(p[0], p[1])
			done := time.Now()
			if err != nil {
				t.fail(err)
				return
			}
			res.answers = append(res.answers, read{s: p[0], t: p[1], d: d})
			w.record(t, due, sent, done, idle, 1)
		})
	}()
	go func() {
		defer wg.Done()
		us := newUpdateStream(n, seed, 0)
		t := res.writes
		openLoop(updateRate, w.open, w.end, func(due time.Time, idle bool) {
			e := us.next()
			t.attempted++
			sent := time.Now()
			err := c.update(e)
			done := time.Now()
			if err != nil {
				t.fail(err)
				return
			}
			res.acked = append(res.acked, e)
			w.record(t, due, sent, done, idle, 0)
		})
	}()
	wg.Wait()
	return res
}
