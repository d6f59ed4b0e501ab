package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one closed-loop client: a single keep-alive connection that sends
// its next request only after the previous answer has been read and checked.
// Requests, body readers and the response buffer are allocated once.
type conn struct {
	client     *http.Client
	probeReq   *http.Request
	insertReq  *http.Request
	body       *bytes.Reader
	resp       []byte
	sel        []uint32
	seen       []uint64
	wireBytes  *atomic.Int64
	onResponse func(b *batch, start, end time.Time) // traced runs only
}

// errAnswer marks a request that completed but whose answer is wrong: a
// false negative, a malformed selection vector or a short insert count.
var errAnswer = errors.New("wrong answer")

// countingConn counts the bytes a connection moves in both directions.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func newConn(base, filter string, maxBatch int) *conn {
	c := &conn{
		body:      bytes.NewReader(nil),
		resp:      make([]byte, 4*maxBatch+512),
		sel:       make([]uint32, 0, maxBatch),
		seen:      make([]uint64, (maxBatch+63)/64),
		wireBytes: new(atomic.Int64),
	}
	dialer := &net.Dialer{}
	c.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			nc, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{nc, c.wireBytes}, nil
		},
	}}
	mk := func(op string) *http.Request {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/filters/"+filter+"/"+op, nil)
		if err != nil {
			panic(err) // the URL is built from constants and a loopback address
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Body = io.NopCloser(c.body)
		// A fixed Host header keeps the bytes on the wire independent of
		// the port the server happened to get.
		req.Host = "filter-server"
		return req
	}
	c.probeReq, c.insertReq = mk("probe"), mk("insert")
	return c
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// answer is what one checked request reports.
type answer struct {
	latency  time.Duration
	falseNeg int // probes: inserted keys missing from the selection vector
	falsePos int // probes: absent keys reported as maybe-contained
}

// send issues one batch and checks its answer. The latency covers the
// request until its last response byte was read; checking is not timed.
func (c *conn) send(b *batch) (answer, error) {
	req := c.probeReq
	if b.insert {
		req = c.insertReq
	}
	c.body.Reset(b.body)
	req.ContentLength = int64(len(b.body))
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return answer{}, err
	}
	n, rerr := readFull(resp.Body, c.resp)
	resp.Body.Close()
	end := time.Now()
	a := answer{latency: end.Sub(start)}
	if c.onResponse != nil {
		c.onResponse(b, start, end)
	}
	if rerr != nil {
		return a, fmt.Errorf("read response: %w", rerr)
	}
	if resp.StatusCode/100 != 2 {
		return a, fmt.Errorf("%w: status %d: %s", errAnswer, resp.StatusCode, bytes.TrimSpace(c.resp[:n]))
	}
	if b.insert {
		return a, checkInserted(c.resp[:n], b.keys())
	}
	want, err := strconv.Atoi(resp.Header.Get("X-Selected"))
	if err != nil || n != 4*want {
		return a, fmt.Errorf("%w: short read: %d bytes for X-Selected %q", errAnswer, n, resp.Header.Get("X-Selected"))
	}
	c.sel = c.sel[:0]
	for i := 0; i < n; i += 4 {
		c.sel = append(c.sel, binary.LittleEndian.Uint32(c.resp[i:]))
	}
	a.falseNeg, a.falsePos, err = checkSel(b, c.sel, c.seen)
	return a, err
}

// readFull reads r to EOF into buf; a body larger than buf is an error.
func readFull(r io.Reader, buf []byte) (int, error) {
	n := 0
	for {
		if n == len(buf) {
			var one [1]byte
			if m, _ := r.Read(one[:]); m > 0 {
				return n, errors.New("response larger than any valid answer")
			}
			return n, nil
		}
		m, err := r.Read(buf[n:])
		n += m
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// checkSel verifies a probe's selection vector: strictly ascending
// positions inside the batch that include every inserted key. Any false
// negative is an error; false positives (absent keys reported as
// maybe-contained) are only counted.
func checkSel(b *batch, sel []uint32, seen []uint64) (falseNeg, falsePos int, err error) {
	keys := b.keys()
	seen = seen[:(keys+63)/64]
	clear(seen)
	prev := -1
	for _, p := range sel {
		if int(p) <= prev || int(p) >= keys {
			return 0, 0, fmt.Errorf("%w: selection vector not ascending or out of range at %d", errAnswer, p)
		}
		prev = int(p)
		seen[p/64] |= 1 << (p % 64)
	}
	for i, want := range b.present {
		falseNeg += bits.OnesCount64(want &^ seen[i])
		falsePos += bits.OnesCount64(seen[i] &^ want)
	}
	if falseNeg > 0 {
		return falseNeg, falsePos, fmt.Errorf("%w: %d false negatives", errAnswer, falseNeg)
	}
	return 0, falsePos, nil
}

// checkInserted verifies an insert answer {"count":N,"inserted":M} reports
// every key of the batch as inserted.
func checkInserted(body []byte, keys int) error {
	const field = `"inserted":`
	i := bytes.Index(body, []byte(field))
	if i < 0 {
		return fmt.Errorf("%w: insert answer without inserted count: %s", errAnswer, body)
	}
	rest := body[i+len(field):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	got, err := strconv.Atoi(string(rest[:j]))
	if err != nil || got != keys {
		return fmt.Errorf("%w: inserted %q of %d keys", errAnswer, rest[:j], keys)
	}
	return nil
}

// tally is one connection's record of a driven phase.
type tally struct {
	probeLat, insertLat   []int64 // ns per request
	probeKeys, insertKeys int
	attempted, failed     int
	falseNeg, falsePos    int
	firstErr              error
}

func newTally(capacity int) *tally {
	return &tally{probeLat: make([]int64, 0, capacity), insertLat: make([]int64, 0, capacity)}
}

func (t *tally) add(o *tally) {
	t.probeLat = append(t.probeLat, o.probeLat...)
	t.insertLat = append(t.insertLat, o.insertLat...)
	t.probeKeys += o.probeKeys
	t.insertKeys += o.insertKeys
	t.attempted += o.attempted
	t.failed += o.failed
	t.falseNeg += o.falseNeg
	t.falsePos += o.falsePos
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// record books one request's outcome. A transport error ends the phase for
// this connection: the server is gone or the connection is broken.
func (t *tally) record(b *batch, a answer, err error) (stop bool) {
	t.attempted++
	t.falseNeg += a.falseNeg
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return !errors.Is(err, errAnswer)
	}
	if b.insert {
		t.insertLat = append(t.insertLat, int64(a.latency))
		t.insertKeys += b.keys()
	} else {
		t.probeLat = append(t.probeLat, int64(a.latency))
		t.probeKeys += b.keys()
		t.falsePos += a.falsePos
	}
	return false
}

// drive runs every connection as a closed loop that sends its batch
// sequence exactly once (fixed work) and returns once all have stopped.
// capacity presizes each connection's latency records. elapsed runs from
// the start until the last connection's last answer.
func drive(conns []*conn, seqs [][]*batch, capacity int) (sum *tally, elapsed time.Duration) {
	tallies := make([]*tally, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range conns {
		tallies[i] = newTally(capacity)
		wg.Add(1)
		go func(c *conn, seq []*batch, t *tally) {
			defer wg.Done()
			for _, b := range seq {
				a, err := c.send(b)
				if t.record(b, a, err) {
					return
				}
			}
		}(conns[i], seqs[i], tallies[i])
	}
	wg.Wait()
	elapsed = time.Since(start)
	sum = newTally(0)
	for _, t := range tallies {
		sum.add(t)
	}
	return sum, elapsed
}

// batchesOf splits keys into probe batches with no inserted-key bitset,
// for verification passes that count positives themselves.
func batchesOf(keys []uint32, size int, present bool) []*batch {
	var out []*batch
	for off := 0; off < len(keys); off += size {
		end := min(off+size, len(keys))
		b := &batch{body: encodeKeys(keys[off:end])}
		b.present = make([]uint64, (end-off+63)/64)
		if present {
			for i := 0; i < end-off; i++ {
				b.present[i/64] |= 1 << (i % 64)
			}
		}
		out = append(out, b)
	}
	return out
}
