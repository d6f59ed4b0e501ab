package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"perfilter"
	"perfilter/internal/obs"
	"perfilter/internal/server"
	"perfilter/internal/sharded"
)

// The traced run pushes the workload's identical batches through each
// layer's public entry point, one layer at a time and on one goroutine:
//
//	kernel   perfilter.New(cfg, bits)                     Insert / ContainsBatch
//	sharded  perfilter.NewSharded(cfg, bits, shards)      InsertBatch / ContainsBatch
//	adaptive perfilter.NewAdaptive(cfg, bits, opts)       InsertBatch / ContainsBatch
//	server   server.New(opts).Handler().ServeHTTP         POST insert / probe, no socket
//	wire     http.Client round trip to filter-server      over loopback
//
// Each outer layer calls the next inner one, so a layer's self time is its
// per-key time minus the next inner layer's on the same batches. Spans of
// one batch share its trace id; a span's parent names the layer that wraps
// it. The layers run as separate calls, so the parent is the logical caller,
// not an enclosing interval.
var layerOrder = []string{"kernel", "sharded", "adaptive", "server", "wire"}

var layerParent = map[string]string{
	"kernel": "sharded", "sharded": "adaptive", "adaptive": "server", "server": "wire",
}

// span is one timed call. Start and End are nanoseconds since the run began.
type span struct {
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Keys   int    `json:"keys"`
}

// loadgenTraceBase offsets the end-to-end requests' trace ids from the
// layer batches' (which are batch indices).
const loadgenTraceBase = 1 << 30

// maxSpans bounds the in-memory span buffer; later spans are counted as
// dropped instead of growing it during a timed loop.
const maxSpans = 1 << 17

// spanLog keeps spans in a preallocated buffer until the run ends.
type spanLog struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (l *spanLog) add(trace int, name, parent string, start, end time.Time, keys int) {
	l.mu.Lock()
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, span{trace, name, parent,
			start.Sub(l.t0).Nanoseconds(), end.Sub(l.t0).Nanoseconds(), keys})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layer is one entry point under measurement. insert and probe time only
// the call into the layer and return that duration; probe then checks the
// answer against the batch's inserted keys.
type layer struct {
	name   string
	insert func(b *batch) (time.Duration, error)
	probe  func(b *batch) (time.Duration, error)
	close  func() // optional
}

// cost is one layer's measured per-key times.
type cost struct {
	InsertNs     float64 `json:"insert_ns_per_key"`
	ProbeNs      float64 `json:"probe_ns_per_key"`
	InsertAllocs float64 `json:"insert_allocs_per_req"`
	ProbeAllocs  float64 `json:"probe_allocs_per_req"`
	ProbeReqs    int     `json:"probe_requests"`
}

// measure times the layer's insert entry point over the insert batches
// and its probe entry point over at least one full pass of the probe
// batches, more passes until budget is spent. With fill set, an untimed
// insert pass comes first, so the timed pass meets a warm, filled filter
// exactly as a layer filled elsewhere does. A layer without insert is
// probed only.
func measure(l *layer, inserts, probes []*batch, fill bool, budget time.Duration, spans *spanLog, res *result) (cost, error) {
	var c cost
	var ms runtime.MemStats
	if l.insert != nil {
		if fill {
			for _, b := range inserts {
				if _, err := l.insert(b); err != nil {
					return c, fmt.Errorf("%s insert: %w", l.name, err)
				}
			}
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		var total time.Duration
		keys := 0
		for i, b := range inserts {
			start := time.Now()
			d, err := l.insert(b)
			res.attempted++
			if err != nil {
				res.failed++
				return c, fmt.Errorf("%s insert: %w", l.name, err)
			}
			total += d
			keys += b.keys()
			spans.add(i, l.name+".insert", parentSpan(l.name, "insert"), start, start.Add(d), b.keys())
		}
		runtime.ReadMemStats(&ms)
		c.InsertAllocs = float64(ms.Mallocs-m0) / float64(len(inserts))
		c.InsertNs = float64(total.Nanoseconds()) / float64(keys)
	}
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	var total time.Duration
	keys := 0
	deadline := time.Now().Add(budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for i, b := range probes {
			start := time.Now()
			d, err := l.probe(b)
			res.attempted++
			if err != nil {
				res.failed++
				return c, fmt.Errorf("%s probe: %w", l.name, err)
			}
			total += d
			keys += b.keys()
			c.ProbeReqs++
			if pass == 0 {
				spans.add(len(inserts)+i, l.name+".probe", parentSpan(l.name, "probe"), start, start.Add(d), b.keys())
			}
		}
	}
	runtime.ReadMemStats(&ms)
	c.ProbeAllocs = float64(ms.Mallocs-m0) / float64(c.ProbeReqs)
	c.ProbeNs = float64(total.Nanoseconds()) / float64(keys)
	return c, nil
}

func parentSpan(layer, op string) string {
	if p, ok := layerParent[layer]; ok {
		return p + "." + op
	}
	return ""
}

// filterLayer wraps anything with the Filter probe surface; insertBatch is
// the layer's own insert entry point.
func filterLayer(name string, f interface {
	ContainsBatch(keys []perfilter.Key, sel []uint32) []uint32
}, insertBatch func(keys []uint32) error, maxBatch int, closeFn func()) *layer {
	sel := make([]uint32, 0, maxBatch)
	seen := make([]uint64, (maxBatch+63)/64)
	l := &layer{name: name, close: closeFn}
	if insertBatch != nil {
		l.insert = func(b *batch) (time.Duration, error) {
			start := time.Now()
			err := insertBatch(b.ks)
			return time.Since(start), err
		}
	}
	l.probe = func(b *batch) (time.Duration, error) {
		start := time.Now()
		sel = f.ContainsBatch(b.ks, sel[:0])
		d := time.Since(start)
		_, _, err := checkSel(b, sel, seen)
		return d, err
	}
	return l
}

// sink is a reusable in-memory ResponseWriter for the server layer.
type sink struct {
	h      http.Header
	status int
	buf    []byte
}

func (s *sink) Header() http.Header { return s.h }
func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}
func (s *sink) Write(p []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	s.buf = append(s.buf, p...)
	return len(p), nil
}
func (s *sink) reset() {
	clear(s.h)
	s.status = 0
	s.buf = s.buf[:0]
}

// serverLayer serves the workload's filter from an in-process server.Server
// through its routed handler, with tracing disabled as on the real server.
func serverLayer(w *workload, maxBatch int) (*layer, error) {
	srv := server.New(server.Options{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Tracer: new(obs.Tracer), // the zero tracer never samples
	})
	h := srv.Handler()
	rec := &sink{h: http.Header{}, buf: make([]byte, 0, 4*maxBatch+512)}
	create, _ := json.Marshal(map[string]any{"name": filterName, "kind": "bloom", "mbits": w.filterBits, "shards": w.shards})
	req, err := http.NewRequest(http.MethodPost, "http://bench/v1/filters", bytes.NewReader(create))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if rec.status != http.StatusCreated {
		return nil, fmt.Errorf("in-process create: status %d: %s", rec.status, rec.buf)
	}
	body := bytes.NewReader(nil)
	mk := func(op string) *http.Request {
		r, err := http.NewRequest(http.MethodPost, "http://bench/v1/filters/"+filterName+"/"+op, nil)
		if err != nil {
			panic(err) // constant URL
		}
		r.Header.Set("Content-Type", "application/octet-stream")
		r.Body = io.NopCloser(body)
		return r
	}
	probeReq, insertReq := mk("probe"), mk("insert")
	serve := func(r *http.Request, b *batch) time.Duration {
		rec.reset()
		body.Reset(b.body)
		r.ContentLength = int64(len(b.body))
		start := time.Now()
		h.ServeHTTP(rec, r)
		return time.Since(start)
	}
	seen := make([]uint64, (maxBatch+63)/64)
	sel := make([]uint32, 0, maxBatch)
	return &layer{
		name: "server",
		insert: func(b *batch) (time.Duration, error) {
			d := serve(insertReq, b)
			if rec.status != http.StatusOK {
				return d, fmt.Errorf("%w: status %d: %s", errAnswer, rec.status, rec.buf)
			}
			return d, checkInserted(rec.buf, b.keys())
		},
		probe: func(b *batch) (time.Duration, error) {
			d := serve(probeReq, b)
			if rec.status != http.StatusOK || len(rec.buf)%4 != 0 {
				return d, fmt.Errorf("%w: status %d, %d body bytes", errAnswer, rec.status, len(rec.buf))
			}
			sel = sel[:0]
			for i := 0; i < len(rec.buf); i += 4 {
				sel = append(sel, binary.LittleEndian.Uint32(rec.buf[i:]))
			}
			_, _, err := checkSel(b, sel, seen)
			return d, err
		},
		// Deleting the filter also drops the per-filter metric series, whose
		// callbacks would otherwise keep it reachable from the global
		// registry.
		close: func() {
			rec.reset()
			del, _ := http.NewRequest(http.MethodDelete, "http://bench/v1/filters/"+filterName, nil)
			h.ServeHTTP(rec, del)
		},
	}, nil
}

// wireLayer drives the real filter-server over one loopback connection.
func wireLayer(c *conn) *layer {
	send := func(b *batch) (time.Duration, error) {
		a, err := c.send(b)
		return a.latency, err
	}
	return &layer{name: "wire", insert: send, probe: send}
}

// kernelLayer is the workload's filter as the sharded layer holds it: the
// per-shard filters an internal/sharded Filter builds through
// perfilter.New, called directly. Every batch is split by that Filter's
// ShardOf before timing, and a call times the kernel calls on each shard's
// part, one after another, on the identical batch. The answer is mapped
// back to batch positions for checking.
func kernelLayer(w *workload, cfg perfilter.Config, inserts, probes []*batch, maxBatch int) (*layer, error) {
	perShard, _ := sharded.SplitBits(w.filterBits, w.shards)
	var shards []perfilter.Filter
	part, err := sharded.New(func() (sharded.Inner, error) {
		f, err := perfilter.New(cfg, perShard)
		if err == nil {
			shards = append(shards, f)
		}
		return f, err
	}, w.shards)
	if err != nil {
		return nil, err
	}
	type parts struct{ keys, pos [][]uint32 }
	split := make(map[*batch]*parts, len(inserts)+len(probes))
	for _, bs := range [][]*batch{inserts, probes} {
		for _, b := range bs {
			pt := &parts{keys: make([][]uint32, len(shards)), pos: make([][]uint32, len(shards))}
			for i, k := range b.ks {
				s := part.ShardOf(k)
				pt.keys[s] = append(pt.keys[s], k)
				pt.pos[s] = append(pt.pos[s], uint32(i))
			}
			split[b] = pt
		}
	}
	sel := make([]uint32, 0, maxBatch)
	all := make([]uint32, 0, maxBatch)
	seen := make([]uint64, (maxBatch+63)/64)
	return &layer{
		name: "kernel",
		insert: func(b *batch) (time.Duration, error) {
			pt := split[b]
			start := time.Now()
			for s, keys := range pt.keys {
				for _, k := range keys {
					if err := shards[s].Insert(k); err != nil {
						return time.Since(start), err
					}
				}
			}
			return time.Since(start), nil
		},
		probe: func(b *batch) (time.Duration, error) {
			pt := split[b]
			var d time.Duration
			all = all[:0]
			for s, keys := range pt.keys {
				start := time.Now()
				sel = shards[s].ContainsBatch(keys, sel[:0])
				d += time.Since(start)
				for _, j := range sel {
					all = append(all, pt.pos[s][j])
				}
			}
			slices.Sort(all)
			_, _, err := checkSel(b, all, seen)
			return d, err
		},
		close: part.Close,
	}, nil
}

// variant is one kernel of the Bloom-vs-Cuckoo comparison.
type variant struct {
	name  string
	build func(bits uint64, keys []uint32) (perfilter.Filter, error)
}

func fill(f perfilter.Filter, keys []uint32) (perfilter.Filter, error) {
	for _, k := range keys {
		if err := f.Insert(k); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// variants are built over the workload's distinct keys at the workload's
// filter size, except where a family cannot be sized that way: the classic
// filter is capped at its 2^31-bit addressing limit, the cuckoo filter gets
// at least the size its load limit needs, and the xor filter is solved from
// the keys at its own ~9.8 bits per key.
var variants = []variant{
	{"bloom_cs", func(bits uint64, keys []uint32) (perfilter.Filter, error) {
		f, err := perfilter.New(perfilter.DefaultConfig(perfilter.BlockedBloom), bits)
		if err != nil {
			return nil, err
		}
		return fill(f, keys)
	}},
	{"bloom_reg", func(bits uint64, keys []uint32) (perfilter.Filter, error) {
		f, err := perfilter.NewRegisterBlockedBloom(4, bits)
		if err != nil {
			return nil, err
		}
		return fill(f, keys)
	}},
	{"classic", func(bits uint64, keys []uint32) (perfilter.Filter, error) {
		// The classic filter addresses bits with 32-bit hashes.
		f, err := perfilter.New(perfilter.DefaultConfig(perfilter.ClassicBloom), min(bits, 1<<31))
		if err != nil {
			return nil, err
		}
		return fill(f, keys)
	}},
	{"cuckoo", func(bits uint64, keys []uint32) (perfilter.Filter, error) {
		cfg := perfilter.DefaultConfig(perfilter.Cuckoo)
		bits = max(bits, perfilter.CuckooSizeForKeys(cfg.TagBits, cfg.BucketSize, uint64(len(keys))))
		f, err := perfilter.New(cfg, bits)
		if err != nil {
			return nil, err
		}
		return fill(f, keys)
	}},
	{"xor", func(bits uint64, keys []uint32) (perfilter.Filter, error) {
		return perfilter.BuildXor(keys, 8, false)
	}},
}

// measureBuilt builds a layer, measures it with a filling insert pass and
// closes it. Nothing of the layer is reachable once it returns, so the
// caller can release its memory before building the next one.
func measureBuilt(mk func() (*layer, error), inserts, probes []*batch, budget time.Duration, spans *spanLog, res *result) (string, cost, error) {
	l, err := mk()
	if err != nil {
		return "", cost{}, err
	}
	if l.close != nil {
		defer l.close()
	}
	c, err := measure(l, inserts, probes, true, budget, spans, res)
	return l.name, c, err
}

// releaseMemory returns a dropped layer's filter to the OS before the
// next one is built, so at most one large filter lives in this process.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sumNs(xs []int64) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s
}

func delta(a, b map[string]float64, series string) float64 { return b[series] - a[series] }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runTraced is the traced run: the per-layer ledger.
func runTraced(cfg *runConfig, in *inputs, res *result, procs int) error {
	w := cfg.w
	spans := newSpanLog()
	maxBatch := cfg.maxBatch()
	inserts, probes := in.layerBatches()
	decodeAll(inserts)
	decodeAll(probes)

	// End to end against the real server: untraced, then traced.
	s, t, _, err := cfg.setUp(in)
	if t != nil {
		res.book(t)
	}
	if err != nil {
		return err
	}
	defer s.close()
	wt, err := cfg.warmUp(s, in)
	res.book(wt)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	plain, _, err := cfg.window(s, in)
	res.book(plain)
	if err != nil {
		return fmt.Errorf("untraced window: %w", err)
	}
	var traceID atomic.Int64
	for _, c := range s.conns {
		c.onResponse = func(b *batch, start, end time.Time) {
			name := "loadgen.probe"
			if b.insert {
				name = "loadgen.insert"
			}
			spans.add(loadgenTraceBase+int(traceID.Add(1)), name, "", start, end, b.keys())
		}
	}
	m0, err := s.srv.scrape()
	if err != nil {
		return err
	}
	cpu0 := cpuTime()
	traced, el, err := cfg.window(s, in)
	cpu1 := cpuTime()
	res.book(traced)
	if err != nil {
		return fmt.Errorf("traced window: %w", err)
	}
	m1, err := s.srv.scrape()
	if err != nil {
		return err
	}
	for _, c := range s.conns {
		c.onResponse = nil
	}
	v, st, err := cfg.check(s, in, res)
	if err != nil {
		return err
	}
	filterNs := delta(m0, m1, "perfilter_server_probe_duration_ns_sum") + delta(m0, m1, "perfilter_server_insert_duration_ns_sum")
	par := delta(m0, m1, `perfilter_sharded_pool_batches_total{mode="parallel"}`)
	seq := delta(m0, m1, `perfilter_sharded_pool_batches_total{mode="sequential"}`)
	worker := delta(m0, m1, `perfilter_sharded_pool_shards_total{executor="worker"}`)
	caller := delta(m0, m1, `perfilter_sharded_pool_shards_total{executor="caller"}`)
	res.set("false_positive_rate", v.fpr)
	res.set("adaptive.key_log_bits_per_key", float64(st.KeyLogBits)/float64(len(in.inserted)))
	res.set("sharded.skew", st.skew())
	res.set("sharded.parallel_batch_fraction", ratio(par, par+seq))
	res.set("sharded.worker_shard_fraction", ratio(worker, worker+caller))
	res.set("server.filter_time_share", ratio(filterNs, sumNs(traced.probeLat)+sumNs(traced.insertLat)))
	res.set("loadgen.cpu_fraction", (cpu1-cpu0).Seconds()/el.Seconds())
	res.set("loadgen.untraced_probe_p50_us", quantile(plain.probeLat, 0.5)/1e3)
	res.set("loadgen.traced_probe_p50_us", quantile(traced.probeLat, 0.5)/1e3)

	// The layer ledger, outermost first so the wire layer reuses the real
	// server's filled filter before it is stopped.
	budget := time.Duration(cfg.seconds / 32 * float64(time.Second))
	costs := map[string]cost{}
	wc := s.conns[0]
	wc.wireBytes.Store(0)
	wireKeys := 0
	for _, b := range probes {
		_, err := wc.send(b)
		res.attempted++
		if err != nil {
			res.failed++
			return fmt.Errorf("wire bytes pass: %w", err)
		}
		wireKeys += b.keys()
	}
	res.set("wire.bytes_per_key", float64(wc.wireBytes.Load())/float64(wireKeys))
	// The real server's filter is already filled: its timed insert pass
	// re-sends the insert sequence, as the other layers' second pass does.
	if costs["wire"], err = measure(wireLayer(wc), inserts, probes, false, budget, spans, res); err != nil {
		return err
	}
	s.close()

	runtime.GOMAXPROCS(procs)
	cfgBloom := perfilter.DefaultConfig(perfilter.BlockedBloom)
	build := []func() (*layer, error){
		func() (*layer, error) { return serverLayer(w, maxBatch) },
		func() (*layer, error) {
			a, err := perfilter.NewAdaptive(cfgBloom, w.filterBits, perfilter.AdaptiveOptions{
				Workload: perfilter.Workload{Tw: server.DefaultTw}, Shards: w.shards, DisableAutoGrow: true,
			})
			if err != nil {
				return nil, err
			}
			return filterLayer("adaptive", a, func(k []uint32) error { _, err := a.InsertBatch(k); return err }, maxBatch, a.Close), nil
		},
		func() (*layer, error) {
			sh, err := perfilter.NewSharded(cfgBloom, w.filterBits, w.shards)
			if err != nil {
				return nil, err
			}
			return filterLayer("sharded", sh, func(k []uint32) error { _, err := sh.InsertBatch(k); return err }, maxBatch, sh.Close), nil
		},
		func() (*layer, error) {
			return kernelLayer(w, cfgBloom, inserts, probes, maxBatch)
		},
	}
	for _, mk := range build {
		name, c, err := measureBuilt(mk, inserts, probes, budget, spans, res)
		releaseMemory()
		if err != nil {
			return err
		}
		costs[name] = c
	}
	res.set("kernel.probe_ns_per_key", costs["kernel"].ProbeNs)
	res.set("kernel.insert_ns_per_key", costs["kernel"].InsertNs)
	for i := 1; i < len(layerOrder); i++ {
		outer, inner := costs[layerOrder[i]], costs[layerOrder[i-1]]
		res.set(layerOrder[i]+".probe_self_ns_per_key", outer.ProbeNs-inner.ProbeNs)
		res.set(layerOrder[i]+".insert_self_ns_per_key", outer.InsertNs-inner.InsertNs)
	}
	res.set("server.probe_allocs_per_req", costs["server"].ProbeAllocs)
	res.set("server.insert_allocs_per_req", costs["server"].InsertAllocs)
	for _, v := range variants {
		_, c, err := measureBuilt(func() (*layer, error) {
			f, err := v.build(w.filterBits, in.inserted)
			if err != nil {
				return nil, fmt.Errorf("variant %s: %w", v.name, err)
			}
			return filterLayer("kernel."+v.name, f, nil, maxBatch, nil), nil
		}, nil, probes, budget, spans, res)
		releaseMemory()
		if err != nil {
			return err
		}
		res.set("kernel.probe_ns_per_key."+v.name, c.ProbeNs)
	}

	ledgerNotes(res, costs)
	return writeTrace(cfg, spans, costs, res)
}

// decodeAll fills each batch's decoded key slice for the in-process layers.
func decodeAll(bs []*batch) {
	for _, b := range bs {
		b.ks = make([]uint32, b.keys())
		for i := range b.ks {
			b.ks[i] = b.key(i)
		}
	}
}

// layerBatches flattens the timed-phase sequences into the insert batches
// and probe batches every layer receives, connection sequences interleaved
// in the order the server would see them with equal-speed connections.
func (in *inputs) layerBatches() (inserts, probes []*batch) {
	if !in.w.ingest() {
		inserts = in.preload
	}
	longest := 0
	for _, seq := range in.perConn {
		longest = max(longest, len(seq))
	}
	for i := 0; i < longest; i++ {
		for _, seq := range in.perConn {
			if i >= len(seq) {
				continue
			}
			if seq[i].insert {
				inserts = append(inserts, seq[i])
			} else {
				probes = append(probes, seq[i])
			}
		}
	}
	return inserts, probes
}

// ledgerNotes adds the ledger table to the run's printed notes.
func ledgerNotes(res *result, costs map[string]cost) {
	res.notef("%-9s %14s %14s %14s %14s", "layer", "probe ns/key", "probe self", "insert ns/key", "insert self")
	for i, name := range layerOrder {
		c := costs[name]
		ps, is := c.ProbeNs, c.InsertNs
		if i > 0 {
			ps -= costs[layerOrder[i-1]].ProbeNs
			is -= costs[layerOrder[i-1]].InsertNs
		}
		res.notef("%-9s %14.2f %14.2f %14.2f %14.2f", name, c.ProbeNs, ps, c.InsertNs, is)
	}
}

// writeTrace saves the spans (JSON lines) and the ledger with every traced
// metric next to them.
func writeTrace(cfg *runConfig, spans *spanLog, costs map[string]cost, res *result) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.w.name, cfg.seed))
	if err := spans.write(base + "-spans.jsonl"); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	ledger := map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "seconds": cfg.seconds,
		"layers": costs, "metrics": res.values,
		"spans": len(spans.spans), "spans_dropped": spans.dropped,
	}
	data, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+"-ledger.json", append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write ledger: %w", err)
	}
	res.notef("spans and ledger written to %s-{spans.jsonl,ledger.json}", base)
	return nil
}
