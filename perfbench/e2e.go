package main

import (
	"fmt"
	"time"
)

const (
	// verifyBatch is the batch size of the untimed verification passes.
	verifyBatch = 16 << 10
	// filterName is the filter every run creates.
	filterName = "bench"
	// twNs is the work a pruned probe saves, fixed at 5 µs: a remote lookup,
	// near the paper's 10^4-cycle network-tuple point.
	twNs = 5000.0
)

// liveServer is a running filter-server with the run's connections
// attached.
type liveServer struct {
	srv   *serverProc
	conns []*conn
}

func (cfg *runConfig) maxBatch() int {
	return max(cfg.w.batch, cfg.w.preloadBatch, verifyBatch)
}

// setUp starts a server, creates the filter and, for a probe workload,
// preloads it over the run's connections. The returned tally holds the
// preload requests and the preload's wall time.
func (cfg *runConfig) setUp(in *inputs) (*liveServer, *tally, time.Duration, error) {
	srv, err := startServer(cfg.serverBin, cfg.log)
	if err != nil {
		return nil, nil, 0, err
	}
	w := cfg.w
	s := &liveServer{srv: srv}
	if err := srv.createFilter(filterName, w); err != nil {
		s.close()
		return nil, nil, 0, err
	}
	for i := 0; i < w.conns; i++ {
		s.conns = append(s.conns, newConn(srv.base, filterName, cfg.maxBatch()))
	}
	if w.ingest() {
		return s, newTally(0), 0, nil
	}
	t, el := drive(s.conns, in.preloadConn, len(in.preload))
	if t.firstErr != nil {
		s.close()
		return nil, t, 0, fmt.Errorf("preload: %w", t.firstErr)
	}
	return s, t, el, nil
}

func (s *liveServer) close() {
	for _, c := range s.conns {
		c.close()
	}
	s.srv.stop()
}

// recreate empties the ingest filter between fixed-work cycles.
func (s *liveServer) recreate(w *workload) error {
	if err := s.srv.deleteFilter(filterName); err != nil {
		return err
	}
	return s.srv.createFilter(filterName, w)
}

// window drives one fixed amount of work on every connection: one pass
// over each connection's probe set (probe workloads), or one ingest cycle
// on a freshly created filter. A probe pass changes nothing on the server,
// and every cycle starts from an empty filter, so the server's state after
// a window never depends on how many windows ran before it.
func (cfg *runConfig) window(s *liveServer, in *inputs) (*tally, time.Duration, error) {
	if cfg.w.ingest() {
		if err := s.recreate(cfg.w); err != nil {
			return newTally(0), 0, err
		}
	}
	t, el := drive(s.conns, in.perConn, len(in.perConn[0]))
	return t, el, t.firstErr
}

// warmUp runs untimed traffic so connections, caches and the server's
// lazily built worker pool are in steady state before timing starts: one
// probe window on a probe workload, a quarter of one cycle on
// ingest_mixed (on the filter the first timed cycle then recreates).
func (cfg *runConfig) warmUp(s *liveServer, in *inputs) (*tally, error) {
	if !cfg.w.ingest() {
		t, _, err := cfg.window(s, in)
		return t, err
	}
	seqs := make([][]*batch, len(in.perConn))
	for i, seq := range in.perConn {
		seqs[i] = seq[:len(seq)/4]
	}
	t, _ := drive(s.conns, seqs, 0)
	return t, t.firstErr
}

// timed runs one server process's share of the measured phase: fixed-work
// windows, as many as fit in secs (at least one). Only the number of
// windows depends on the host's speed. Every request is booked in res.
func (cfg *runConfig) timed(s *liveServer, in *inputs, secs float64, res *result) (probe, insert []window, err error) {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds()*float64(n+1)/float64(n) <= secs; n++ {
		t, el, err := cfg.window(s, in)
		res.book(t)
		if err != nil {
			return nil, nil, err
		}
		probe = append(probe, window{float64(t.probeKeys) / el.Seconds(), t.probeLat})
		if cfg.w.ingest() {
			insert = append(insert, window{float64(t.insertKeys) / el.Seconds(), t.insertLat})
		}
	}
	return probe, insert, nil
}

// verification is the untimed check after the timed phase.
type verification struct {
	fpr float64
	t   *tally
}

// verify probes every inserted key (any miss is a false negative) and the
// fixed never-inserted set (every hit is a false positive) on one
// connection.
func verify(s *liveServer, in *inputs) (verification, error) {
	seq := append(batchesOf(in.inserted, verifyBatch, true), batchesOf(in.fpr, verifyBatch, false)...)
	t, _ := drive(s.conns[:1], [][]*batch{seq}, 0)
	v := verification{t: t}
	if t.firstErr != nil {
		return v, fmt.Errorf("verification: %w", t.firstErr)
	}
	v.fpr = float64(t.falsePos) / float64(len(in.fpr))
	return v, nil
}

// runE2E is the untraced run: every end-to-end metric. The timed phase is
// split evenly over w.processes fresh server processes, each set up from
// scratch; setup_s is the median set-up. A probe workload's insert figures
// are its preloads', one window per process.
func runE2E(cfg *runConfig, in *inputs, res *result) error {
	w := cfg.w
	var (
		setups         []float64
		probeWs, insWs []window
		st             filterStats
		v              verification
		secsPerProcess = cfg.seconds / float64(w.processes)
	)
	for p := 0; p < w.processes; p++ {
		start := time.Now()
		s, t, preload, err := cfg.setUp(in)
		if t != nil {
			res.book(t)
		}
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if !w.ingest() {
			insWs = append(insWs, window{float64(t.insertKeys) / preload.Seconds(), t.insertLat})
		}
		pw, iw, err := cfg.measureProcess(s, in, secsPerProcess, res)
		probeWs, insWs = append(probeWs, pw...), append(insWs, iw...)
		if err == nil && p == w.processes-1 {
			v, st, err = cfg.check(s, in, res)
		}
		s.close()
		if err != nil {
			return err
		}
	}

	probe, ins := summarize(probeWs), summarize(insWs)
	res.set("probe_keys_per_s", probe.rate)
	res.set("probe_p50_us", probe.p50/1e3)
	res.set("probe_p99_us", probe.p99/1e3)
	res.set("insert_keys_per_s", ins.rate)
	res.set("insert_p50_us", ins.p50/1e3)
	res.set("insert_p99_us", ins.p99/1e3)
	res.set("overhead_ns_per_key", 1e9/probe.rate+v.fpr*twNs)
	res.set("memory_bits_per_key", float64(st.Filter.SizeBits+st.KeyLogBits)/float64(len(in.inserted)))
	res.set("setup_s", median(setups))
	res.set("false_positive_rate", v.fpr)
	res.notef("server processes=%d", w.processes)
	res.notef("false_positive_rate %.6g (%d of %d never-inserted keys; a --trace 1 metric)", v.fpr, v.t.falsePos, len(in.fpr))
	for _, t := range []struct {
		op string
		s  summary
	}{{"probe", probe}, {"insert", ins}} {
		res.notef("%s: %d windows, smallest %d requests", t.op, t.s.windows, t.s.smallest)
		if t.s.smallest < minTailSamples {
			res.notef("%s p99 has fewer than %d requests in a window: fewer than ten beyond it", t.op, minTailSamples)
		}
	}
	res.notef("probe window rates (keys/s): %.4g", rates(probeWs))
	res.notef("insert window rates (keys/s): %.4g", rates(insWs))
	res.notef("setup_s per process: %.4g", setups)
	return nil
}

// measureProcess warms up one set-up server and runs its share of the
// timed phase.
func (cfg *runConfig) measureProcess(s *liveServer, in *inputs, secs float64, res *result) (probe, insert []window, err error) {
	wt, err := cfg.warmUp(s, in)
	res.book(wt)
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	probe, insert, err = cfg.timed(s, in, secs, res)
	if err != nil {
		return nil, nil, fmt.Errorf("timed phase: %w", err)
	}
	return probe, insert, nil
}

// check verifies a server after its timed phase and reads the filter's
// sizes and shard counts. The filter then holds exactly the workload's
// inserted keys (the preload, or the last cycle's inserts).
func (cfg *runConfig) check(s *liveServer, in *inputs, res *result) (verification, filterStats, error) {
	v, err := verify(s, in)
	res.book(v.t)
	if err != nil {
		return v, filterStats{}, err
	}
	st, err := s.srv.stats(filterName)
	return v, st, err
}
