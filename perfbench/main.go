// Command perfbench is the repository's benchmark. It starts the real
// filter-server binary in its own process, drives it over loopback HTTP
// from closed-loop connections with a seeded, preallocated request
// sequence, checks every answer, and prints the end-to-end metrics. With
// -trace 1 it instead pushes the same batches through each layer's public
// entry point in-process and prints the per-layer ledger, writing spans and
// the ledger under -out.
//
// Usage (from the repository root, after building the server):
//
//	perfbench -server <filter-server binary> -workload probe_l2 -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in report order.
var endToEnd = []metricDef{
	{"probe_keys_per_s", "keys/s"},
	{"probe_p50_us", "us"},
	{"probe_p99_us", "us"},
	{"insert_keys_per_s", "keys/s"},
	{"insert_p50_us", "us"},
	{"insert_p99_us", "us"},
	{"overhead_ns_per_key", "ns/key"},
	{"memory_bits_per_key", "bits/key"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, in report order.
var perLayer = []metricDef{
	{"kernel.probe_ns_per_key", "ns/key"},
	{"kernel.insert_ns_per_key", "ns/key"},
	{"kernel.probe_ns_per_key.bloom_cs", "ns/key"},
	{"kernel.probe_ns_per_key.bloom_reg", "ns/key"},
	{"kernel.probe_ns_per_key.classic", "ns/key"},
	{"kernel.probe_ns_per_key.cuckoo", "ns/key"},
	{"kernel.probe_ns_per_key.xor", "ns/key"},
	{"sharded.probe_self_ns_per_key", "ns/key"},
	{"sharded.insert_self_ns_per_key", "ns/key"},
	{"sharded.parallel_batch_fraction", "fraction"},
	{"sharded.worker_shard_fraction", "fraction"},
	{"sharded.skew", "ratio"},
	{"adaptive.probe_self_ns_per_key", "ns/key"},
	{"adaptive.insert_self_ns_per_key", "ns/key"},
	{"adaptive.key_log_bits_per_key", "bits/key"},
	{"server.probe_self_ns_per_key", "ns/key"},
	{"server.insert_self_ns_per_key", "ns/key"},
	{"server.probe_allocs_per_req", "count"},
	{"server.insert_allocs_per_req", "count"},
	{"server.filter_time_share", "fraction"},
	{"wire.probe_self_ns_per_key", "ns/key"},
	{"wire.insert_self_ns_per_key", "ns/key"},
	{"wire.bytes_per_key", "bytes/key"},
	{"loadgen.cpu_fraction", "fraction"},
	{"loadgen.untraced_probe_p50_us", "us"},
	{"loadgen.traced_probe_p50_us", "us"},
	{"false_positive_rate", "fraction"},
}

type runConfig struct {
	w         *workload
	seed      uint64
	seconds   float64
	trace     bool
	serverBin string
	outDir    string
	log       io.Writer // the server processes' output
}

// result accumulates one run's checked operations and metric values.
type result struct {
	attempted, failed, falseNeg int
	values                      map[string]float64
	notes                       []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) book(t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	r.falseNeg += t.falseNeg
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// run executes one benchmark run and returns its result; an error means
// the run could not complete (the result still counts what it attempted).
//
// The load generator runs on one P, so on a 2-vCPU host its goroutines
// never hold both cores the server under test needs. In five interleaved
// 12-second probe_l2 runs on the reference host, throughput ranged over
// 27% with two P's and over 7% with one. The traced run's in-process
// layers get the host's P's back, as the server has them.
func run(cfg *runConfig) (*result, error) {
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	res := newResult()
	in := generate(cfg.w, cfg.seed)
	var err error
	if cfg.trace {
		err = runTraced(cfg, in, res, procs)
	} else {
		err = runE2E(cfg, in, res)
	}
	return res, err
}

type reportMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]reportMetric `json:"metrics"`
}

// render builds the final JSON line from the metrics the mode reports. A
// metric the run did not produce, or produced as NaN or infinity, makes the
// run incorrect.
func render(res *result, defs []metricDef, runErr error) (report, []string) {
	rep := report{Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]reportMetric{}}
	var problems []string
	if runErr != nil {
		problems = append(problems, runErr.Error())
	}
	if res.falseNeg > 0 {
		problems = append(problems, fmt.Sprintf("%d false negatives", res.falseNeg))
	}
	if res.failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d operations failed", res.failed, res.attempted))
	}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, "metric "+d.name+" not measured")
			continue
		}
		rep.Metrics[d.name] = reportMetric{v, d.unit}
	}
	if runErr != nil && rep.Failed == 0 {
		rep.Failed = 1
	}
	rep.Correct = len(problems) == 0
	return rep, problems
}

func main() {
	name := flag.String("workload", "", "workload: probe_l2 or ingest_mixed")
	seed := flag.Uint64("seed", 1, "seed of the generated key streams")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer ledger; 0: end-to-end metrics")
	serverBin := flag.String("server", filepath.Join(".bench_build", "bin", "filter-server"), "filter-server binary")
	outDir := flag.String("out", ".bench_out", "directory for server logs, spans and ledgers")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	logPath := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d-server.log", w.name, *seed, *trace))
	logf, err := os.Create(logPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := &runConfig{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		serverBin: *serverBin, outDir: *outDir, log: logf,
	}
	res, runErr := run(cfg)
	logf.Close()

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep, problems := render(res, defs, runErr)
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	for _, d := range defs {
		if m, ok := rep.Metrics[d.name]; ok {
			fmt.Printf("%-36s %16.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	var line bytes.Buffer
	enc := json.NewEncoder(&line)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Stdout.Write(line.Bytes())
	if !rep.Correct {
		os.Exit(1)
	}
}
