package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
)

// workload is one traffic mix against one filter. Every workload uses the
// server's default kind (bloom: cache-sectorized, k=8, z=2) with a fixed
// shard count, so the filter geometry does not depend on the host's
// GOMAXPROCS.
type workload struct {
	name       string
	filterBits uint64
	shards     int
	conns      int // closed-loop connections in the timed phase
	processes  int // server processes the timed phase is split over
	batch      int // keys per probe batch (and per ingest insert batch)
	present    float64

	// Probe workloads: keys inserted during set-up, and the distinct
	// probe batches each connection sends once per window.
	preload      int
	preloadBatch int
	probeSet     int

	// ingest_mixed: per connection and cycle, pairs insert batches each
	// followed by a probe batch; resend is the share of every insert batch
	// that re-sends keys the connection inserted earlier.
	pairs  int
	resend float64
}

func (w *workload) ingest() bool { return w.pairs > 0 }

// workloads are the benchmark's traffic mixes; README.md records why each
// was chosen and what it predicts stays flat.
var workloads = map[string]*workload{
	// Filter in L2: per-request handler, wire and dispatch cost dominate.
	// 1024-key batches stay below the sharded layer's 4096-key parallel
	// threshold, so the sequential gather path runs. A window is one pass
	// over the probe set: 1024 requests on the two connections. The
	// preload's 512-key batches give each process's preload 1024 requests
	// too, so every p99 has ten requests beyond it.
	"probe_l2": {
		name: "probe_l2", filterBits: 8 << 20, shards: 8, conns: 2, processes: 7,
		batch: 1024, present: 0.5,
		preload: 512 << 10, preloadBatch: 512, probeSet: 512,
	},
	// L3-resident filter that starts empty; the only workload whose timed
	// phase runs the insert kernels, sharded InsertBatch and the key log.
	"ingest_mixed": {
		name: "ingest_mixed", filterBits: 256 << 20, shards: 8, conns: 2, processes: 5,
		batch: 8 << 10, present: 0.5,
		pairs: 512, resend: 0.25,
	},
}

// workloadNames lists the workloads in the order the README describes them.
var workloadNames = []string{"probe_l2", "ingest_mixed"}

// Key regions. A key is mix32 of (region<<28 | index) xor a seed mask;
// mix32 is a bijection, so keys from different regions or indices never
// collide, and a region-fprRegion key is guaranteed never inserted.
const (
	regionInsert  = 0 // + connection: keys a connection inserts
	regionNegProb = 4 // + connection: absent keys mixed into probe batches
	regionFPR     = 8 // absent keys of the untimed false-positive pass
	regionBits    = 28
)

// fprKeys is the size of the fixed never-inserted set the false-positive
// rate is measured on.
const fprKeys = 1 << 20

// mix32 is the lowbias32 integer hash, a bijection on uint32.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

type keySpace struct{ mask uint32 }

func newKeySpace(seed uint64) keySpace {
	return keySpace{mask: uint32(seed*0x9e3779b97f4a7c15>>32) ^ uint32(seed)}
}

func (ks keySpace) key(region, i int) uint32 {
	if i >= 1<<regionBits {
		panic("perfbench: key index outside its region")
	}
	return mix32((uint32(region)<<regionBits | uint32(i)) ^ ks.mask)
}

// batch is one preallocated data-plane request body.
type batch struct {
	body    []byte   // little-endian uint32 keys
	present []uint64 // probe batches: bitset of positions holding inserted keys
	insert  bool
	ks      []uint32 // decoded keys, for the traced run's in-process layers
}

func (b *batch) keys() int { return len(b.body) / 4 }

// key returns the i-th key of the batch.
func (b *batch) key(i int) uint32 { return binary.LittleEndian.Uint32(b.body[4*i:]) }

func encodeKeys(keys []uint32) []byte {
	body := make([]byte, 4*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint32(body[4*i:], k)
	}
	return body
}

// inputs is everything a run sends, generated up front from the seed so
// the load generator only copies preallocated bodies.
type inputs struct {
	w *workload
	// preload is the set-up insert sequence of a probe workload;
	// preloadConn deals it round-robin to the connections.
	preload     []*batch
	preloadConn [][]*batch
	// perConn is each connection's sequence for one window: the probe set
	// of a probe workload, or one ingest cycle (insert, probe, insert,
	// probe, ...).
	perConn [][]*batch
	// inserted lists every distinct key the filter holds after set-up (probe
	// workloads) or after one ingest cycle.
	inserted []uint32
	// fpr is the fixed never-inserted verification set.
	fpr []uint32
}

func generate(w *workload, seed uint64) *inputs {
	ks := newKeySpace(seed)
	in := &inputs{w: w, perConn: make([][]*batch, w.conns)}
	if w.ingest() {
		generateIngest(in, ks, seed)
	} else {
		generateProbe(in, ks, seed)
	}
	in.fpr = make([]uint32, fprKeys)
	for i := range in.fpr {
		in.fpr[i] = ks.key(regionFPR, i)
	}
	return in
}

func generateProbe(in *inputs, ks keySpace, seed uint64) {
	w := in.w
	in.inserted = make([]uint32, w.preload)
	for i := range in.inserted {
		in.inserted[i] = ks.key(regionInsert, i)
	}
	for off := 0; off < w.preload; off += w.preloadBatch {
		end := min(off+w.preloadBatch, w.preload)
		in.preload = append(in.preload, &batch{body: encodeKeys(in.inserted[off:end]), insert: true})
	}
	in.preloadConn = make([][]*batch, w.conns)
	for i, b := range in.preload {
		in.preloadConn[i%w.conns] = append(in.preloadConn[i%w.conns], b)
	}
	for c := 0; c < w.conns; c++ {
		rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
		neg := 0
		for b := 0; b < w.probeSet; b++ {
			pb := probeBatch(rng, w, func() uint32 {
				return in.inserted[rng.IntN(len(in.inserted))]
			}, func() uint32 {
				neg++
				return ks.key(regionNegProb+c, neg-1)
			})
			in.perConn[c] = append(in.perConn[c], pb)
		}
	}
}

// probeBatch builds a probe batch with round(batch*present) inserted keys
// at random positions and absent keys everywhere else.
func probeBatch(rng *rand.Rand, w *workload, presentKey, absentKey func() uint32) *batch {
	n := w.batch
	np := int(float64(n)*w.present + 0.5)
	keys := make([]uint32, n)
	bits := make([]uint64, (n+63)/64)
	for i, pos := range rng.Perm(n) {
		if i < np {
			keys[pos] = presentKey()
			bits[pos/64] |= 1 << (pos % 64)
		} else {
			keys[pos] = absentKey()
		}
	}
	return &batch{body: encodeKeys(keys), present: bits}
}

// generateIngest builds one ingest cycle per connection. Each connection
// inserts only keys of its own region and probes only keys it has already
// had acknowledged, so the cycle's answers do not depend on how the two
// connections interleave.
func generateIngest(in *inputs, ks keySpace, seed uint64) {
	w := in.w
	for c := 0; c < w.conns; c++ {
		rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
		var own []uint32 // this connection's acknowledged distinct keys
		neg := 0
		for p := 0; p < w.pairs; p++ {
			resend := int(float64(w.batch)*w.resend + 0.5)
			if len(own) == 0 {
				resend = 0
			}
			keys := make([]uint32, 0, w.batch)
			for len(keys) < w.batch-resend {
				k := ks.key(regionInsert+c, len(own)+len(keys))
				keys = append(keys, k)
			}
			for i := 0; i < resend; i++ {
				keys = append(keys, own[rng.IntN(len(own))])
			}
			own = append(own, keys[:w.batch-resend]...)
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			in.perConn[c] = append(in.perConn[c], &batch{body: encodeKeys(keys), insert: true})

			pb := probeBatch(rng, w, func() uint32 {
				return own[rng.IntN(len(own))]
			}, func() uint32 {
				neg++
				return ks.key(regionNegProb+c, neg-1)
			})
			in.perConn[c] = append(in.perConn[c], pb)
		}
		in.inserted = append(in.inserted, own...)
	}
}

func lookupWorkload(name string) (*workload, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}
