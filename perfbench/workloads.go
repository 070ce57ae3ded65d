package main

import (
	//tdblint:ignore secret-hygiene deterministic benchmark workload generation; no secret material
	"math/rand"
)

// spec describes one workload. The why of each is recorded in
// BENCHMARK.json and README.md.
type spec struct {
	name    string
	clients int
	// chargeReads makes cache misses pay simulated seeks (§7.2 charges
	// only writes: the paper's database fits the host's file cache).
	chargeReads bool
	// rate is the operations per second (all clients) the workload runs at
	// on the reference host. A run of s seconds does s×rate operations, so
	// its work is fixed: a faster engine finishes sooner but walks the same
	// trajectory of log growth, cleaning and checkpoints.
	rate        float64
	newWorkload func(seed int64, smoke bool) workload
}

var specs = []spec{
	{name: "tpcb", clients: 1, rate: 2400, newWorkload: newTPCB},
	{name: "meters", clients: metersClients, rate: 16000, newWorkload: newMeters},
	{name: "catalog", clients: 1, chargeReads: true, rate: 6500, newWorkload: newCatalog},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// zipfKeys draws keys 0..n-1 with Zipfian popularity (s = 1.1). The
// popularity ranks are scattered over the key space by a seeded
// permutation, so hot keys are not also neighbours on disk.
type zipfKeys struct {
	perm []int32
	// per-client generators, created on the client's own goroutine.
	gens []*rand.Zipf
}

func newZipfKeys(seed int64, n, clients int) *zipfKeys {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	z := &zipfKeys{perm: make([]int32, n), gens: make([]*rand.Zipf, clients)}
	for i, p := range perm {
		z.perm[i] = int32(p)
	}
	return z
}

func (z *zipfKeys) next(c *client) int {
	if z.gens[c.id] == nil {
		z.gens[c.id] = rand.NewZipf(c.rng, 1.1, 1, uint64(len(z.perm)-1))
	}
	return int(z.perm[z.gens[c.id].Uint64()])
}

// padding fills fixed-size rows.
var padding [1024]byte
