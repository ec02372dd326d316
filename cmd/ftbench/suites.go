package main

import (
	"math"
	"time"

	"ftla/internal/blas"
	"ftla/internal/checksum"
	"ftla/internal/gf"
	"ftla/internal/hetsim"
	"ftla/internal/lapack"
	"ftla/internal/matrix"
)

// suiteBudget is roughly how long each suite repeats its call; the metric
// is the median call.
const suiteBudget = 150 * time.Millisecond

// sink keeps the GF(2^8) suite's result observable so the loop stays.
var sink uint64

// timeCalls repeats f (at least five times, at most a thousand, for about
// suiteBudget), records a span per call, and returns the median call time
// in seconds.
func timeCalls(tr *tracer, layer, name string, f func()) float64 {
	var ts []float64
	start := time.Now()
	for len(ts) < 5 || (len(ts) < 1000 && time.Since(start) < suiteBudget) {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		tr.add(0, 0, layer, name, t0, d, nil)
		ts = append(ts, d.Seconds())
	}
	return median(ts)
}

// runSuites times calls into each layer at the shapes the workload uses:
// the trailing update (n−nb)×nb · nb×(n−nb)/gpus, the n×nb panel, the n×n
// checksum strips, and an n×nb parity column.
func runSuites(res *childResult, tr *tracer, n, nb, gpus int) {
	cfg := hetsim.DefaultConfig(gpus)
	workers := cfg.GPUWorkers
	rng := matrix.NewRNG(0x5eed5)
	m := n - nb
	w := m / gpus
	L := res.Layers

	a, b, c := matrix.Random(m, nb, rng), matrix.Random(nb, w, rng), matrix.Random(m, w, rng)
	t := timeCalls(tr, "blas", "gemm", func() { blas.GemmP(workers, false, false, -1, a, b, 1, c) })
	L["blas.gemm_gflops"] = 2 * float64(m) * float64(nb) * float64(w) / t / 1e9

	// The identity keeps repeated in-place solves from drifting; the
	// kernel's work does not depend on the values.
	eye := matrix.NewDense(nb, nb)
	eye.Eye()
	pb := matrix.Random(m, nb, rng)
	t = timeCalls(tr, "blas", "trsm", func() { blas.TrsmP(workers, blas.Right, true, true, false, 1, eye, pb) })
	L["blas.trsm_gflops"] = float64(m) * float64(nb) * float64(nb) / t / 1e9

	sa, sc := matrix.Random(w, nb, rng), matrix.NewDense(w, w)
	t = timeCalls(tr, "blas", "syrk", func() { blas.SyrkP(workers, true, false, -1, sa, 1, sc) })
	L["blas.syrk_gflops"] = float64(w) * float64(w) * float64(nb) / t / 1e9

	spd, panel := matrix.RandomSPD(nb, rng), matrix.Random(n, nb, rng)
	pc, pl, pq := matrix.NewDense(nb, nb), matrix.NewDense(n, nb), matrix.NewDense(n, nb)
	piv, tau := make([]int, nb), make([]float64, nb)
	t = timeCalls(tr, "lapack", "potf2+getf2+geqr2", func() {
		pc.CopyFrom(spd)
		_ = lapack.Potf2(pc) // SPD input: cannot fail
		pl.CopyFrom(panel)
		_ = lapack.Getf2(pl, piv) // random panel: singular with probability 0
		pq.CopyFrom(panel)
		lapack.Geqr2(pq, tau)
	})
	L["lapack.panel_ms"] = 1e3 * t / 3

	full := matrix.Random(n, n, rng)
	chk := matrix.NewDense(checksum.ColDims(n, n, nb))
	bytes := 8 * float64(n) * float64(n)
	t = timeCalls(tr, "checksum", "encode", func() { checksum.EncodeCol(checksum.OptKernel, workers, full, nb, chk) })
	L["checksum.encode_gbps"] = bytes / t / 1e9
	t = timeCalls(tr, "checksum", "verify", func() { checksum.VerifyCol(workers, full, nb, chk, 1e-6) })
	L["checksum.verify_gbps"] = bytes / t / 1e9

	words := make([]uint64, n*nb)
	for i := range words {
		words[i] = math.Float64bits(rng.Float64())
	}
	acc := make([]uint64, len(words))
	tab := gf.MulTable(0x1d)
	t = timeCalls(tr, "gf", "mulword", func() {
		for i, v := range words {
			acc[i] ^= tab.MulWord(v)
		}
		sink += acc[0]
	})
	L["gf.mulword_gbps"] = 8 * float64(len(words)) / t / 1e9

	sys := hetsim.New(cfg)
	src, dst := sys.CPU().AllocFrom(panel), sys.GPU(0).Alloc(n, nb)
	raw := timeCalls(tr, "hetsim", "transfer", func() { sys.Transfer(src, dst) })
	rel := timeCalls(tr, "hetsim", "transfer-reliable", func() { sys.TransferReliable(src, dst) })
	L["hetsim.transfer_us"] = 1e6 * raw
	L["hetsim.reliable_transfer_us"] = 1e6 * rel
	L["hetsim.reliable_overhead"] = ratio(rel, raw)
}
