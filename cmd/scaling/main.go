// Command scaling reproduces Figs. 13–15: the weak-scaling fault-tolerance
// overhead of the four ABFT configurations for Cholesky, LU, and QR. The
// per-GPU workload is held fixed while the GPU count grows, and each
// configuration's overhead is reported relative to the unprotected run on
// the same platform.
//
// Usage:
//
//	scaling -decomp lu -pergpu 256 -nb 32 -maxgpus 4
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"

	"ftla/internal/checksum"
	"ftla/internal/core"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
	"ftla/internal/report"
)

type config struct {
	name   string
	mode   core.Mode
	scheme core.Scheme
	kernel checksum.Kernel
}

func configs() []config {
	return []config{
		{"single+prior", core.SingleSide, core.PriorOp, checksum.OptKernel},
		{"single+post", core.SingleSide, core.PostOp, checksum.OptKernel},
		{"ours (gemm kernel)", core.Full, core.NewScheme, checksum.GEMMKernel},
		{"ours (opt kernel)", core.Full, core.NewScheme, checksum.OptKernel},
	}
}

func main() {
	var (
		decomp  = flag.String("decomp", "lu", "decomposition: cholesky | lu | qr")
		perGPU  = flag.Int("pergpu", 448, "per-GPU matrix order (weak scaling unit)")
		nb      = flag.Int("nb", 32, "block size")
		maxGPUs = flag.Int("maxgpus", 4, "largest GPU count")
		reps    = flag.Int("reps", 5, "repetitions (best wall time taken)")
		metric  = flag.String("metric", "flops", "overhead metric: flops (deterministic) | wall")
	)
	flag.Parse()
	debug.SetGCPercent(400)

	fig := report.NewFigure(
		fmt.Sprintf("Figs. 13–15 — weak scaling ABFT overhead (%s, %d²/GPU, nb=%d, metric=%s)", *decomp, *perGPU, *nb, *metric),
		"gpus", "overhead % vs unprotected")
	for g := 1; g <= *maxGPUs; g++ {
		n := weakScaleN(*decomp, *perGPU, g, *nb)
		// Interleave the configurations round-robin (after one warmup run)
		// so allocator and cache warmup bias no single configuration, and
		// keep the per-configuration minimum.
		all := append([]config{{"baseline", core.NoChecksum, core.NoCheck, checksum.OptKernel}}, configs()...)
		best := make([]float64, len(all))
		for i := range best {
			best[i] = math.Inf(1)
		}
		measureOne(*decomp, n, g, *metric, core.Options{NB: *nb, Protection: core.NoChecksum, Scheme: core.NoCheck}) // warmup
		effReps := *reps
		if *metric == "flops" {
			effReps = 1 // deterministic
		}
		for rep := 0; rep < effReps; rep++ {
			for i, c := range all {
				opts := core.Options{NB: *nb, Protection: c.mode, Scheme: c.scheme, Kernel: c.kernel}
				if t := measureOne(*decomp, n, g, *metric, opts); t < best[i] {
					best[i] = t
				}
			}
		}
		base := best[0]
		for i, c := range all[1:] {
			fig.Add(c.name, float64(g), 100*(best[i+1]-base)/base)
		}
	}
	fig.Render(os.Stdout)
}

// weakScaleN fixes the per-GPU workload: for LU/QR the paper grows n
// linearly with the GPU count; for Cholesky (symmetric) it grows with
// sqrt(gpus), both rounded to the block size.
func weakScaleN(decomp string, perGPU, gpus, nb int) int {
	var n float64
	if decomp == "cholesky" {
		n = math.Sqrt(float64(gpus)) * float64(perGPU)
	} else {
		// n×n work split over g GPUs: keep n³/g constant → n = perGPU·g^(1/3)
		// for flops, but the paper fixes the per-GPU *memory* footprint:
		// n = perGPU·sqrt(g) keeps n²/g fixed, matching its setup.
		n = math.Sqrt(float64(gpus)) * float64(perGPU)
	}
	r := int(n/float64(nb)+0.5) * nb
	if r < nb {
		r = nb
	}
	return r
}

func measureOne(decomp string, n, gpus int, metric string, opts core.Options) float64 {
	runtime.GC() // keep collector pauses out of the measured window
	sys := hetsim.New(hetsim.DefaultConfig(gpus))
	rng := matrix.NewRNG(uint64(n))
	var err error
	var wall float64
	var res *core.Result
	switch decomp {
	case "cholesky":
		a := matrix.RandomSPD(n, rng)
		_, res, err = core.Cholesky(sys, a, opts)
	case "qr":
		a := matrix.Random(n, n, rng)
		_, _, res, err = core.QR(sys, a, opts)
	default:
		a := matrix.RandomDiagDominant(n, rng)
		_, _, res, err = core.LU(sys, a, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if metric == "flops" {
		wall = float64(res.Flops)
	} else {
		wall = res.Wall.Seconds()
	}
	return wall
}
