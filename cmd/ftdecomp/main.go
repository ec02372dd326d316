// Command ftdecomp runs one protected matrix decomposition on the
// simulated heterogeneous system and prints its overhead report and
// verification counters (the per-run data behind Tables VI and VII).
//
// Usage:
//
//	ftdecomp -decomp lu -n 1024 -nb 64 -gpus 2 -mode full -scheme new
//	ftdecomp -decomp cholesky -counters   # Table VI comparison
package main

import (
	"flag"
	"fmt"
	"os"

	"ftla/internal/checksum"
	"ftla/internal/core"
	"ftla/internal/hetsim"
	"ftla/internal/lapack"
	"ftla/internal/matrix"
	"ftla/internal/overhead"
	"ftla/internal/report"
)

func main() {
	var (
		decomp   = flag.String("decomp", "lu", "decomposition: cholesky | lu | qr")
		n        = flag.Int("n", 1024, "matrix order (multiple of nb)")
		nb       = flag.Int("nb", 64, "block size")
		gpus     = flag.Int("gpus", 2, "simulated GPUs")
		mode     = flag.String("mode", "full", "checksum mode: none | single | full")
		scheme   = flag.String("scheme", "new", "checking scheme: none | prior | post | new")
		kern     = flag.String("kernel", "opt", "checksum kernel: gemm | opt")
		counters = flag.Bool("counters", false, "run all three schemes and compare Table VI counters")
		ovh      = flag.Bool("overhead", false, "compare the §IX analytic overhead model against measured flops (Table VII)")
	)
	flag.Parse()

	if *counters {
		runCounters(*decomp, *n, *nb, *gpus)
		return
	}
	if *ovh {
		runOverhead(*decomp, *n, *nb, *gpus)
		return
	}
	opts := core.Options{NB: *nb, Protection: parseMode(*mode), Scheme: parseScheme(*scheme), Kernel: parseKernel(*kern)}
	res, resid, sys, err := runSys(*decomp, *n, *gpus, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	t := report.NewTable(fmt.Sprintf("%s n=%d nb=%d gpus=%d mode=%v scheme=%v kernel=%v",
		*decomp, *n, *nb, *gpus, res.Mode, res.Scheme, res.Kernel), "metric", "value")
	t.AddRow("wall time", res.Wall.String())
	t.AddRow("encode time", res.EncodeT.String())
	t.AddRow("verify time", res.VerifyT.String())
	t.AddRow("recover time", res.RecoverT.String())
	t.AddRow("blocks verified", res.Counter.TotalChecked())
	t.AddRow("pcie bytes", res.PCIeBytes)
	t.AddRow("sim makespan (s)", res.SimMakespan)
	t.AddRow("residual", resid)
	t.AddRow("outcome", res.OutcomeOf(resid < 1e-9).String())
	t.Render(os.Stdout)

	ut := report.NewTable("simulated device utilization", "device", "sim seconds", "share %")
	for _, st := range sys.Utilization() {
		ut.AddRow(st.Name, st.SimSecs, 100*st.Share)
	}
	fmt.Println()
	ut.Render(os.Stdout)
}

func runOverhead(decomp string, n, nb, gpus int) {
	var d overhead.Decomp
	switch decomp {
	case "cholesky":
		d = overhead.Cholesky
	case "qr":
		d = overhead.QR
	default:
		d = overhead.LU
	}
	base, _, err := run(decomp, n, gpus, core.Options{NB: nb, Protection: core.NoChecksum, Scheme: core.NoCheck})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	prot, _, err := run(decomp, n, gpus, core.Options{NB: nb, Protection: core.Full, Scheme: core.NewScheme, Kernel: checksum.OptKernel})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	b := overhead.Analytic(d, n, nb, 0)
	measured := 100 * (float64(prot.Flops) - float64(base.Flops)) / float64(base.Flops)
	t := report.NewTable(
		fmt.Sprintf("Table VII — relative overhead, analytic vs measured (%s, n=%d, nb=%d)", d, n, nb),
		"component", "analytic %")
	t.AddRow("encode (∝1/n)", 100*b.Encode)
	t.AddRow("update (∝1/NB)", 100*b.Update)
	t.AddRow("verify (∝1/n)", 100*b.Verify)
	t.AddRow("total analytic", 100*b.Total())
	t.AddRow("total measured (flops)", measured)
	t.AddRow("memory space (4/NB)", 100*overhead.MemorySpace(nb))
	t.Render(os.Stdout)
}

func runCounters(decomp string, n, nb, gpus int) {
	t := report.NewTable(
		fmt.Sprintf("Table VI — blocks verified per run (%s, n=%d, nb=%d, b=%d)", decomp, n, nb, n/nb),
		"scheme", "PD-", "PD+", "PU-", "PU+", "TMU-", "TMU+", "swap", "total")
	for _, cfg := range []struct {
		name   string
		mode   core.Mode
		scheme core.Scheme
	}{
		{"prior-op", core.SingleSide, core.PriorOp},
		{"post-op", core.Full, core.PostOp},
		{"new (ours)", core.Full, core.NewScheme},
	} {
		opts := core.Options{NB: nb, Protection: cfg.mode, Scheme: cfg.scheme, Kernel: checksum.OptKernel}
		res, _, err := run(decomp, n, gpus, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		c := res.Counter
		t.AddRow(cfg.name, c.PDBefore, c.PDAfter, c.PUBefore, c.PUAfter, c.TMUBefore, c.TMUAfter, c.SwapChecks, c.TotalChecked())
	}
	t.Render(os.Stdout)
}

func run(decomp string, n, gpus int, opts core.Options) (*core.Result, float64, error) {
	res, resid, _, err := runSys(decomp, n, gpus, opts)
	return res, resid, err
}

func runSys(decomp string, n, gpus int, opts core.Options) (*core.Result, float64, *hetsim.System, error) {
	sys := hetsim.New(hetsim.DefaultConfig(gpus))
	rng := matrix.NewRNG(1)
	switch decomp {
	case "cholesky":
		a := matrix.RandomSPD(n, rng)
		out, res, err := core.Cholesky(sys, a, opts)
		if err != nil {
			return nil, 0, nil, err
		}
		return res, matrix.CholeskyResidual(a, out), sys, nil
	case "qr":
		a := matrix.Random(n, n, rng)
		out, tau, res, err := core.QR(sys, a, opts)
		if err != nil {
			return nil, 0, nil, err
		}
		return res, matrix.QRResidual(a, lapack.BuildQ(out, tau), lapack.ExtractR(out)), sys, nil
	case "lu":
		a := matrix.RandomDiagDominant(n, rng)
		out, piv, res, err := core.LU(sys, a, opts)
		if err != nil {
			return nil, 0, nil, err
		}
		return res, matrix.LUResidual(a, out, piv), sys, nil
	default:
		return nil, 0, nil, fmt.Errorf("unknown decomposition %q", decomp)
	}
}

func parseMode(s string) core.Mode {
	switch s {
	case "none":
		return core.NoChecksum
	case "single":
		return core.SingleSide
	default:
		return core.Full
	}
}

func parseScheme(s string) core.Scheme {
	switch s {
	case "none":
		return core.NoCheck
	case "prior":
		return core.PriorOp
	case "post":
		return core.PostOp
	default:
		return core.NewScheme
	}
}

func parseKernel(s string) checksum.Kernel {
	if s == "gemm" {
		return checksum.GEMMKernel
	}
	return checksum.OptKernel
}
