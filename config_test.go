package ftla

import (
	"reflect"
	"strings"
	"testing"

	"ftla/internal/hetsim"
	"ftla/internal/obs"
)

// The zero value of every protection field is the paper's configuration,
// and an unprotected run is the explicit NoProtection/NoCheck pair. Each
// row is checked through Validate and Effective and by a real run: the
// report's configuration, and no encode by the GEMM kernel the run did not
// ask for (verification recomputes with the run's kernel).
func TestConfigDefaults(t *testing.T) {
	const n = 64
	a := RandomSPD(n, 3)
	gemmKey := obs.Key(obs.MetricChecksumEncodes, "kernel", GEMMKernel.String())
	unprotected := Config{GPUs: 2, Protection: NoProtection, Scheme: NoCheck}
	for _, tc := range []struct {
		name    string
		cfg     Config
		mode    Protection
		scheme  Scheme
		kernel  Kernel
		wantErr string
	}{
		{name: "zero config", cfg: Config{}, mode: FullChecksum, scheme: NewScheme, kernel: OptKernel},
		{name: "unprotected", cfg: unprotected, mode: NoProtection, scheme: NoCheck, kernel: OptKernel},
		{name: "Unprotected(2)", cfg: Unprotected(2), mode: NoProtection, scheme: NoCheck, kernel: OptKernel},
		{name: "single-side post-op gemm", cfg: Config{Protection: SingleSide, Scheme: PostOp, Kernel: GEMMKernel},
			mode: SingleSide, scheme: PostOp, kernel: GEMMKernel},
		{name: "NoProtection alone", cfg: Config{Protection: NoProtection}, wantErr: "scheme new requires checksums"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.NB = 16
			if err := cfg.Validate(n); tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Validate = %v, want an error mentioning %q", err, tc.wantErr)
				}
				return
			} else if err != nil {
				t.Fatalf("Validate = %v", err)
			}
			eff := cfg.Effective()
			if eff.GPUs < 1 || eff.NB != 16 || eff.Protection != tc.mode || eff.Scheme != tc.scheme || eff.Kernel != tc.kernel {
				t.Fatalf("Effective = GPUs %d NB %d %v/%v/%v, want NB 16 %v/%v/%v",
					eff.GPUs, eff.NB, eff.Protection, eff.Scheme, eff.Kernel, tc.mode, tc.scheme, tc.kernel)
			}
			before := obs.Default().Snapshot()
			res, err := Cholesky(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gemm := obs.Default().Snapshot().Diff(before).CounterValue(gemmKey)
			if r := res.Report; r.Mode != tc.mode || r.Scheme != tc.scheme || r.Kernel != tc.kernel {
				t.Fatalf("run reports %v/%v/%v, want %v/%v/%v", r.Mode, r.Scheme, r.Kernel, tc.mode, tc.scheme, tc.kernel)
			}
			if (gemm > 0) != (tc.kernel == GEMMKernel && tc.mode != NoProtection) {
				t.Fatalf("run encoded %d times with the GEMM kernel under kernel %v", gemm, tc.kernel)
			}
		})
	}
	if !reflect.DeepEqual(Unprotected(2), unprotected) {
		t.Fatalf("Unprotected(2) = %+v, want %+v", Unprotected(2), unprotected)
	}
}

func TestSystemConfigMatchesPlatform(t *testing.T) {
	if got, want := (Config{GPUs: 3}).SystemConfig(), hetsim.DefaultConfig(3); got != want {
		t.Fatalf("SystemConfig = %+v, want default platform %+v", got, want)
	}
	custom := hetsim.DefaultConfig(1)
	custom.GPUGflops = 123
	if got := (Config{System: &custom}).SystemConfig(); got != custom {
		t.Fatalf("SystemConfig = %+v, want the override %+v", got, custom)
	}
}

// The *BatchOn entry points must run on exactly the provided system: its
// simulated clocks advance, and a second run after Reset reproduces the
// same factor (system reuse is deterministic).
func TestBatchOnProvidedSystem(t *testing.T) {
	cfg := Config{GPUs: 2, NB: 16}
	sys := NewSystem(cfg)
	a := RandomSPD(64, 5)
	run := func() *CholeskyResult {
		t.Helper()
		rs, errs, err := CholeskyBatchOn(sys, []*Matrix{a}, cfg)
		if err == nil {
			err = errs[0]
		}
		if err != nil {
			t.Fatal(err)
		}
		return rs[0]
	}
	res := run()
	if res.Residual(a) > 1e-10 {
		t.Fatalf("residual %g", res.Residual(a))
	}
	if sys.TimelineMakespan() <= 0 {
		t.Fatal("provided system saw no simulated work")
	}
	sys.Reset()
	res2 := run()
	for i := 0; i < 64; i++ {
		for j := 0; j <= i; j++ {
			if res.L.At(i, j) != res2.L.At(i, j) {
				t.Fatalf("reused system not deterministic at (%d,%d)", i, j)
			}
		}
	}
}

// Config.Validate is the admission rule serving layers apply before a job
// reaches a worker, so it must accept what a run accepts and refuse what a
// run refuses, with the run's own error — the solo run and the batched one.
func TestConfigValidate(t *testing.T) {
	const n = 32
	a := RandomSPD(n, 1)
	cases := []struct {
		name   string
		cfg    Config
		reject bool
	}{
		{"zero config", Config{NB: 16}, false},
		{"unprotected", func() Config { c := Unprotected(2); c.NB = 16; return c }(), false},
		{"cluster with redundancy", Config{NB: 16, GPUs: 4, Nodes: 2, Redundancy: 1}, false},
		{"order not a multiple of NB", Config{NB: 24}, true},
		{"scheme without checksums", Config{NB: 16, Protection: NoProtection}, true},
		{"negative CheckpointEvery", Config{NB: 16, CheckpointEvery: -1}, true},
		{"OnCheckpoint without CheckpointEvery", Config{NB: 16, OnCheckpoint: func(*Checkpoint) {}}, true},
		{"negative Rebalance.Every", Config{NB: 16, GPUs: 2, RebalanceEvery: -1}, true},
		{"negative Redundancy", Config{NB: 16, GPUs: 2, Nodes: 2, Redundancy: -1}, true},
		{"Redundancy not below Nodes", Config{NB: 16, GPUs: 2, Nodes: 2, Redundancy: 2}, true},
		{"GPUs not divisible by Nodes", Config{NB: 16, GPUs: 3, Nodes: 2}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate(n)
			if (err != nil) != tc.reject {
				t.Fatalf("Validate(%d) = %v, want rejected %v", n, err, tc.reject)
			}
			_, runErr := Cholesky(a, tc.cfg)
			_, _, batchErr := CholeskyBatch([]*Matrix{a}, tc.cfg)
			for _, r := range []struct {
				name string
				err  error
			}{{"Cholesky", runErr}, {"CholeskyBatch", batchErr}} {
				if (r.err != nil) != tc.reject {
					t.Fatalf("%s error %v, want rejected %v", r.name, r.err, tc.reject)
				}
				if tc.reject && r.err.Error() != err.Error() {
					t.Fatalf("Validate says %q, %s says %q", err, r.name, r.err)
				}
			}
		})
	}
}
