package ftla

import (
	"testing"

	"ftla/internal/core"
	"ftla/internal/hetsim"
)

// The zero Config must upgrade to the paper's recommended protection —
// full checksums under the new scheme — so the no-thought default is the
// protected one.
func TestNormalizeZeroValueUpgrades(t *testing.T) {
	cfg, opts := Config{}.normalize()
	if cfg.GPUs != 1 || cfg.NB != 64 {
		t.Fatalf("defaults GPUs=%d NB=%d, want 1/64", cfg.GPUs, cfg.NB)
	}
	if opts.Mode != core.Full || opts.Scheme != core.NewScheme {
		t.Fatalf("zero config normalized to %v/%v, want full/new", opts.Mode, opts.Scheme)
	}
}

// Unprotected must NOT be upgraded: its explicit marker pins the
// NoChecksum/NoCheck pair even though those are the zero values the
// upgrade looks for.
func TestNormalizeUnprotectedStaysUnprotected(t *testing.T) {
	cfg, opts := Unprotected(2).normalize()
	if cfg.GPUs != 2 {
		t.Fatalf("GPUs = %d, want 2", cfg.GPUs)
	}
	if opts.Mode != core.NoChecksum || opts.Scheme != core.NoCheck {
		t.Fatalf("Unprotected normalized to %v/%v, want none/none", opts.Mode, opts.Scheme)
	}
}

// A partially explicit protection choice must survive normalization
// untouched — only the all-zero pair is upgraded.
func TestNormalizeRespectsExplicitChoice(t *testing.T) {
	_, opts := Config{Protection: SingleSide, Scheme: PostOp}.normalize()
	if opts.Mode != core.SingleSide || opts.Scheme != core.PostOp {
		t.Fatalf("explicit single-side/post-op normalized to %v/%v", opts.Mode, opts.Scheme)
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
		{"scheme without checksums", Config{NB: 16, Scheme: NewScheme}, true},
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
