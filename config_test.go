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

// The *On entry points must run on exactly the provided system: its
// simulated clocks advance, and a second run after Reset reproduces the
// same factor (system reuse is deterministic).
func TestCholeskyOnProvidedSystem(t *testing.T) {
	cfg := Config{GPUs: 2, NB: 16}
	sys := NewSystem(cfg)
	a := RandomSPD(64, 5)
	res, err := CholeskyOn(sys, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual(a) > 1e-10 {
		t.Fatalf("residual %g", res.Residual(a))
	}
	if sys.TimelineMakespan() <= 0 {
		t.Fatal("provided system saw no simulated work")
	}
	sys.Reset()
	res2, err := CholeskyOn(sys, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		for j := 0; j <= i; j++ {
			if res.L.At(i, j) != res2.L.At(i, j) {
				t.Fatalf("reused system not deterministic at (%d,%d)", i, j)
			}
		}
	}
}
