package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
)

// ladderFingerprintsFile pins the observable behavior of the three ladders
// across protection configurations, fault kinds and schedules. It is a
// golden file: any change to it means a refactor changed bits, counters,
// traffic, work or the simulated clock.
const ladderFingerprintsFile = "testdata/ladder_fingerprints.txt"

// fingerprintCase is one row of the ladder sweep.
type fingerprintCase struct {
	decomp    string
	mode      Mode
	scheme    Scheme
	specs     []fault.Spec
	lookahead int
	periodic  int
	ckEvery   int
}

func (c fingerprintCase) label() string {
	f := "clean"
	if len(c.specs) > 0 {
		var ds []string
		for _, s := range c.specs {
			ds = append(ds, s.Describe())
		}
		f = strings.Join(ds, "+")
	}
	return fmt.Sprintf("%s %v/%v la=%d ptc=%d ck=%d %s",
		c.decomp, c.mode, c.scheme, c.lookahead, c.periodic, c.ckEvery, f)
}

// fingerprintCases enumerates the sweep: every decomposition under every
// protected configuration, clean and with each fault kind striking PD, PU
// (Cholesky and LU: QR has no PU) and TMU at iteration 2, plus unprotected
// clean runs, one periodic-trailing-check row and one checkpointing row per
// decomposition — all under both schedules.
func fingerprintCases() []fingerprintCase {
	protected := []struct {
		mode   Mode
		scheme Scheme
	}{
		{Full, NewScheme}, {Full, PostOp}, {Full, PriorOp}, {SingleSide, NewScheme},
	}
	kinds := []fault.Kind{fault.Computation, fault.OffChipMemory, fault.OnChipMemory, fault.Communication}
	var out []fingerprintCase
	for _, lookahead := range []int{0, 1} {
		for _, decomp := range []string{"cholesky", "lu", "qr"} {
			ops := []fault.Op{fault.PD, fault.PU, fault.TMU}
			if decomp == "qr" {
				ops = []fault.Op{fault.PD, fault.TMU}
			}
			for _, pc := range protected {
				out = append(out, fingerprintCase{decomp: decomp, mode: pc.mode, scheme: pc.scheme, lookahead: lookahead})
				for _, kind := range kinds {
					for _, op := range ops {
						part := fault.UpdatePart
						if kind == fault.OnChipMemory {
							part = fault.ReferencePart
						}
						spec := fault.Spec{Kind: kind, Op: op, Part: part, Iteration: 2, Bits: 2, Row: -1, Col: -1, GPUTarget: 1}
						out = append(out, fingerprintCase{decomp: decomp, mode: pc.mode, scheme: pc.scheme, specs: []fault.Spec{spec}, lookahead: lookahead})
					}
				}
			}
			out = append(out,
				fingerprintCase{decomp: decomp, mode: NoChecksum, scheme: NoCheck, lookahead: lookahead},
				fingerprintCase{decomp: decomp, mode: Full, scheme: NewScheme, lookahead: lookahead, periodic: 2},
				// Two corrupted elements in one panel column defeat
				// SingleSide's repair, so this row rolls back to the
				// checkpoint taken after step 1.
				fingerprintCase{decomp: decomp, mode: SingleSide, scheme: NewScheme, lookahead: lookahead, ckEvery: 2, specs: []fault.Spec{
					{Kind: fault.OffChipMemory, Op: fault.PD, Part: fault.ReferencePart, Iteration: 2, Row: 1, Col: 0},
					{Kind: fault.OffChipMemory, Op: fault.PD, Part: fault.ReferencePart, Iteration: 2, Row: 2, Col: 0},
				}})
		}
	}
	return out
}

// fingerprintN and fingerprintNB are the order and block size of the
// ladder sweep's runs.
const fingerprintN, fingerprintNB = 128, 16

// run runs the case, row i of the sweep, on a fresh 2-GPU system.
func (c fingerprintCase) run(i int) (out *matrix.Dense, piv []int, tau []float64, res *Result, err error) {
	opts := Options{NB: fingerprintNB, Protection: c.mode, Scheme: c.scheme, Kernel: checksum.OptKernel,
		Lookahead: c.lookahead, PeriodicTrailingCheck: c.periodic, CheckpointEvery: c.ckEvery}
	if len(c.specs) > 0 {
		inj := fault.NewInjector(uint64(1000 + i))
		for _, s := range c.specs {
			inj.Schedule(s)
		}
		opts.Injector = inj
	}
	return runDecomp(c.decomp, testSystem(2), pipelineInput(c.decomp, fingerprintN), opts)
}

// fingerprint runs one case and renders everything a behavior-preserving
// refactor must keep: the bits of the factor and its auxiliary output, the
// full verification/recovery counter, the outcome flags, PCIe traffic,
// flops, and the simulated makespan under both schedules.
func fingerprint(t *testing.T, i int, c fingerprintCase) string {
	t.Helper()
	out, piv, tau, res, err := c.run(i)
	if err != nil {
		return fmt.Sprintf("%s | err=%v", c.label(), err)
	}
	return fmt.Sprintf("%s | bits=%016x %+v det=%t unrec=%t ck=%d rb=%d pcie=%d flops=%d sim=%x",
		c.label(), factorBits(out, piv, tau), res.Counter, res.Detected, res.Unrecoverable,
		res.Checkpoints, res.Rollbacks, res.PCIeBytes, res.Flops, math.Float64bits(res.SimMakespan))
}

// factorBits hashes the bit patterns of a factor and its auxiliary output.
func factorBits(out *matrix.Dense, piv []int, tau []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for b := range buf {
			buf[b] = byte(v >> (8 * b))
		}
		h.Write(buf[:])
	}
	for _, v := range out.Data {
		put(math.Float64bits(v))
	}
	for _, v := range piv {
		put(uint64(v))
	}
	for _, v := range tau {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}

// TestLadderFingerprints compares the sweep against the committed golden
// file line by line. The test never rewrites the file: a row that changes
// is a change in behavior, to be justified rather than regenerated.
func TestLadderFingerprints(t *testing.T) {
	cases := fingerprintCases()
	compareGolden(t, ladderFingerprintsFile, len(cases), func(i int) string { return fingerprint(t, i, cases[i]) })
}

// compareGolden checks rows rows of row(i) against the golden file path.
func compareGolden(t *testing.T, path string, rows int, row func(i int) string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	if len(wantLines) != rows {
		t.Fatalf("golden file has %d rows, sweep has %d", len(wantLines), rows)
	}
	bad := 0
	for i := 0; i < rows; i++ {
		if got := row(i); got != wantLines[i] {
			bad++
			if bad <= 5 {
				t.Errorf("row %d differs:\n got  %s\n want %s", i, got, wantLines[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("%d of %d rows differ", bad, rows)
	}
}

// layoutFingerprintsFile pins the layout paths the ladder sweep never
// reaches on its flat 2-GPU systems: column migration under rebalancing,
// parity adoption after node losses, and resume onto fewer GPUs.
const layoutFingerprintsFile = "testdata/layout_fingerprints.txt"

// layoutScenario is one layout-changing run setup of the layout sweep.
type layoutScenario struct {
	name string
	run  func(decomp string, a *matrix.Dense, opts Options) (*matrix.Dense, []int, []float64, *Result, error)
}

// layoutScenarios enumerates the layout sweep's setups. Each one runs on a
// fresh system, so rows are independent of their order.
func layoutScenarios() []layoutScenario {
	straggler := map[int]hetsim.FaultPlan{1: {Mode: hetsim.FaultStraggler, Slowdown: 4}}
	on := func(sys func() *hetsim.System, set func(*Options)) func(string, *matrix.Dense, Options) (*matrix.Dense, []int, []float64, *Result, error) {
		return func(decomp string, a *matrix.Dense, opts Options) (*matrix.Dense, []int, []float64, *Result, error) {
			set(&opts)
			return runDecomp(decomp, sys(), a, opts)
		}
	}
	return []layoutScenario{
		{"straggler-rebalance g=3", on(func() *hetsim.System { return testSystem(3) }, func(o *Options) {
			o.FailStop = straggler
			o.RebalanceEvery = 1
		})},
		{"straggler-every2 g=3", on(func() *hetsim.System { return testSystem(3) }, func(o *Options) {
			o.FailStop = straggler
			o.RebalanceEvery = 2
		})},
		{"node-loss g=4 nodes=4 r=2 lose=1@2", on(func() *hetsim.System { return clusterSystem(4, 4) }, func(o *Options) {
			o.Redundancy = 2
			o.NodeFault = map[int]hetsim.NodeFaultPlan{1: {AfterEpochs: 2}}
		})},
		{"node-burst g=4 nodes=4 r=2 lose=1,2@3", on(func() *hetsim.System { return clusterSystem(4, 4) }, func(o *Options) {
			o.Redundancy = 2
			o.NodeFault = map[int]hetsim.NodeFaultPlan{1: {AfterEpochs: 3}, 2: {AfterEpochs: 3}}
		})},
		{"straggler-rebalance-node-loss g=6 nodes=3 lose=2@4", on(func() *hetsim.System { return clusterSystem(6, 3) }, func(o *Options) {
			o.FailStop = straggler
			o.RebalanceEvery = 1
			o.NodeFault = map[int]hetsim.NodeFaultPlan{2: {AfterEpochs: 4}}
		})},
		{"checkpoint g=3 resume-mid g=2", func(decomp string, a *matrix.Dense, opts Options) (*matrix.Dense, []int, []float64, *Result, error) {
			var cps []*Checkpoint
			first := opts
			first.CheckpointEvery = 3
			first.OnCheckpoint = func(cp *Checkpoint) { cps = append(cps, cp) }
			if _, _, _, _, err := runDecomp(decomp, testSystem(3), a, first); err != nil {
				return nil, nil, nil, nil, err
			}
			if len(cps) == 0 {
				return nil, nil, nil, nil, fmt.Errorf("no checkpoint taken")
			}
			opts.Resume = cps[len(cps)/2]
			return runDecomp(decomp, testSystem(2), a, opts)
		}},
	}
}

// layoutFingerprint runs one decomposition under one protection config and
// layout scenario at n=192, nb=16 on the serial schedule, and renders the
// factor bits, counters, layout events, traffic, work and simulated clock.
func layoutFingerprint(decomp string, mode Mode, scheme Scheme, sc layoutScenario) string {
	const n = 192
	label := fmt.Sprintf("%s %v/%v %s", decomp, mode, scheme, sc.name)
	opts := Options{NB: 16, Protection: mode, Scheme: scheme, Kernel: checksum.OptKernel}
	out, piv, tau, res, err := sc.run(decomp, pipelineInput(decomp, n), opts)
	if err != nil {
		return fmt.Sprintf("%s | err=%v", label, err)
	}
	return fmt.Sprintf("%s | bits=%016x %+v det=%t unrec=%t rebal=%d moved=%d lost=%d recon=%d pcie=%d inter=%d flops=%d sim=%x",
		label, factorBits(out, piv, tau), res.Counter, res.Detected, res.Unrecoverable,
		res.Rebalances, res.MovedColumns, res.NodesLost, res.Reconstructions,
		res.PCIeBytes, res.InternodeBytes, res.Flops, math.Float64bits(res.SimMakespan))
}

// layoutFingerprintRows renders the layout sweep: every decomposition under
// Full/NewScheme, SingleSide/NewScheme and NoChecksum, in every scenario.
func layoutFingerprintRows() []func() string {
	configs := []struct {
		mode   Mode
		scheme Scheme
	}{{Full, NewScheme}, {SingleSide, NewScheme}, {NoChecksum, NoCheck}}
	var rows []func() string
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		for _, pc := range configs {
			for _, sc := range layoutScenarios() {
				decomp, pc, sc := decomp, pc, sc
				rows = append(rows, func() string { return layoutFingerprint(decomp, pc.mode, pc.scheme, sc) })
			}
		}
	}
	return rows
}

// TestLayoutFingerprints compares the layout sweep against its committed
// golden file; like the ladder pin, it never rewrites the file.
func TestLayoutFingerprints(t *testing.T) {
	rows := layoutFingerprintRows()
	compareGolden(t, layoutFingerprintsFile, len(rows), func(i int) string { return rows[i]() })
}
