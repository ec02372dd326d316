#!/usr/bin/env bash
# Tier-1 gate: everything must build, vet clean, be gofmt'd, keep its
# godoc contract, and pass the full test suite under the race detector
# (the serving layer is concurrency-heavy; a non-race run is not a
# passing run).
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# cmd/ftbench is its own module (the repository benchmark), so the root
# ./... patterns above and below do not reach it.
go -C cmd/ftbench vet .

# Portable GEMM path: off amd64 internal/blas runs its Go loops alone, so
# vet it for arm64 to keep that path building.
GOARCH=arm64 go vet ./internal/blas

# No-FMA lint: fused multiply-add changes the factor bits the fingerprint
# gate pins, so the GEMM assembly multiplies and adds separately.
if grep -nE 'VFMADD' internal/blas/*.s; then
    echo "internal/blas assembly must not use VFMADD: fused multiply-add" >&2
    echo "changes the factor bits the fingerprint gate pins" >&2
    exit 1
fi

# Formatting: gofmt -l prints offending files; any output is a failure.
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Documentation lint: every exported identifier of the public ftla package
# and of every internal package must carry a doc comment — the metric
# names, trace schema, job API, platform and driver APIs, and the fault,
# model and report types the experiment commands print are all read
# through their godoc.
go run ./scripts/doclint . internal/*

# README lint: the config-reference and ftserve-flag tables in README.md
# must cover every exported ftla.Config field and every registered flag,
# and list nothing else (regenerate the flag table with
# `go run ./cmd/ftserve -print-flags`).
go run ./scripts/readmelint

# Reliable-transfer lint: ALL of internal/core must move data through the
# reliable path (sys.TransferReliable), never the raw sys.Transfer — a raw
# call is a hole in the link-fault protection the factorization depends
# on. See RESILIENCE.md.
if grep -rnE 'sys\.Transfer\(' internal/core/; then
    echo "internal/core must use the reliable-transfer path" >&2
    echo "(sys.TransferReliable), never raw sys.Transfer" >&2
    exit 1
fi

# Galois-field lint: internal/gf is the erasure code's arithmetic kernel
# and must stay dependency-free (standard library only) — it is the one
# piece of the coded-redundancy layer that is independently auditable
# against the GF(2^8) literature, and an ftla import would drag simulator
# state into pure field arithmetic. See DESIGN.md §11.
if grep -rnE '"ftla(/|")' internal/gf/; then
    echo "internal/gf must stay dependency-free (stdlib only): the erasure" >&2
    echo "code's field arithmetic cannot import the rest of the tree" >&2
    exit 1
fi

go test -race -timeout 5m ./...
go -C cmd/ftbench test -race -timeout 5m .

# Chaos gate: the fail-stop/graceful-degradation suites (see RESILIENCE.md)
# run a second time at -count=2 to shake out order- and reuse-dependent
# flakiness (pool reuse of repaired systems, goroutine leaks).
go test -race -timeout 5m -run 'Chaos|Storm' -count=2 ./...

# Recovery gate: the checkpoint/rollback/resume suites — the bit-identity
# invariant (a run killed by device loss and resumed from its checkpoint
# equals an uninterrupted run on the same final device set) and the
# rollback-instead-of-abort path — run a second time at -count=2 under
# -race; resume replays are the newest state machine in the step runtime.
go test -race -timeout 5m -run 'TestResume|TestRollback|TestCheckpoint' -count=2 ./internal/core

# Determinism gate: the ladder fingerprint sweep pins the factor bits and
# simulated makespan of every row, unrecoverable runs included, and the
# layout sweep pins the migration, node-loss adoption and resume paths.
# Each of the three runs draws a fresh Go map iteration order, so a repair
# or layout decision that follows map order fails here. The look-ahead
# determinism test repeats each configuration on fresh systems, so a clock
# that bills an operation by wall-clock interleaving fails here too.
go test -timeout 5m -run 'TestLadderFingerprints|TestLayoutFingerprints|TestLookaheadDeterminism' -count=3 ./internal/core

# Fault-promise fuzz: FuzzFaultPromise crosses configuration (decomposition,
# nb, GPUs, nodes, r, look-ahead, checkpoints, rebalancing) with one soft
# error, one transient link plan and one node burst, and checks that a
# completed job is correct or carries a typed error. Its committed seeds
# already run in the suites above; this bounded run explores new inputs.
# A failing input is written under internal/core/testdata/fuzz/.
go test -run '^$' -fuzz '^FuzzFaultPromise$' -fuzztime 30s ./internal/core

# Schedule gate: the step-runtime and stream suites run a second time at
# -count=2 — look-ahead interleavings are the newest concurrency in the
# tree, and reuse across -count runs exercises stream/pool recycling. The
# injected sweep (TestPipelineInjectionScheduleInvariant) and the batch
# pin's injected items apply on-chip corruption inside launched stream
# closures, so both run here under the detector. The link-clock rules
# (TestLinkClock: per-link and fabric frontiers, the pending arrival
# frontier that kernels and stream launches wait for) are the clock those
# schedules run on, so they repeat here too.
go test -race -timeout 5m -run 'TestPipeline|TestStream|TestBatchBitIdentity|TestLinkClock' -count=2 ./internal/core ./internal/hetsim

# Makespan gate: the look-ahead speedup assertion is skipped under -race
# (the race runtime's ~10-20x slowdown makes the n=2560 run impractical),
# so run it here without the detector. This is the only place the ≥15%
# overlap-improvement acceptance criterion is checked.
go test -timeout 5m -run 'TestPipelineLookaheadHidesPanelWork' ./internal/core

# Rebalance gate: dynamic partitioning must claw back >=40% of the
# makespan inflation a 4x straggler causes, per decomposition, and be
# bit-identical to the static layout on uniform devices (the identity
# half lives in the core suite above). The assertion is on the simulated
# clock, so it holds under -race — and the rebalance/migration path is
# new concurrency worth running under the detector. Gates only assert;
# BenchmarkRebalance regenerates BENCH_rebalance.json.
go test -race -timeout 5m -run 'TestRebalanceMakespanGate' .

# Link-fault recovery gate: with fixed-rate corruption armed on 1 of 3
# links, >=90% of jobs across all three decompositions must complete with
# no job-level retry and every completed factor must be bit-identical to a
# clean run (zero silent corruption); exhausted links must surface typed
# *LinkError. -count=2 shakes out state leaking between runs through the
# process-global metrics and pooled systems.
go test -race -timeout 5m -run 'TestLinkFaultRecoveryGate' -count=2 .

# Batch-throughput gate: batched small-matrix serving must amortize
# per-step transfer latency — simulated-clock throughput must rise
# monotonically with batch size and reach >=2x solo throughput at batch
# 16 (BenchmarkBatchThroughput regenerates BENCH_batch.json). Run without
# -race for the same reason as the makespan gate: the assertion is on
# simulated time, not wall time.
go test -timeout 5m -run 'TestBatchThroughputGate' .

# Node-loss recovery gate: on a fleet of 3-node cluster jobs where a third
# lose one node mid-run (absorbed in place by the erasure-coded parity)
# and a third lose two (failover ladder: release the system, carve the
# node out, retry degraded), >=90% of jobs must complete and not one completed job
# may carry a silently wrong factor. The bit-identity half of the claim
# (reconstructed == uninterrupted, to the bit) lives in the core suite
# (TestClusterNodeLossReconstructBitIdentical), which the full -race run
# above already covers; -count=2 here shakes out pool state leaking
# between runs.
go test -race -timeout 5m -run 'TestNodeLossRecoveryGate' -count=2 ./internal/service

# Multi-node-loss recovery gate: a fleet of r=2 cluster jobs on 4-node
# platforms absorbing one loss, two sequential losses, and two-node
# correlated bursts — every loss inside the redundancy budget, so >=90%
# of jobs must complete, zero may carry a silently wrong factor, and the
# failover ladder must never engage (the losses are absorbed BELOW the
# jobs by the [k+r, k] erasure decode). The bit-identity half
# (double-loss reconstruction == uninterrupted, to the bit, sequential
# AND simultaneous) lives in the core suite
# (TestClusterDoubleNodeLossBitIdentical), covered by the full -race run
# above; -count=2 here shakes out pool state leaking between runs.
go test -race -timeout 5m -run 'TestMultiNodeLossRecoveryGate' -count=2 ./internal/service
