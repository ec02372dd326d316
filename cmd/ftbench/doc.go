// Command ftbench is the repository benchmark: one command that drives the
// fault-tolerant decompositions through their public entry points, checks
// every output, and prints every end-to-end metric by name with its unit.
//
// # Running
//
// ftbench is a module of its own (go.mod here replaces ftla with the
// surrounding tree), so the root `go build ./...` and `go test ./...` do not
// see it: a change to the internal APIs it calls must be checked with the
// commands below as well. From the repository root:
//
//	bash cmd/ftbench/bench.sh -seed 1                  # all four workloads
//	bash cmd/ftbench/bench.sh -workload serve-small -seed 2 -seconds 15
//	bash cmd/ftbench/bench.sh -seed 1 -trace 1 -trace-dir /tmp/spans
//	bash cmd/ftbench/bench.sh compare A.json B.json
//	go -C cmd/ftbench vet .
//	go -C cmd/ftbench test -race .                     # smoke test, toy sizes
//
// bench.sh builds into .bench_build/ and runs the binary; `go -C
// cmd/ftbench run . -seed 1` works too. Each workload runs in its own child
// process (its peak RSS is mem_mb) with GOMAXPROCS = nproc. Inputs, arrival
// times and fault draws all derive from -seed; the program under test only
// receives the generated inputs. The header line records the seed,
// GOMAXPROCS, nproc, Go version and VCS revision. The last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"};
// with several workloads its metric names are prefixed "<workload>/".
//
// -trace 1 runs each workload a second time with spans kept in memory: one
// span per benchmark call into a layer (a job from due to done, with
// children for submit, queue wait and run; a library call, with children
// for the encode, verify and recover time its Report measured; every
// per-layer suite call). The traced run computes each layer's self time and
// per-call obs snapshot diffs, prints the per-layer table, and reports the
// per-layer metrics instead of the end-to-end ones; -trace-dir writes the
// spans as DIR/<workload>.spans.json at exit. End-to-end numbers and the
// wall-clock bench.* diagnostics always come from the untraced run;
// bench.trace_overhead_pct is how much the traced run's median latency
// exceeds it.
//
// compare reads two files of result lines (append the output of repeated
// runs, alternating the parent and the change) and applies the rule of the
// choosing-metrics guide, §8: for each (metric, workload) it prints both
// sides' median and quartiles, the share of pairs the change won, and a
// verdict — improved (at least ten pairs, 90% of them won, and the median
// moved by more than the parent's quartile spread), regressed (median worse
// than the bound in BENCHMARK.json allows), unresolved (fewer than ten pairs
// behind an apparent gain, or the parent's own spread wider than the bound
// without the change beating every parent run), or unchanged. A per-layer
// metric has no bound, so its verdict is improved or "-". Run compare on
// -trace 1 results to judge the wall-clock bench.* diagnostics.
//
// # Workloads
//
// Load comes from one process with scheduler Workers: 2. Each workload
// measures for -seconds (BENCHMARK.json run_seconds).
//
//   - factor-large, closed loop, 1 client: ftla.{Cholesky,LU,QR}
//     round-robin over 4 inputs each, n=768, nb=64, 2 GPUs, full checksums
//     with the new scheme, look-ahead 1. Trailing-update BLAS and checksum
//     verification dominate wall time, with no service and no parity, so
//     GEMM, checksum-fusion and step-runtime changes show here.
//   - cluster-loss, closed loop, 1 client: n=512, nb=32, 4 GPUs on 4 nodes,
//     redundancy 2; every (decomposition, input) cycles through clean, one
//     node lost at epoch 2, and a two-node burst at epoch 2. Inter-node
//     traffic dominates the simulated clock and GF(2^8) parity refresh and
//     reconstruction run on every step, so hierarchical-broadcast,
//     parity-folding and gf changes show here; the flat workloads should
//     not move.
//   - serve-small, open loop: Poisson 1000 jobs/s (under half the measured
//     capacity) for 80% of the run, then a saturation burst for the rest.
//     n=64, nb=32, 2 GPUs, every job factorizes (NoCache), round-robin
//     decompositions, each job with a right-hand side. Per-job fixed costs
//     dominate — queueing, coalescing into batched dispatches, the system
//     pool, tiny PCIe transfers — and BLAS is negligible, so scheduler,
//     batch and transfer-overhead changes show here and GEMM changes
//     should not.
//   - serve-faults, open loop: Poisson 300 jobs/s, then a burst. n=128,
//     nb=32, 2 GPUs, 8 hot operators per decomposition with solves. In every
//     12 jobs: 2 link-corrupt plans (absorbed by retransmission), 1
//     correctable TMU computation fault, 1 crash just after the first
//     checkpoint (CheckpointEvery 1, so the retry resumes), 1 unrepairable
//     double DRAM fault under single-side protection (the retry restarts),
//     and 7 clean jobs served from the cache. The clean path's layers run
//     through their recovery paths and the cache, so a change that speeds
//     clean runs by slowing recovery or reuse shows here.
//
// # End-to-end metrics
//
// Every end-to-end metric applies to every workload and carries a
// regression bound in BENCHMARK.json.
//
//   - setup_s: the median of repeated set-ups, each from scheduler
//     construction through one warm-up job per (decomposition, variant),
//     repeated at least five times and for a fifth of the measured seconds;
//     the benchmark's own input generation is excluded. Bound 25%, the
//     largest: it is wall-clock time (see below).
//   - sim_ms_per_job: simulated makespan per factorization in simulated ms,
//     over the measured phase (the open phase of a service workload). A
//     batched dispatch's makespan is split evenly over its jobs, so batching
//     shows; a cache hit factors nothing and is left out. Bound 10%: how
//     many open-phase jobs coalesce depends on host speed, so the value
//     spread 2–3% over ten seeds on serve-small and 1–1.5% on serve-faults,
//     against 0.2% on the library workloads.
//   - mem_mb: peak RSS of the workload process. Bound 10%; it spread 2–8%
//     over ten seeds, most on the service workloads, whose backlog and
//     garbage grow whenever the host stalls.
//
// Wall-clock time and rates are diagnostics, not bounded metrics.
// Neighbours on a shared host slow execution itself, not just scheduling
// (a process's CPU time grows with its wall time), for stretches of seconds
// to many minutes. On the 2-vCPU reference VM a fixed one-thread kernel's
// 2-second means ranged from 1.43 to 1.98 ms; across ten runs of each
// workload the medians and p90s of factor time and latency spread 10–27%
// (quartile distance over median), the saturation burst's completion rate
// up to 26%, and even each decomposition's fastest call 6–19%. None of
// them could hold a 10% bound, so they are printed with every run and
// reported as per-layer bench.* metrics: bench.gflops (nominal flops n³/3, 2n³/3, 4n³/3 over the time of
// the library calls, on the library workloads), bench.factor_ms_p50/_p90
// (the library call, or JobResult.Run for a service job), bench.latency_ms
// _p50/_p90/_p99 with the sample count (from when an open-loop job was due
// to when it completed), bench.slo_ok_frac (share of the open phase's
// attempted jobs done within 10 ms on serve-small and 25 ms on
// serve-faults; a failed or rejected job misses it) and bench.jobs_per_s
// (calls per second of the closed loop, or the completion rate of the
// saturation burst). Judge a change to them with compare over ten or more
// alternating pairs. setup_s is the one wall-clock end-to-end metric, so
// that work moved into set-up shows. Its median over repetitions spread
// 9–35% over ten seeds, and the medians of two such sets taken a quarter
// of an hour apart differed by 3–48% when the host slowed in between:
// only sets that alternate runs, as compare expects, agree within its
// bound.
//
// The error rate (failed, rejected or incorrect jobs over attempted) is
// printed with every workload and reported as bench.error_rate; it is not an
// end-to-end metric because a healthy run reads 0, which no relative bound
// can guard. Any failure makes "correct" false and the exit code nonzero.
//
// # Correctness
//
// At set-up every clean (decomposition, input) is solve-checked and its
// factor bits, pivots and reflector coefficients hashed. Every timed library
// run must reproduce that hash — cluster-loss node-loss runs included, as
// TestClusterDoubleNodeLossBitIdentical pins — and every service job's
// solution must satisfy ‖A·x − b‖/‖b‖ ≤ 1e-8.
//
// # Layers
//
// Per-layer metrics are prefixed with the module they measure. Suites time
// calls into each layer at the workload's shapes: the trailing update
// (n−nb)×nb · nb×(n−nb)/GPUs, the n×nb panel, the n×n checksum strips, and
// an n×nb parity column. Counts per job are obs.Default() snapshot diffs
// over the measured phase divided by the jobs attempted. A metric of a layer
// a workload does not reach reads 0 in the result line and is not printed.
// Which metric each layer should move, and where it should not (bench.*
// names are the wall-clock diagnostics above):
//
//	layer     metrics                                         should move                            predicted flat on
//	blas      gemm/trsm/syrk_gflops, flops_per_job            bench.gflops, bench.factor_ms_* on     serve-small
//	                                                          factor-large
//	lapack    panel_ms                                        bench.factor_ms_p50 on factor-large    serve-small
//	checksum  encode/verify_gbps, {encode,verify,recover}     bench.factor_ms_* on factor-large;     cluster-loss sim_ms_per_job
//	          _ms_per_job, abft_share, blocks_verified_per    bench.latency_ms_p90 on serve-faults
//	          _job, mismatches_per_job
//	gf        mulword_gbps, parity_bytes_per_job              bench.factor_ms_p50, sim_ms_per_job    every flat workload
//	                                                          on cluster-loss
//	hetsim    transfer_us, reliable_transfer_us,              sim_ms_per_job on cluster-loss and     factor-large bench.gflops
//	          reliable_overhead, pcie_bytes/transfers/        serve-small; bench.latency_ms_p50,
//	          internode_bytes/pcie_sim_ms/retransmits         bench.jobs_per_s on serve-small
//	          _per_job, sim_spread_rel
//	core      factorize_ms/reconstructions/checkpoints/       bench.factor_ms_p50 on factor-large,   -
//	          rollbacks_per_job                               cluster-loss
//	service   submit_us_p50, queue_ms_p50/_p90,               bench.latency_ms_*, bench.jobs_per_s   factor-large, cluster-loss
//	          run_ms_p50/_p90, batch_size_mean,               on serve-*; sim_ms_per_job on
//	          coalesced_frac, cache_hit_frac,                 serve-small (batching)
//	          attempts_per_job, resumed_frac,
//	          pool_reuse_frac, rejected
//	bench     gflops, factor_ms_p50/_p90, latency_ms_p50/     end-to-end diagnostics; validity of    -
//	          _p90/_p99, slo_ok_frac, jobs_per_s,             the run
//	          gen_late_ms_p99/_max, input_gen_s,
//	          trace_overhead_pct, error_rate
//
// hetsim.sim_spread_rel is the largest (max−min)/min of the simulated
// makespan over identical runs; it reads about 6% on LU/QR today and is the
// target of the deterministic-clock work. gen_late_* is how late the
// open-loop generator submitted jobs; a large value means the host, not the
// service, set the latency.
//
// The BENCH_*.json gates of the root package are separate: this command
// neither reads nor writes them, and writes nothing into the tree.
package main
