// Package obs is the repository's unified observability layer: a
// dependency-free metrics registry (counters, gauges, histograms with
// atomic hot paths) and a span-based tracer that exports Chrome
// trace-event JSON loadable in chrome://tracing or Perfetto.
//
// Before this package existed the repo's telemetry was fragmented —
// hetsim recorded kernel events, blas kept a private flop tally, and the
// serving layer aggregated its own counters — each in a different dialect
// and none exportable. obs is the single substrate all of them now feed:
//
//   - internal/blas counts flops into the default registry
//     (ftla_blas_flops_total),
//   - internal/checksum counts encode-kernel invocations and verification
//     outcomes (ftla_checksum_*),
//   - internal/core attributes wall time to the paper's ABFT phases —
//     encode, factorize, verify, recover — via ObservePhase and emits
//     per-phase spans to an attached Trace,
//   - internal/hetsim charges PCIe traffic and simulated transfer time and
//     emits simulated-clock kernel/transfer spans,
//   - internal/service keys its serving statistics (admissions, outcomes,
//     retries, cache, latency) to a per-scheduler Registry, and
//   - cmd/ftserve exposes everything over HTTP: /metrics (Prometheus text
//     and JSON), /trace (per-job Chrome trace), and opt-in net/http/pprof.
//
// Metric naming follows the Prometheus conventions: snake_case names
// prefixed ftla_, a _total suffix on monotonic counters, base units
// (seconds, bytes) in the name. Phase attribution uses the single label
// "phase" with the values of Phases. See OBSERVABILITY.md at the
// repository root for the full naming table and a worked capture example.
//
// Two clocks coexist in this codebase and obs keeps them distinguishable:
// wall-clock phases (encode/factorize/verify/recover) are measured with
// time.Now on the host, while the pcie phase and all hetsim spans advance
// on the simulated clock (see DESIGN.md §1). Chrome traces separate the
// two into distinct trace processes ("wall" and "sim") so a mixed
// timeline is never presented as one.
//
// Snapshots make the registry diffable: take one before and one after a
// region of interest and Diff yields exactly the work done in between —
// the same mechanism bench_test.go, internal/overhead, and cmd/ftbench
// use to report phase breakdowns from one source of truth.
package obs
