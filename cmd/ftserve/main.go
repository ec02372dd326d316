// Command ftserve exposes the internal/service decomposition scheduler
// over HTTP/JSON: clients submit factorization/solve jobs, poll for
// results, scrape metrics (/metrics, Prometheus text or JSON), download
// per-job Chrome traces (/trace), and — with -pprof — profile the server
// itself. Every job runs exactly as its request says; the flags size the
// scheduler, not the jobs.
//
//	ftserve -addr :8080 -workers 4 -queue 256
//	curl -s -X POST localhost:8080/v1/jobs -d '{"decomp":"cholesky","n":256,"seed":7,"rhs_seed":1,"trace":true}'
//	curl -s localhost:8080/v1/jobs/1
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/trace?id=1 > trace.json   # load into Perfetto
//
// Seeded open-loop traffic against the same scheduler, clean and with
// faults, is the serve-small and serve-faults workloads of cmd/ftbench:
//
//	bash cmd/ftbench/bench.sh --workload serve-faults --seconds 5 --trace 0
//
// The endpoint table in README.md is generated by `ftserve -print-endpoints`;
// see OBSERVABILITY.md for the full observability walkthrough.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ftla"
	"ftla/internal/obs"
	"ftla/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		workers  = flag.Int("workers", 0, "concurrent jobs (0 = auto)")
		queue    = flag.Int("queue", 256, "admission queue depth")
		cache    = flag.Int("cache", 128, "factorization cache entries")
		retries  = flag.Int("max-attempts", 3, "factorization attempts per job (1 = no retry)")
		enablePP = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		printEP  = flag.Bool("print-endpoints", false, "print the endpoint table as markdown and exit")
		printFl  = flag.Bool("print-flags", false, "print the flag table as markdown and exit")
		attemptT = flag.Duration("attempt-timeout", 0, "per-attempt wall-clock bound (0 = none); hung attempts are reaped and retried")
		batchMax = flag.Int("batch-max", 0, "max jobs coalesced into one batched dispatch (0 = service default of 16, 1 = disable batching)")
	)
	flag.Parse()
	if *printEP {
		printEndpoints(os.Stdout)
		return
	}
	if *printFl {
		printFlags(os.Stdout)
		return
	}

	srv := &server{
		sched: service.New(service.Config{
			Workers:        *workers,
			QueueDepth:     *queue,
			CacheEntries:   *cache,
			Retry:          service.RetryPolicy{MaxAttempts: *retries},
			AttemptTimeout: *attemptT,
			BatchMax:       *batchMax,
		}),
		jobs: make(map[uint64]*service.JobHandle),
	}
	log.Printf("ftserve listening on %s", *addr)
	log.Fatal(http.ListenAndServe(*addr, srv.mux(*enablePP)))
}

// endpoint is one row of the server's endpoint table — the single source
// of truth for both mux registration and the generated documentation
// (README's "Serving" table comes from `ftserve -print-endpoints`).
type endpoint struct {
	Method string // for the docs; handlers do their own method checks
	Path   string // as documented; pattern, when set, is what the mux gets
	Desc   string

	pattern string
	handler http.HandlerFunc
}

// endpoints returns the endpoint table. Doc-only rows (nil handler) name
// alternate shapes of a registered pattern; the pprof row registers only
// when enabled but is always documented.
func (s *server) endpoints(enablePprof bool) []endpoint {
	eps := []endpoint{
		{Method: "POST", Path: "/v1/jobs", Desc: "submit a factorization/solve job (see jobRequest fields)", handler: s.jobsRoot},
		{Method: "GET", Path: "/v1/jobs/{id}", Desc: "poll a job (also `GET /v1/jobs?id=N`)", pattern: "/v1/jobs/", handler: s.jobByPath},
		{Method: "GET", Path: "/v1/stats", Desc: "aggregate serving statistics (JSON)", handler: s.stats},
		{Method: "GET", Path: "/metrics", Desc: "metrics registries, Prometheus text format (`?format=json` for JSON)", handler: s.metrics},
		{Method: "GET", Path: "/trace", Desc: "Chrome trace-event JSON for a finished job (`?id=N`; submit with `\"trace\": true`)", handler: s.trace},
		{Method: "GET", Path: "/healthz", Desc: "liveness probe", handler: func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		}},
	}
	pp := endpoint{Method: "GET", Path: "/debug/pprof/", Desc: "Go runtime profiles (requires `-pprof`)"}
	if enablePprof {
		pp.handler = pprof.Index
	}
	return append(eps, pp)
}

// mux builds the serve mux from the endpoint table.
func (s *server) mux(enablePprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	for _, ep := range s.endpoints(enablePprof) {
		if ep.handler == nil {
			continue
		}
		pat := ep.pattern
		if pat == "" {
			pat = ep.Path
		}
		mux.HandleFunc(pat, ep.handler)
	}
	if enablePprof {
		// pprof.Index only serves the profile list; the helpers below need
		// their own routes.
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// printEndpoints renders the endpoint table as a markdown table — pasted
// into README.md by `go run ./cmd/ftserve -print-endpoints`.
func printEndpoints(w *os.File) {
	fmt.Fprintln(w, "| Method | Path | Description |")
	fmt.Fprintln(w, "|--------|------|-------------|")
	var s server
	for _, ep := range s.endpoints(true) {
		fmt.Fprintf(w, "| %s | `%s` | %s |\n", ep.Method, ep.Path, ep.Desc)
	}
}

// printFlags renders the registered flag set as a markdown table — pasted
// into README.md by `go run ./cmd/ftserve -print-flags` (the readmelint
// step of scripts/check.sh fails when the README table misses a flag).
func printFlags(w *os.File) {
	fmt.Fprintln(w, "| Flag | Default | Description |")
	fmt.Fprintln(w, "|------|---------|-------------|")
	flag.VisitAll(func(f *flag.Flag) {
		def := f.DefValue
		if def == "" {
			def = `""`
		}
		usage := strings.ReplaceAll(f.Usage, "|", "\\|")
		fmt.Fprintf(w, "| `-%s` | `%s` | %s |\n", f.Name, def, usage)
	})
}

// server adapts the scheduler to HTTP and remembers submitted handles so
// clients can poll by id.
type server struct {
	sched *service.Scheduler
	mu    sync.Mutex
	jobs  map[uint64]*service.JobHandle
}

// jobRequest is the POST /v1/jobs body. The operator comes either inline
// ("matrix") or generated ("n"+"seed"); the right-hand side likewise
// ("b" or "rhs_seed" — omit both for factorize-only jobs).
type jobRequest struct {
	Decomp     string      `json:"decomp"` // cholesky | lu | qr
	N          int         `json:"n"`
	Seed       uint64      `json:"seed"`
	Matrix     [][]float64 `json:"matrix"`
	B          []float64   `json:"b"`
	RHSSeed    *uint64     `json:"rhs_seed"`
	GPUs       int         `json:"gpus"`
	NB         int         `json:"nb"`
	Protection string      `json:"protection"` // full (default) | single | none
	Priority   string      `json:"priority"`   // batch (default) | normal | interactive
	TimeoutMS  int         `json:"timeout_ms"`
	NoCache    bool        `json:"no_cache"`
	// CheckpointEvery snapshots the factorization every k verified ladder
	// steps so retries resume mid-run instead of restarting (0 = off).
	CheckpointEvery int `json:"checkpoint_every"`
	// RebalanceEvery re-splits the trailing block columns across GPUs by
	// measured throughput every k ladder steps (0 = off).
	RebalanceEvery int `json:"rebalance_every"`
	// Nodes spreads the job's GPUs round-robin over this many cluster nodes
	// with erasure-coded parity across them (0 or 1 = the flat single box;
	// the GPUs must divide evenly).
	Nodes int `json:"nodes"`
	// Redundancy is the erasure-code parity depth r on a cluster topology:
	// up to r whole-node losses are reconstructed bit-exactly (0 = r=1;
	// must stay below the node count).
	Redundancy int `json:"redundancy"`
	// Trace requests a per-job observability trace, downloadable from
	// /trace?id=<job> as Chrome trace-event JSON once the job finishes.
	Trace bool `json:"trace"`
}

func (r *jobRequest) toSpec() (service.JobSpec, error) {
	spec := service.JobSpec{NoCache: r.NoCache, Trace: r.Trace}
	switch strings.ToLower(r.Decomp) {
	case "", "cholesky":
		spec.Decomp = service.Cholesky
	case "lu":
		spec.Decomp = service.LU
	case "qr":
		spec.Decomp = service.QR
	default:
		return spec, fmt.Errorf("unknown decomp %q", r.Decomp)
	}
	switch {
	case r.Matrix != nil:
		spec.A = ftla.FromRows(r.Matrix)
	case r.N > 0:
		spec.A = generate(spec.Decomp, r.N, r.Seed)
	default:
		return spec, fmt.Errorf("need \"matrix\" or \"n\"")
	}
	switch {
	case r.B != nil:
		spec.B = r.B
	case r.RHSSeed != nil:
		b := ftla.Random(spec.A.Rows, 1, *r.RHSSeed)
		spec.B = make([]float64, spec.A.Rows)
		for i := range spec.B {
			spec.B[i] = b.At(i, 0)
		}
	}
	spec.Config = ftla.Config{GPUs: r.GPUs, NB: r.NB}
	switch strings.ToLower(r.Protection) {
	case "", "full":
	case "single":
		spec.Config.Protection, spec.Config.Scheme = ftla.SingleSide, ftla.NewScheme
	case "none":
		spec.Config = ftla.Unprotected(r.GPUs)
		spec.Config.NB = r.NB
	default:
		return spec, fmt.Errorf("unknown protection %q", r.Protection)
	}
	spec.Config.CheckpointEvery = r.CheckpointEvery
	spec.Config.Rebalance = ftla.RebalanceConfig{Every: r.RebalanceEvery}
	spec.Config.Nodes = r.Nodes
	spec.Config.Redundancy = r.Redundancy
	switch strings.ToLower(r.Priority) {
	case "", "batch":
		spec.Priority = service.Batch
	case "normal":
		spec.Priority = service.Normal
	case "interactive":
		spec.Priority = service.Interactive
	default:
		return spec, fmt.Errorf("unknown priority %q", r.Priority)
	}
	return spec, nil
}

func generate(d service.Decomp, n int, seed uint64) *ftla.Matrix {
	switch d {
	case service.Cholesky:
		return ftla.RandomSPD(n, seed)
	case service.LU:
		return ftla.RandomDiagDominant(n, seed)
	default:
		return ftla.Random(n, n, seed)
	}
}

// jobStatus is the poll response.
type jobStatus struct {
	ID       uint64  `json:"id"`
	State    string  `json:"state"` // pending | done | failed
	Outcome  string  `json:"outcome,omitempty"`
	Residual float64 `json:"residual,omitempty"`
	Attempts int     `json:"attempts,omitempty"`
	Resumed  int     `json:"resumed,omitempty"`
	CacheHit bool    `json:"cache_hit,omitempty"`
	// Coalesced is the size of the batched dispatch that served the job
	// (0 when it ran solo).
	Coalesced int       `json:"coalesced,omitempty"`
	WaitMS    float64   `json:"wait_ms,omitempty"`
	RunMS     float64   `json:"run_ms,omitempty"`
	X         []float64 `json:"x,omitempty"`
	Error     string    `json:"error,omitempty"`
}

func (s *server) jobsRoot(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.submit(w, r)
	case http.MethodGet:
		id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "missing or bad id")
			return
		}
		s.poll(w, id)
	default:
		httpError(w, http.StatusMethodNotAllowed, "POST or GET")
	}
}

func (s *server) jobByPath(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), 10, 64)
	if err != nil {
		httpError(w, http.StatusNotFound, "bad job id")
		return
	}
	s.poll(w, id)
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	spec, err := req.toSpec()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	}
	h, err := s.sched.Submit(ctx, spec)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		code := http.StatusBadRequest
		if err == service.ErrQueueFull {
			code = http.StatusTooManyRequests // backpressure to the client
		} else if err == service.ErrClosed {
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, err.Error())
		return
	}
	if cancel != nil {
		go func() { <-h.Done(); cancel() }()
	}
	s.mu.Lock()
	s.jobs[h.ID] = h
	s.mu.Unlock()
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, jobStatus{ID: h.ID, State: "pending"})
}

func (s *server) poll(w http.ResponseWriter, id uint64) {
	s.mu.Lock()
	h, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	res, err, terminal := h.Poll()
	st := jobStatus{ID: id, State: "pending"}
	switch {
	case !terminal:
	case err != nil:
		st.State, st.Error = "failed", err.Error()
	default:
		st.State = "done"
		st.Outcome = res.Outcome.String()
		st.Residual = res.Residual
		st.Attempts = res.Attempts
		st.Resumed = res.Resumed
		st.CacheHit = res.CacheHit
		st.Coalesced = res.Coalesced
		st.WaitMS = float64(res.Wait) / float64(time.Millisecond)
		st.RunMS = float64(res.Run) / float64(time.Millisecond)
		st.X = res.X
	}
	writeJSON(w, st)
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.sched.Stats())
}

// metrics serves both registries — the process-wide obs default (library
// instrumentation: phases, flops, PCIe, checksum counters) and the
// scheduler's private registry (job/queue/cache/pool metrics). Family
// names are disjoint, so the concatenation is a valid exposition.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, map[string]obs.Snapshot{
			"process":   obs.Default().Snapshot(),
			"scheduler": s.sched.Registry().Snapshot(),
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.Default().WritePrometheus(w); err != nil {
		return
	}
	s.sched.Registry().WritePrometheus(w)
}

// trace serves a finished job's observability trace as Chrome trace-event
// JSON (load into Perfetto / chrome://tracing).
func (s *server) trace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "missing or bad id")
		return
	}
	s.mu.Lock()
	h, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	res, jerr, terminal := h.Poll()
	switch {
	case !terminal:
		httpError(w, http.StatusConflict, "job still running")
	case jerr != nil:
		httpError(w, http.StatusNotFound, "job failed: "+jerr.Error())
	case res.Trace == nil:
		httpError(w, http.StatusNotFound, `job was not traced; submit with "trace": true`)
	default:
		w.Header().Set("Content-Type", "application/json")
		res.Trace.WriteChrome(w)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.WriteHeader(code)
	writeJSON(w, map[string]string{"error": msg})
}
