package hetsim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// PCIe traffic metrics, shared across every System in the process (the
// obs default registry is the aggregate view; per-system figures come
// from BytesTransferred/PCIeSimTime).
var (
	pcieBytes      = obs.Default().Counter(obs.MetricPCIeBytes, "Total simulated PCIe traffic in bytes.")
	pcieTransfers  = obs.Default().Counter(obs.MetricPCIeTransfers, "Simulated PCIe transfers executed.")
	internodeBytes = obs.Default().Counter(obs.MetricInternodeBytes, "Total simulated inter-node interconnect traffic in bytes.")
)

// Config describes the simulated node. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	// NumGPUs is the number of simulated GPU devices (>= 1).
	NumGPUs int
	// CPUWorkers and GPUWorkers size the per-device goroutine pools that
	// stand in for CPU cores and GPU SMs.
	CPUWorkers int
	GPUWorkers int
	// CPUGflops and GPUGflops drive the simulated clock. They only affect
	// reported simulated times, never results.
	CPUGflops float64
	GPUGflops float64
	// PCIeGBps and PCIeLatencyUS drive the simulated communication clock.
	PCIeGBps      float64
	PCIeLatencyUS float64
	// MaxRetransmits caps TransferReliable's retransmission budget per
	// transfer; 0 means DefaultMaxRetransmits.
	MaxRetransmits int
	// Nodes partitions the GPUs into that many nodes: groups of devices
	// behind a slower inter-node interconnect. GPU g lives on node
	// g % Nodes (round-robin, so a block-cyclic column layout spreads
	// consecutive columns across nodes), the CPU coordinates from node 0,
	// and NumGPUs must be a multiple of Nodes. 0 or 1 selects the flat
	// single-box system, whose behavior is bit-identical to a topology-free
	// configuration.
	Nodes int
	// InterGBps and InterLatencyUS drive the inter-node interconnect
	// clock: transfers whose endpoints live on different nodes are billed
	// at this slower tier instead of the PCIe tier. Zero selects
	// DefaultInterGBps/DefaultInterLatencyUS when Nodes > 1; both are
	// ignored on a single-node system.
	InterGBps      float64
	InterLatencyUS float64
}

// Inter-node interconnect defaults, applied when Nodes > 1 and the
// corresponding Config field is zero: a network an order of magnitude
// slower and higher-latency than the intra-node PCIe fabric.
const (
	DefaultInterGBps      = 2.5
	DefaultInterLatencyUS = 120.0
)

// nodes resolves the node count (0 means the flat single-node system).
func (c Config) nodes() int {
	if c.Nodes < 1 {
		return 1
	}
	return c.Nodes
}

// interGBps and interLatencyUS resolve the inter-node interconnect tier
// without mutating the Config (which serves as a comparable pool key).
func (c Config) interGBps() float64 {
	if c.InterGBps > 0 {
		return c.InterGBps
	}
	return DefaultInterGBps
}

func (c Config) interLatencyUS() float64 {
	if c.InterLatencyUS > 0 {
		return c.InterLatencyUS
	}
	return DefaultInterLatencyUS
}

// DefaultConfig returns a configuration shaped like the paper's testbed
// (many-core CPU, PCIe-attached GPUs) scaled to a laptop-class simulator.
func DefaultConfig(numGPUs int) Config {
	return Config{
		NumGPUs:       numGPUs,
		CPUWorkers:    2,
		GPUWorkers:    4,
		CPUGflops:     50,
		GPUGflops:     1000,
		PCIeGBps:      12,
		PCIeLatencyUS: 10,
	}
}

// TransferHook observes (and may corrupt, for fault injection) the payload
// of a PCIe transfer after it has been written to the destination buffer.
// from may be the CPU or a GPU; to likewise.
type TransferHook func(from, to *Device, payload *matrix.Dense)

// System is the simulated heterogeneous node.
type System struct {
	cfg  Config
	cpu  *Device
	gpus []*Device

	// boundCtx is the abort context installed by Bind (nil pointer or nil
	// context = unbound); every kernel and transfer consults it at its
	// fail-stop gate (see failstop.go).
	boundCtx atomic.Pointer[context.Context]

	mu          sync.Mutex
	pcieSimSecs float64
	linkSecs    []float64 // wire and backoff seconds per GPU link
	transferred int64     // total bytes moved over PCIe (both tiers)
	internode   int64     // bytes moved over the inter-node interconnect
	hook        TransferHook
	tracer      *obs.Trace

	// Transfer-coalescing window state (see CoalesceTransfers): while
	// coalesceDepth > 0, only the first transfer on each (src, dst) device
	// pair pays the fixed PCIe latency; coalescedLinks remembers which
	// pairs already paid it in the current window.
	coalesceDepth  int
	coalescedLinks map[[2]int]bool

	// Logical simulated clock (see stream.go): the serial timeline every
	// host operation is ordered on, the frontiers of each GPU link and of
	// the shared inter-node fabric, and the pending arrival frontier of
	// copies into GPUs. Guarded by clockMu
	// together with each device's avail and curTL.
	clockMu    sync.Mutex
	serial     timeline
	linkFree   []float64
	fabricFree float64
	pending    float64

	// Per-GPU link fault state (see linkfault.go), guarded by mu: the
	// verdict is computed inside the transfer-accounting critical section
	// so fault rates and the billed time stay consistent.
	links []linkState

	// Whole-node fault state (see nodefault.go), guarded by nodeMu: armed
	// plans keyed by node index and the epoch counter NodeEpoch advances.
	// A lost node is the set of its lost GPUs (Device.Lost).
	nodeMu    sync.Mutex
	nodePlans map[int]NodeFaultPlan
	nodeEpoch int
}

// Validate returns the error for a platform New cannot build: no GPU, or
// GPUs that do not divide over the nodes.
func (c Config) Validate() error {
	if c.NumGPUs < 1 {
		return fmt.Errorf("hetsim: %d GPUs, want at least 1", c.NumGPUs)
	}
	if nodes := c.nodes(); c.NumGPUs%nodes != 0 {
		return fmt.Errorf("hetsim: %d GPUs not divisible over %d nodes", c.NumGPUs, nodes)
	}
	return nil
}

// New builds a simulated cluster from cfg: one coordinating CPU plus
// NumGPUs GPUs spread round-robin over cfg.Nodes nodes (the flat
// single-node system when Nodes <= 1). It panics on a platform Validate
// rejects.
func New(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.CPUWorkers < 1 {
		cfg.CPUWorkers = 1
	}
	if cfg.GPUWorkers < 1 {
		cfg.GPUWorkers = 1
	}
	s := &System{
		cfg:      cfg,
		links:    make([]linkState, cfg.NumGPUs),
		linkSecs: make([]float64, cfg.NumGPUs),
		linkFree: make([]float64, cfg.NumGPUs),
	}
	s.cpu = &Device{kind: CPU, id: -1, workers: cfg.CPUWorkers, gflops: cfg.CPUGflops, sys: s}
	for i := 0; i < cfg.NumGPUs; i++ {
		s.gpus = append(s.gpus, &Device{kind: GPU, id: i, node: i % cfg.nodes(), workers: cfg.GPUWorkers, gflops: cfg.GPUGflops, sys: s})
	}
	return s
}

// Nodes returns the node count of the topology (1 for the flat system).
func (s *System) Nodes() int { return s.cfg.nodes() }

// NodeOf returns the node GPU g lives on (g % Nodes; the CPU coordinates
// from node 0).
func (s *System) NodeOf(g int) int { return g % s.cfg.nodes() }

// CPU returns the host device.
func (s *System) CPU() *Device { return s.cpu }

// GPUs returns the GPU devices.
func (s *System) GPUs() []*Device { return s.gpus }

// GPU returns GPU i.
func (s *System) GPU(i int) *Device { return s.gpus[i] }

// NumGPUs returns the GPU count.
func (s *System) NumGPUs() int { return len(s.gpus) }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// SetTransferHook installs (or clears, with nil) the PCIe fault-injection
// hook.
func (s *System) SetTransferHook(h TransferHook) {
	s.mu.Lock()
	s.hook = h
	s.mu.Unlock()
}

// SetTracer attaches (or, with nil, detaches) an obs.Trace that receives
// a simulated-clock span for every kernel execution and PCIe transfer,
// exportable as a Chrome trace; it is the system's only trace. The tracer
// is a per-run attachment like the transfer hook: Reset detaches it.
func (s *System) SetTracer(t *obs.Trace) {
	s.mu.Lock()
	s.tracer = t
	s.mu.Unlock()
}

// Tracer returns the attached tracer, nil when tracing is off.
func (s *System) Tracer() *obs.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tracer
}

func (s *System) trace(op string, d *Device, flops, endAt, durSecs float64) {
	tr := s.Tracer()
	if tr == nil {
		return
	}
	var args map[string]float64
	if flops > 0 {
		args = map[string]float64{"flops": flops}
	}
	tr.SimSpan(op, "kernel", d.Name(), endAt, durSecs, args)
}

// Reset returns the system to a like-new state for the next run:
// simulated clocks and PCIe byte counters zeroed, the per-run attachments
// — the transfer hook, the obs tracer, and the bound abort context —
// cleared, and every armed FaultPlan and LinkFaultPlan disarmed with
// crashed/hung devices revived (an aborted run must leave a Reset-safe
// system: the next job on a pooled system that lost a device starts on a
// clean, fully populated node — see TestResetClearsFaultPlan). Device buffers
// are not tracked and thus not touched — callers own their allocations.
// Reset lets a pool reuse one System across jobs without construction
// cost while each job still observes clean clocks and an injector-free,
// tracer-free, fault-free fabric.
func (s *System) Reset() {
	s.mu.Lock()
	s.pcieSimSecs = 0
	clear(s.linkSecs)
	s.transferred = 0
	s.internode = 0
	s.hook = nil
	s.tracer = nil
	s.coalesceDepth = 0
	s.coalescedLinks = nil
	for i := range s.links {
		s.links[i] = linkState{}
	}
	s.mu.Unlock()
	s.nodeMu.Lock()
	s.nodePlans = nil
	s.nodeEpoch = 0
	s.nodeMu.Unlock()
	s.boundCtx.Store(nil)
	s.resetClock()
	s.cpu.resetSim()
	s.cpu.resetFault()
	for _, g := range s.gpus {
		g.resetSim()
		g.resetFault()
	}
}

// PCIeSimTime returns accumulated simulated PCIe seconds.
func (s *System) PCIeSimTime() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pcieSimSecs
}

// BytesTransferred returns the total bytes moved over PCIe (both tiers).
func (s *System) BytesTransferred() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.transferred
}

// InternodeBytes returns the bytes moved over the inter-node interconnect
// (the cross-node subset of BytesTransferred); always zero on a flat
// single-node system.
func (s *System) InternodeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.internode
}

// Transfer copies the contents of src into dst over the PCIe fabric. The
// two buffers must have identical shape and live on different devices (a
// same-device Transfer is almost always an algorithmic mistake and
// panics). The transfer hook, if installed, runs on the received payload —
// exactly the paper's communication-error window: after the sender's
// memory was read, before any receiver-side verification. Both endpoints
// pass the fail-stop gate first: a transfer touching a crashed device (or
// running under a done bound context) aborts with a typed panic
// recoverable via RecoverAbort. Transfer has no retransmission, so a
// dropped transfer (armed link fault, see linkfault.go) aborts the same
// way with the typed *LinkError; TransferReliable is the protected path.
func (s *System) Transfer(src, dst *Buffer) {
	src.dev.gate("pcie")
	dst.dev.gate("pcie")
	op := s.beginLink(src.dev, dst.dev)
	defer s.commitLink(&op)
	if le := s.transferAttempt(&op, src, dst); le != nil {
		panic(&abortPanic{le})
	}
	s.fireHook(src, dst)
}

// fireHook runs the installed transfer hook on dst's delivered payload.
func (s *System) fireHook(src, dst *Buffer) {
	s.mu.Lock()
	hook := s.hook
	s.mu.Unlock()
	if hook != nil {
		hook(src.dev, dst.dev, dst.m)
	}
}

// transferAttempt executes one wire attempt of link operation op: it
// computes the armed link faults' verdict, bills simulated time to the
// links it crosses and to op's cursor (degrade inflates the bandwidth
// term; a dropped transfer still pays for the wire it wasted), then
// delivers — or corrupts, or drops — the payload. It returns a typed
// *LinkError on a drop and nil otherwise, and never runs the transfer
// hook: Transfer runs it after a delivered attempt, TransferReliable after
// arrival verification.
func (s *System) transferAttempt(op *linkOp, src, dst *Buffer) *LinkError {
	if src.dev == dst.dev {
		panic("hetsim: Transfer within a single device; use device-local copies")
	}
	sm, dm := src.m, dst.m
	if sm.Rows != dm.Rows || sm.Cols != dm.Cols {
		panic(fmt.Sprintf("hetsim: Transfer shape mismatch %dx%d -> %dx%d", sm.Rows, sm.Cols, dm.Rows, dm.Cols))
	}
	bytes := 8 * sm.Rows * sm.Cols
	// Link-tier selection: endpoints on different nodes cross the slower
	// inter-node interconnect; everything else (including CPU<->GPU on node
	// 0, and every transfer on a flat system) stays on the PCIe tier.
	gbps, latUS := s.cfg.PCIeGBps, s.cfg.PCIeLatencyUS
	if op.fabric {
		gbps, latUS = s.cfg.interGBps(), s.cfg.interLatencyUS()
	}
	s.mu.Lock()
	verdict := s.linkFaultVerdict(src.dev, dst.dev)
	corruptSeq := 0
	if verdict.corrupt && verdict.link >= 0 {
		corruptSeq = s.links[verdict.link].n
	}
	s.transferred += int64(bytes)
	if op.fabric {
		s.internode += int64(bytes)
	}
	var dt float64
	if gbps > 0 {
		dt = float64(bytes) / (gbps * 1e9) * verdict.factor
		link := [2]int{src.dev.id, dst.dev.id}
		if s.coalesceDepth == 0 || !s.coalescedLinks[link] {
			dt += latUS / 1e6
			if s.coalesceDepth > 0 {
				s.coalescedLinks[link] = true
			}
		}
		s.billLinks(src.dev, dst.dev, dt)
	}
	s.mu.Unlock()
	if !verdict.drop {
		dm.CopyFrom(sm)
		if verdict.corrupt {
			corruptPayload(dm, corruptSeq)
		}
	}

	at := op.advance(dt)

	pcieBytes.Add(uint64(bytes))
	pcieTransfers.Inc()
	if op.fabric {
		internodeBytes.Add(uint64(bytes))
	}
	obs.ObservePhaseSeconds(obs.PhasePCIe, dt)
	if tr := s.Tracer(); tr != nil {
		tr.SimSpan(src.dev.Name()+"->"+dst.dev.Name(), obs.PhasePCIe, op.track(),
			at, dt, map[string]float64{"bytes": float64(bytes)})
	}
	if verdict.drop {
		return &LinkError{Link: verdict.link, Op: "pcie", Mode: verdict.mode}
	}
	return nil
}

// billLinks charges dt seconds of wire time to PCIe and to every GPU link
// a transfer from src to dst crosses. Caller holds s.mu.
func (s *System) billLinks(src, dst *Device, dt float64) {
	s.pcieSimSecs += dt
	for _, d := range [2]*Device{src, dst} {
		if d.kind == GPU {
			s.linkSecs[d.id] += dt
		}
	}
}

// CoalesceTransfers runs body inside a transfer-coalescing window: every
// PCIe transfer issued within it is billed the per-transfer fixed latency
// only once per (source, destination) device pair; later transfers on the
// same link pay bandwidth cost alone. This models a strided batched DMA —
// one descriptor issued for a whole batch slab instead of one per item.
// Every Checkpoint and Restore staging runs inside one such window, so a
// staging is one message per link; the step runtime wraps each panel
// stage in one, and the batched drivers (internal/core's *Batch entry
// points) wrap the stagings of all their items in one more, which is how
// they amortize per-dispatch launch cost across batch items. Data
// movement is unchanged: every transfer still copies immediately, in
// order, with the same hooks and byte accounting; only the
// simulated-latency attribution coalesces. Windows nest (the latency map
// lives until the outermost window closes) and the window is closed on
// every exit path, so a fail-stop abort unwinding out of body cannot leave
// the clock in coalescing mode.
func (s *System) CoalesceTransfers(body func()) {
	s.mu.Lock()
	if s.coalesceDepth == 0 {
		s.coalescedLinks = make(map[[2]int]bool)
	}
	s.coalesceDepth++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.coalesceDepth--
		if s.coalesceDepth == 0 {
			s.coalescedLinks = nil
		}
		s.mu.Unlock()
	}()
	body()
}

// DeviceStat is one device's or one link's share of the simulated busy
// time.
type DeviceStat struct {
	Name    string
	SimSecs float64
	Share   float64 // fraction of total busy time
	// Util is the overlap utilization: busy time over the run's logical
	// makespan (TimelineMakespan). Transfers on one link never overlap,
	// nor do kernels on one device, so Util does not exceed 1 beyond the
	// Fletcher passes, the only work that can overlap other work on its
	// device. The values do not sum to 1: links run in parallel with each
	// other, and look-ahead overlaps the devices too.
	Util float64
}

// Utilization summarizes the simulated busy time per device and per GPU
// PCIe link (rows "PCIe0", "PCIe1", ...: the wire and backoff seconds of
// every transfer crossing that link, so a GPU-to-GPU copy counts on both
// of its links), for load-balance reports.
func (s *System) Utilization() []DeviceStat {
	stats := []DeviceStat{{Name: "CPU", SimSecs: s.cpu.SimTime()}}
	for _, g := range s.gpus {
		stats = append(stats, DeviceStat{Name: g.Name(), SimSecs: g.SimTime()})
	}
	s.mu.Lock()
	for i, secs := range s.linkSecs {
		stats = append(stats, DeviceStat{Name: fmt.Sprintf("PCIe%d", i), SimSecs: secs})
	}
	s.mu.Unlock()
	total := 0.0
	for _, st := range stats {
		total += st.SimSecs
	}
	if total > 0 {
		for i := range stats {
			stats[i].Share = stats[i].SimSecs / total
		}
	}
	if mk := s.TimelineMakespan(); mk > 0 {
		for i := range stats {
			stats[i].Util = stats[i].SimSecs / mk
		}
	}
	return stats
}
