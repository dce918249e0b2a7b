// Package rtopex is a from-scratch Go reproduction of "RT-OPEX: Flexible
// Scheduling for Cloud-RAN Processing" (Garikipati, Fawaz, Shin — CoNEXT
// 2016): an LTE uplink PHY, an end-to-end C-RAN timing model, and the three
// subframe schedulers the paper evaluates — partitioned, global (EDF), and
// RT-OPEX, which opportunistically migrates parallelizable subtasks (FFT
// symbols, turbo code blocks) into the idle gaps of other cores.
//
// The package has three layers, all usable independently:
//
//   - The PHY link: Transmitter/Receiver encode and decode real PUSCH
//     subframes (turbo coding, rate matching, SC-FDMA, soft demapping),
//     with the receive chain decomposed into the paper's task/subtask
//     pipeline so its stages can run — and migrate — concurrently.
//
//   - The scheduler simulation: BuildWorkload materializes a trace-driven
//     job set (Eq. 1 processing times, platform jitter, transport latency)
//     and Simulate runs it under any Scheduler on a deterministic
//     discrete-event multicore, reporting deadline-miss metrics.
//
//   - The experiment harness: RunExperiment regenerates any table or
//     figure of the paper's evaluation by id (see Experiments).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-reproduction comparison of every experiment.
package rtopex

import (
	"flag"
	"log/slog"

	"rtopex/internal/channel"
	"rtopex/internal/harness"
	"rtopex/internal/lte"
	"rtopex/internal/model"
	"rtopex/internal/obs"
	"rtopex/internal/phy"
	"rtopex/internal/sched"
	"rtopex/internal/sweep"
	"rtopex/internal/trace"
	"rtopex/internal/transport"
)

// PHY layer.
type (
	// PHYConfig configures one basestation's uplink PHY.
	PHYConfig = phy.Config
	// Transmitter synthesizes PUSCH subframes (for test vectors and the
	// testbed emulation).
	Transmitter = phy.Transmitter
	// Receiver decodes PUSCH subframes with the FFT → demod → decode task
	// pipeline of the paper's Fig. 5.
	Receiver = phy.Receiver
	// RxResult reports one subframe's decode outcome.
	RxResult = phy.Result
	// Stage is one receive task: independent subtasks behind a barrier.
	Stage = phy.Stage
	// Bandwidth is an LTE channel configuration (use BW5MHz/BW10MHz/BW20MHz).
	Bandwidth = lte.Bandwidth
	// Channel is the AWGN/flat-fading model used to exercise the link.
	Channel = channel.Model
)

// Standard LTE bandwidths.
var (
	BW5MHz  = lte.BW5MHz
	BW10MHz = lte.BW10MHz
	BW20MHz = lte.BW20MHz
)

// NewTransmitter builds a PUSCH transmitter.
func NewTransmitter(cfg PHYConfig) (*Transmitter, error) { return phy.NewTransmitter(cfg) }

// NewReceiver builds a PUSCH receiver.
func NewReceiver(cfg PHYConfig) (*Receiver, error) { return phy.NewReceiver(cfg) }

// NewChannel builds an AWGN channel with a flat per-antenna gain.
func NewChannel(snrDB float64, antennas int, seed uint64) (*Channel, error) {
	return channel.New(snrDB, antennas, seed)
}

// Timing model.
type (
	// ModelParams are the Eq. (1) coefficients; PaperGPP is Table 1.
	ModelParams = model.Params
	// TaskTimes splits a subframe's processing across FFT/demod/decode.
	TaskTimes = model.TaskTimes
	// Jitter is the platform-error model of Fig. 3(d).
	Jitter = model.Jitter
	// IterationLaw models the SNR-dependent turbo iteration count.
	IterationLaw = model.IterationLaw
)

// Calibrated model defaults.
var (
	// PaperGPP is the paper's Table 1 fit (w0..w3 in µs, r²=0.992).
	PaperGPP = model.PaperGPP
	// DefaultJitter matches Fig. 3(d)'s error tail.
	DefaultJitter = model.DefaultJitter
	// DefaultIterationLaw matches the evaluation's iteration statistics.
	DefaultIterationLaw = model.DefaultIterationLaw
)

// Scheduling layer.
type (
	// WorkloadConfig describes a C-RAN workload (basestations, traces,
	// transport, model parameters).
	WorkloadConfig = sched.WorkloadConfig
	// Workload is a materialized job set, replayable under any scheduler.
	Workload = sched.Workload
	// Job is one subframe decoding task.
	Job = sched.Job
	// Scheduler is a C-RAN subframe scheduler under simulation.
	Scheduler = sched.Scheduler
	// Metrics aggregates deadline-miss and migration statistics.
	Metrics = sched.Metrics
	// Partitioned is the offline-partitioned scheduler (§3.1.1).
	Partitioned = sched.Partitioned
	// Global is the shared-queue EDF scheduler (§3.1.2).
	Global = sched.Global
	// RTOPEX is the paper's migrating scheduler (§3.2).
	RTOPEX = sched.RTOPEX
	// StaticParallel is the BigStation-style Table 2 comparator: a fixed
	// design-time fan-out of every subframe's subtasks.
	StaticParallel = sched.StaticParallel
)

// Transport models.
type (
	// TransportSampler yields one-way (RTT/2) transport latencies.
	TransportSampler = transport.Sampler
	// FixedTransport is a constant RTT/2 (the paper's evaluation setup).
	FixedTransport = transport.FixedPath
	// TransportPath is fronthaul + jittery cloud segment.
	TransportPath = transport.Path
)

// Workload traces.
type (
	// TraceProfile parameterizes a basestation load process.
	TraceProfile = trace.Profile
	// Trace is a per-millisecond normalized load sequence.
	Trace = trace.Trace
)

// DefaultTraceProfiles are four basestations spanning Fig. 14's diversity.
var DefaultTraceProfiles = trace.DefaultProfiles

// NewPartitioned creates a partitioned scheduler with c cores per BS
// (the paper's ⌈Tmax⌉, 2 in the evaluation).
func NewPartitioned(coresPerBS int) *Partitioned { return sched.NewPartitioned(coresPerBS) }

// NewGlobal creates the shared-queue scheduler with default overheads.
func NewGlobal() *Global { return sched.NewGlobal() }

// NewRTOPEX creates RT-OPEX over a c-cores-per-BS partitioned schedule.
func NewRTOPEX(coresPerBS int) *RTOPEX { return sched.NewRTOPEX(coresPerBS) }

// NewStaticParallel creates the static-fan-out comparator with k cores per
// basestation.
func NewStaticParallel(coresPerBS int) *StaticParallel { return sched.NewStaticParallel(coresPerBS) }

// BuildWorkload materializes a deterministic job set from a configuration.
func BuildWorkload(cfg WorkloadConfig) (*Workload, error) { return sched.BuildWorkload(cfg) }

// Simulate runs a workload under a scheduler on the given core count.
func Simulate(w *Workload, s Scheduler, cores int) (*Metrics, error) {
	return sched.Run(w, s, cores)
}

// Experiment harness.
type (
	// ExperimentTable is a regenerated paper table/figure.
	ExperimentTable = harness.Table
	// ExperimentOptions scale an experiment run.
	ExperimentOptions = harness.Options
)

// Experiments lists the runnable experiment ids (fig1..fig19, table1,
// ablation-*).
func Experiments() []string { return harness.IDs() }

// RunExperiment regenerates one table or figure of the paper.
func RunExperiment(id string, o ExperimentOptions) (*ExperimentTable, error) {
	return harness.Run(id, o)
}

// Sweep orchestration: run the registry on a worker pool with deterministic
// per-shard seeds, stream artifacts to a JSON-lines store, and gate fresh
// results against checked-in baselines. See internal/sweep for the
// determinism contract.
type (
	// ExperimentSpec describes one registered experiment.
	ExperimentSpec = harness.Spec
	// SweepConfig describes one sweep (ids, workers, scale, store, resume).
	SweepConfig = sweep.Config
	// SweepResult summarizes a finished sweep.
	SweepResult = sweep.Result
	// SweepRecord is one stored artifact: a table keyed by its config hash.
	SweepRecord = sweep.Record
	// SweepCompareOptions configure the baseline regression gate.
	SweepCompareOptions = sweep.CompareOptions
	// SweepTolerance bounds allowed numeric drift of one table cell.
	SweepTolerance = sweep.Tolerance
	// SweepDrift is one detected baseline divergence.
	SweepDrift = sweep.Drift
)

// ExperimentSpecs lists the registry in the sweep engine's shard order.
func ExperimentSpecs() []ExperimentSpec { return harness.Specs() }

// RunSweep executes a sweep.
func RunSweep(cfg SweepConfig) (*SweepResult, error) { return sweep.Run(cfg) }

// ReadSweepStore loads a JSON-lines artifact store.
func ReadSweepStore(path string) ([]*SweepRecord, error) { return sweep.ReadStore(path) }

// CompareSweeps diffs a fresh sweep against a baseline store and returns
// every drift (empty means the gate passes).
func CompareSweeps(baseline, fresh []*SweepRecord, o SweepCompareOptions) []SweepDrift {
	return sweep.Compare(baseline, fresh, o)
}

// ParseSweepTolerances parses "column=rel[,abs]" or
// "experiment/column=rel[,abs]" specs (the repeatable -tol flag) into the
// PerColumn map CompareSweeps takes.
func ParseSweepTolerances(specs []string) (map[string]SweepTolerance, error) {
	return sweep.ParseTolerances(specs)
}

// AggregateSweepReplicas reduces a replicated sweep's records to one
// mean ± 95% CI summary table per experiment (Student-t over the replicas).
func AggregateSweepReplicas(records []*SweepRecord) []*ExperimentTable {
	return sweep.AggregateReplicas(records)
}

// Observability plane: a mergeable live-metrics registry plus an opt-in
// HTTP endpoint bundling Prometheus /metrics with expvar and pprof. See
// internal/obs for the design.
type (
	// ObsRegistry is a concurrency-safe, mergeable metrics registry.
	ObsRegistry = obs.Registry
	// ObsSnapshot is a registry's serializable, deterministic state.
	ObsSnapshot = obs.Snapshot
	// CoreReport is one core's busy/migration/idle utilization over a run.
	CoreReport = obs.CoreReport
)

// Distributed observability: workers push full registry snapshots to a
// central collector (cmd/obscollect), which merges them exactly and serves
// the unified fleet view. See internal/obs/README.md for the wire format.
type (
	// ObsLabel is one key=value dimension of a metric series.
	ObsLabel = obs.Label
	// ObsSource identifies one pushing process (host, pid, labels).
	ObsSource = obs.Source
	// ObsPusher streams snapshots to a collector with bounded retry.
	ObsPusher = obs.Pusher
	// ObsPusherConfig configures an ObsPusher.
	ObsPusherConfig = obs.PusherConfig
)

// ObsLogConfig carries the shared -log-format/-log-level flag values used
// by every CLI surface (fleet daemons and the experiment commands alike).
type ObsLogConfig = obs.LogConfig

// ObsLogFlags registers -log-format and -log-level on fs (the global flag
// set when nil) and returns the config the flags fill at Parse time.
func ObsLogFlags(fs *flag.FlagSet) *ObsLogConfig { return obs.LogFlags(fs) }

// ObsPrintf adapts a structured logger to logf(format, args...) plumbing.
func ObsPrintf(l *slog.Logger) func(format string, args ...any) { return obs.Printf(l) }

// ObsL is shorthand for constructing an ObsLabel.
func ObsL(key, value string) ObsLabel { return obs.L(key, value) }

// DefaultObsSource derives this process's push identity (hostname-pid).
func DefaultObsSource(labels ...ObsLabel) ObsSource { return obs.DefaultSource(labels...) }

// NewObsPusher builds a push client for the collector at cfg.Addr.
func NewObsPusher(cfg ObsPusherConfig) (*ObsPusher, error) { return obs.NewPusher(cfg) }

// NewObsRegistry creates an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// ServeObs exposes the registry's /metrics, /debug/vars and /debug/pprof/
// on addr (e.g. ":6060"); it returns the bound address and a stop func.
func ServeObs(addr string, reg *ObsRegistry) (boundAddr string, stop func(), err error) {
	return obs.Serve(addr, reg)
}

// PublishExperimentTable exposes a finished table's summary gauges
// (per-column means, miss rates) on a live registry.
func PublishExperimentTable(reg *ObsRegistry, tb *ExperimentTable) {
	harness.PublishTable(reg, tb)
}
