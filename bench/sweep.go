package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rtopex/internal/fleet"
	"rtopex/internal/harness"
	"rtopex/internal/obs"
	"rtopex/internal/sweep"
)

// sweepParams is the operations-stack workload: the quick experiment
// registry run through fleet.RunLocal — coordinator, loopback HTTP lease
// protocol, two in-process workers, store ingest — and gated against the
// repository's own golden store.
type sweepParams struct {
	ids      []string // experiments; empty means the whole registry
	replicas int      // per pass
	workers  int
	baseline string
	setups   int
}

var sweepFleet = sweepParams{replicas: 1, workers: 2, baseline: "testdata/baselines/quick.jsonl", setups: 15}

// slowUnits are the six slowest quick experiments, reported one by one
// because together they are most of the sweep's busy time.
var slowUnits = []string{"ext-pooling", "fig17", "fig15", "ablation-alg1", "ablation-granularity", "fig16"}

// sweepRig is one set-up: the golden records and a scratch directory.
type sweepRig struct {
	dir    string
	golden []*sweep.Record
}

// setup reads the golden store, makes the scratch directory and runs one
// pass whose units do no work, which brings up the HTTP stack and the JSON
// codecs the timed passes then find warm.
func (p sweepParams) setup() (*sweepRig, error) {
	golden, err := sweep.ReadStore(p.baseline)
	if err != nil {
		return nil, err
	}
	dir, err := scratchDir("sweep-store")
	if err != nil {
		return nil, err
	}
	rig := &sweepRig{dir: dir, golden: golden}
	if _, err := p.protocolOnly().pass(rig, -1, noopUnit, nil); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return rig, nil
}

// protocolOnly is p on one worker, for passes of noopUnit. With two workers
// and units that take no time, whether the second worker asks for a lease
// just before or just after the last unit completes decides if it sleeps out
// the coordinator's 200 ms retry hint, so the pass time has two modes.
func (p sweepParams) protocolOnly() sweepParams {
	p.workers = 1
	return p
}

// noopUnit is a sweep.RunFunc that returns a one-cell table: a unit that
// costs the lease protocol and nothing else.
func noopUnit(id string, o harness.Options) (*harness.Table, error) {
	tb := &harness.Table{ID: id, Title: id, Columns: []string{"x"}}
	tb.AddRow(1)
	return tb, nil
}

// unitTimes collects per-unit durations from the RunFn hook; the two workers
// call it concurrently.
type unitTimes struct {
	mu    sync.Mutex
	secs  []float64
	byID  map[string][]float64
	spans *spanLog
	hook  time.Duration // time spent in this hook's own bookkeeping
}

// wrap is the fleet.WorkerConfig.RunFn hook around harness.Run.
func (u *unitTimes) wrap(id string, o harness.Options) (*harness.Table, error) {
	t0 := time.Now()
	tb, err := harness.Run(id, o)
	t1 := time.Now()
	u.mu.Lock()
	defer func() {
		u.hook += time.Since(t1)
		u.mu.Unlock()
	}()
	u.secs = append(u.secs, t1.Sub(t0).Seconds())
	if u.byID == nil {
		u.byID = map[string][]float64{}
	}
	u.byID[id] = append(u.byID[id], t1.Sub(t0).Seconds())
	if u.spans != nil {
		u.spans.add("harness.run."+id, len(u.secs)-1, -1, t0, t1)
	}
	return tb, err
}

// sweepPass is one fleet.RunLocal over the registry.
type sweepPass struct {
	wall    time.Duration // RunLocal call → merged store closed
	summary fleet.Summary // Total units, Failed units, lease counts
	records []*sweep.Record
}

func (p sweepParams) pass(rig *sweepRig, i int, runFn sweep.RunFunc, reg *obs.Registry) (*sweepPass, error) {
	cfg := fleet.Config{
		Spec: sweep.Config{
			IDs: p.ids, Options: harness.Options{Quick: true}, Replicas: p.replicas,
			SkipMeasured: true, StorePath: filepath.Join(rig.dir, fmt.Sprintf("pass-%d.jsonl", i)),
		},
		Obs: reg,
	}
	t0 := time.Now()
	res, err := fleet.RunLocal(cfg, p.workers, fleet.WorkerConfig{Parallel: 1, AuthToken: "bench-token", RunFn: runFn})
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	return &sweepPass{wall: wall, summary: res.Summary, records: res.Records}, nil
}

// drifts counts replica-0 records that differ from the golden store. The
// sweep keeps the registry's default root seed — not the runner's — exactly
// so that this comparison is possible.
func (p sweepParams) drifts(rig *sweepRig, records []*sweep.Record) int {
	var fresh, golden []*sweep.Record
	ran := map[string]bool{}
	for _, r := range records {
		if r.Replica == 0 {
			fresh = append(fresh, r)
			ran[r.Experiment] = true
		}
	}
	for _, g := range rig.golden {
		if ran[g.Experiment] || len(p.ids) == 0 {
			golden = append(golden, g)
		}
	}
	return len(sweep.Compare(golden, fresh, sweep.CompareOptions{}))
}

func (p sweepParams) run(e *env) (*outcome, error) {
	out := newOutcome()
	var rig *sweepRig
	setups := make([]float64, p.setups)
	for i := range setups {
		if rig != nil {
			os.RemoveAll(rig.dir)
			rig = nil
		}
		settle()
		t0 := time.Now()
		var err error
		if rig, err = p.setup(); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	defer os.RemoveAll(rig.dir)
	out.set("setup_s", median(setups))

	units := &unitTimes{spans: e.spans}
	var perUnit []float64 // pass wall ÷ units, seconds
	var last *sweepPass
	cpu0 := cpuTime()
	start := time.Now()
	share := 1.0
	if e.traced {
		share = 0.7
	}
	for i := 0; i == 0 || time.Since(start) < e.duration(share); i++ {
		ps, err := p.pass(rig, i, units.wrap, nil)
		if err != nil {
			return nil, err
		}
		out.ops += ps.summary.Total
		out.failed += ps.summary.Failed + p.drifts(rig, ps.records)
		perUnit = append(perUnit, ps.wall.Seconds()/float64(ps.summary.Total))
		last = ps
	}
	cpu := cpuTime() - cpu0
	if e.traced {
		return out, p.traced(e, rig, units, last, median(perUnit), out)
	}
	// One latency sample per experiment: its median time over the passes.
	var perExperiment []float64
	for _, secs := range units.byID {
		perExperiment = append(perExperiment, median(secs))
	}
	out.set("ops_per_s", 1/median(perUnit))
	out.set("op_us_p50", 1e6*median(perExperiment))
	out.set("op_us_p90", 1e6*quantile(sorted(perExperiment), 0.9))
	out.set("cpu_us_per_op", us(cpu)/float64(out.ops))
	out.note("%d passes of %d units on %d workers; median pass %.3f s (sweep wall)",
		len(perUnit), last.summary.Total, p.workers, median(perUnit)*float64(last.summary.Total))
	return out, nil
}

// traced reports the operations stack layer by layer: unit times from the
// RunFn spans, the lease protocol alone (units that do no work), and the
// store, compare and wire codec calls on the sweep's own records.
func (p sweepParams) traced(e *env, rig *sweepRig, units *unitTimes, last *sweepPass, perUnit float64, out *outcome) error {
	s := sorted(units.secs)
	out.set("harness.unit_s_p50", quantile(s, 0.5))
	out.set("harness.unit_s_max", s[len(s)-1])
	for _, id := range slowUnits {
		out.set("harness.run_s."+id, median(units.byID[id]))
	}
	out.set("fleet.leases", float64(last.summary.Leases))
	out.set("fleet.reclaims", float64(last.summary.Reclaims))
	out.set("fleet.duplicates", float64(last.summary.Duplicates))
	// Busy time per worker if the units were spread perfectly; the pass
	// wall over it is what leasing, ingest and the uneven tail add.
	var busy float64
	for _, u := range units.secs {
		busy += u
	}
	ideal := busy / float64(len(units.secs)) / float64(p.workers) // seconds per unit
	out.set("fleet.overhead_ratio", ratio(perUnit, ideal))
	// The end-to-end run times units through the same RunFn hook, so what
	// tracing adds is the hook's own bookkeeping.
	out.set("bench.trace_overhead_ratio", 1+units.hook.Seconds()/busy)

	reg := obs.NewRegistry()
	var rates []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		ps, err := p.protocolOnly().pass(rig, 1000+i, noopUnit, reg)
		if err != nil {
			return err
		}
		e.spans.add("fleet.noop_pass", i, -1, t0, t0.Add(ps.wall))
		rates = append(rates, float64(ps.summary.Total)/ps.wall.Seconds())
	}
	out.set("fleet.noop_units_per_s", median(rates))

	records := last.records
	sort.Slice(records, func(i, j int) bool { return records[i].Key < records[j].Key })
	path := filepath.Join(rig.dir, "append.jsonl")
	var appendUS, readMS, compareMS []float64
	for rep := 0; rep < 5; rep++ {
		os.Remove(path)
		st, err := sweep.CreateStore(path)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, r := range records {
			if err := st.Append(r); err != nil {
				st.Close()
				return err
			}
		}
		appendUS = append(appendUS, us(time.Since(t0))/float64(len(records)))
		if err := st.Close(); err != nil {
			return err
		}
		t0 = time.Now()
		back, err := sweep.ReadStore(path)
		if err != nil {
			return err
		}
		readMS = append(readMS, us(time.Since(t0))/1e3)
		t0 = time.Now()
		if d := sweep.Compare(records, back, sweep.CompareOptions{}); len(d) > 0 {
			out.failed += len(d)
		}
		compareMS = append(compareMS, us(time.Since(t0))/1e3)
	}
	out.set("sweep.store_append_us", median(appendUS))
	out.set("sweep.read_store_ms", median(readMS))
	out.set("sweep.compare_ms", median(compareMS))

	// The wire codec on what a worker pushes: the coordinator registry's
	// snapshot after the no-op passes.
	ws := &obs.WireSnapshot{Version: 1, Source: obs.DefaultSource(), Seq: 1, Snapshot: reg.Snapshot()}
	var buf bytes.Buffer
	var encErr, decErr error
	out.set("obs.wire_encode_us", us(timeMedian(200, func() {
		buf.Reset()
		if err := obs.EncodeWire(&buf, ws); err != nil {
			encErr = err
		}
	})))
	wire := append([]byte(nil), buf.Bytes()...)
	out.set("obs.wire_decode_us", us(timeMedian(200, func() {
		if _, err := obs.DecodeWire(bytes.NewReader(wire)); err != nil {
			decErr = err
		}
	})))
	if encErr != nil {
		return encErr
	}
	return decErr
}

func init() {
	register("sweep-fleet", func(e *env) (*outcome, error) { return sweepFleet.run(e) })
}
