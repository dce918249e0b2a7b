package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"rtopex/internal/realtime"
	"rtopex/internal/sched"
)

// The runner resolves BENCHMARK.json, the golden store and bench/out from
// the repository root, where the benchmark command runs it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(outDir)
	os.Exit(code)
}

func mustCatalogue(t *testing.T) *catalogue {
	t.Helper()
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// Toy sizes: every workload with its structure intact and its scale cut to
// at most 50 subframes per loop and three cheap experiments.
var (
	toyDecode   = phyParams{name: "phy-decode", mcs: 27, antennas: 2, snrDB: 15, pool: 2, warm: 1, setups: 1}
	toyFrontend = phyParams{name: "phy-frontend", mcs: 5, antennas: 4, snrDB: 30, pool: 2, warm: 1, setups: 1}
	toyLive     = liveParams{dilation: 2, antennas: 2, snrDB: 30, segments: 1, warm: 5}
	toySim      = simParams{basestations: 4, subframes: 50, cores: 8, rtt2: 550, spread: 120, setups: 1, ring: 256}
	toySweep    = sweepParams{ids: []string{"fig1", "fig14", "fig6"}, replicas: 1, workers: 2, baseline: sweepFleet.baseline, setups: 1}
)

var toys = []struct {
	name    string
	seconds float64
	fn      func(*env) (*outcome, error)
}{
	{"phy-decode", 0.1, toyDecode.run},
	{"phy-frontend", 0.05, toyFrontend.run},
	{"live-partitioned", 0.09, toyLive.run},
	{"sim-rtopex", 0.02, toySim.runRTOPEX},
	{"sim-observed", 0.02, toySim.runObserved},
	{"sweep-fleet", 0.01, toySweep.run},
}

// TestCatalogueShape holds BENCHMARK.json to the limits the driver refuses
// a file beyond, and to one entry per registered workload.
func TestCatalogueShape(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %s", k)
		}
		delete(keys, k)
	}
	if len(keys) != 0 {
		t.Errorf("unexpected keys %v", keys)
	}
	cat := mustCatalogue(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(cat.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d registered", len(cat.Workloads), len(workloads))
	}
	for _, w := range cat.Workloads {
		use(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not registered", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(cat.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(cat.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range append(append([]metricDef(nil), cat.EndToEnd...), cat.PerLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	hasSetup := false
	for _, d := range cat.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s in s, lower is better")
	}
	if cat.RunSeconds < 1 || cat.RunSeconds > 60 {
		t.Errorf("run_seconds %d", cat.RunSeconds)
	}
}

// TestWorkloadsEmitTheCatalogue runs every workload at toy size, untraced
// and traced: the result carries exactly the catalogue's end-to-end
// (all above zero) or per-layer names, no operation fails, and every
// per-layer metric is measured by at least one workload.
func TestWorkloadsEmitTheCatalogue(t *testing.T) {
	cat := mustCatalogue(t)
	measured := map[string]bool{}
	for _, toy := range toys {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 3, seconds: toy.seconds, traced: traced}
			rep, out, err := runOne(cat, toy.name, toy.fn, e)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", toy.name, traced, err)
			}
			if out.ops < 1 || out.failed != 0 {
				t.Errorf("%s traced=%v: ops %d failed %d", toy.name, traced, out.ops, out.failed)
			}
			defs := cat.EndToEnd
			if traced {
				defs = cat.PerLayer
				if _, err := os.Stat(outDir + "/trace-" + toy.name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", toy.name, err)
				}
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, catalogue has %d", toy.name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				r, ok := rep.Metrics[d.Name]
				if !ok || r.Unit != d.Unit || (!traced && r.Value <= 0) {
					t.Errorf("%s traced=%v: metric %s reported as %+v (present %v)", toy.name, traced, d.Name, r, ok)
				}
			}
			for m := range out.metrics {
				measured[m] = true
			}
		}
	}
	for _, d := range cat.PerLayer {
		if !measured[d.Name] {
			t.Errorf("no workload measures per-layer metric %s", d.Name)
		}
	}
}

// TestDecodeBelowTheWaterfallFailsEveryOperation: at 5 dB no MCS-27 block
// decodes, and the payload check must say so for every subframe.
func TestDecodeBelowTheWaterfallFailsEveryOperation(t *testing.T) {
	p := toyDecode
	p.snrDB = 5
	out, err := p.run(&env{seed: 1, seconds: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if out.ops < 1 || out.failed != out.ops {
		t.Fatalf("ops %d failed %d, want all failed", out.ops, out.failed)
	}
}

// TestDroppedSubframeLandsBeyondP90: a drop is infinite latency, so it sorts
// past every finished subframe and turns p90 infinite once drops exceed a
// tenth of the releases.
func TestDroppedSubframeLandsBeyondP90(t *testing.T) {
	segment := func(total, dropped int) *liveSegment {
		seg := &liveSegment{frames: make([]subframeTimes, total), stats: &realtime.Stats{Subframes: total, Dropped: dropped}}
		every := total / dropped
		for j := range seg.frames {
			due := float64(j) * live.periodUS()
			seg.frames[j] = subframeTimes{due: due, released: true}
			if j%every == 0 && j/every < dropped {
				seg.frames[j].dropped = "queue-full"
				continue
			}
			f := &seg.frames[j]
			f.start, f.started = due+100, true
			f.finish, f.finished, f.outcome = due+1500+float64(j), true, "ack"
		}
		return seg
	}
	p := liveParams{dilation: 2}
	var few liveTally
	p.tally(&few, segment(100, 5), nil, time.Time{})
	lat := sorted(few.latencyUS)
	if len(lat) != 100 || few.queueFull != 5 || few.completed != 95 {
		t.Fatalf("tally: %d latencies, %d drops, %d completed", len(lat), few.queueFull, few.completed)
	}
	if p90 := quantile(lat, 0.9); math.IsInf(p90, 1) || !math.IsInf(lat[95], 1) {
		t.Errorf("5 drops of 100: p90 %v, 96th value %v", p90, lat[95])
	}
	var many liveTally
	p.tally(&many, segment(100, 20), nil, time.Time{})
	if p90 := quantile(sorted(many.latencyUS), 0.9); !math.IsInf(p90, 1) {
		t.Errorf("20 drops of 100: p90 %v, want +Inf", p90)
	}
	if many.overload() <= maxOverload {
		t.Errorf("20 drops of 100: overload %v does not void the run", many.overload())
	}
}

// TestSimulatedStatisticsFollowTheSeed: one seed gives one simulated
// outcome, another seed gives another.
func TestSimulatedStatisticsFollowTheSeed(t *testing.T) {
	p := toySim
	p.subframes = 400
	outcomeOf := func(seed uint64) simDigest {
		w, err := p.build(seed)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sched.RunConfigured(w, sched.NewRTOPEX(2), sched.RunConfig{Cores: p.cores})
		if err != nil {
			t.Fatal(err)
		}
		if !p.conserved(m) {
			t.Errorf("seed %d: conservation broken: %v", seed, m)
		}
		return digest(m)
	}
	a, b, c := outcomeOf(1), outcomeOf(1), outcomeOf(2)
	if a != b {
		t.Errorf("one seed, two outcomes:\n%+v\n%+v", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 give the same outcome: %+v", a)
	}
}
