// Command rtoptrace renders run-level event traces (internal/trace event
// logs) as per-core ASCII timelines and migration-state tallies, so a human
// can see *why* a subframe missed its deadline: which core it ran on, where
// its subtasks migrated, and whether a batch was preempted, recomputed or
// abandoned (the Fig. 12 lifecycle).
//
// Usage:
//
//	rtoptrace -run [-subframes 1000] [-rtt2 550] [-spread 120] [-seed 7]
//	          [-out trace.json] [-metrics metrics.json] [-flight dossierdir]
//	rtoptrace -in trace.json [-from 0] [-to 20000] [-res 200]
//	rtoptrace -in trace.json -job 2:17
//	rtoptrace -in trace.json -misses 5
//	rtoptrace -in trace.json -chrome trace-chrome.json
//	rtoptrace -dossier dossierdir/dossier-000001-deadline-miss.json
//
// -run simulates RT-OPEX on the paper's 4-basestation workload with a
// jittery transport (early arrivals trigger batch preemptions), exports the
// trace, and renders it. -in loads a previously exported trace. -flight
// arms the deadline-miss flight recorder during -run, spooling a miss
// dossier per trigger into the given directory; -dossier renders one such
// dossier as a human-readable post-mortem (stage timeline, slack budget
// per stage against the deadline, migration and scheduler state at the
// trigger).
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"strings"

	"rtopex/internal/flight"
	"rtopex/internal/harness"
	"rtopex/internal/lte"
	"rtopex/internal/model"
	"rtopex/internal/obs"
	"rtopex/internal/sched"
	"rtopex/internal/stats"
	"rtopex/internal/trace"
)

func main() {
	var (
		run       = flag.Bool("run", false, "simulate a traced RT-OPEX run and export it")
		subframes = flag.Int("subframes", 1000, "subframes per basestation for -run")
		rtt2      = flag.Float64("rtt2", 550, "mean transport RTT/2 in µs for -run")
		spread    = flag.Float64("spread", 120, "uniform transport jitter half-width in µs for -run")
		seed      = flag.Uint64("seed", 7, "workload seed for -run")
		out       = flag.String("out", "rtopex-trace.json", "trace JSON output path for -run")
		metrics   = flag.String("metrics", "", "optional metrics JSON output path for -run")
		in        = flag.String("in", "", "trace JSON to load and render")
		from      = flag.Float64("from", 0, "timeline window start (µs)")
		to        = flag.Float64("to", 0, "timeline window end (µs; 0 = start + 20 ms)")
		res       = flag.Float64("res", 0, "µs per timeline column (0 = window/100)")
		job       = flag.String("job", "", "print the event chain of one subframe, as bs:index")
		misses    = flag.Int("misses", 0, "explain the first N missed subframes")
		chrome    = flag.String("chrome", "", "also export the trace as Chrome trace_event JSON (chrome://tracing, Perfetto)")
		flightDir = flag.String("flight", "", "arm the flight recorder during -run, spooling miss dossiers into this directory")
		dossier   = flag.String("dossier", "", "render one miss dossier file as a post-mortem and exit")
	)
	logCfg := obs.LogFlags(nil)
	flag.Parse()

	logger, err := logCfg.Logger("rtoptrace", os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtoptrace: %v\n", err)
		os.Exit(2)
	}
	errLogger = logger

	if *dossier != "" {
		d, err := flight.ReadDossierFile(*dossier)
		if err != nil {
			fail(err)
		}
		if err := flight.WritePostMortem(os.Stdout, d); err != nil {
			fail(err)
		}
		return
	}

	var log *trace.EventLog
	switch {
	case *run:
		log, err = tracedRun(*subframes, *rtt2, *spread, *seed, *out, *metrics, *flightDir)
		if err != nil {
			fail(err)
		}
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		log, err = trace.ReadEventLog(f)
		f.Close()
		if err != nil {
			fail(err)
		}
	default:
		errLogger.Error("specify -run or -in <trace.json>")
		flag.Usage()
		os.Exit(2)
	}

	if *chrome != "" {
		if err := writeTo(*chrome, log.WriteChromeTrace); err != nil {
			fail(err)
		}
		fmt.Printf("wrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", *chrome)
	}

	if *job != "" {
		var bs, sf int
		if _, err := fmt.Sscanf(*job, "%d:%d", &bs, &sf); err != nil {
			fail(fmt.Errorf("bad -job %q (want bs:index): %v", *job, err))
		}
		printJob(log, bs, sf)
		return
	}
	if *misses > 0 {
		explainMisses(log, *misses)
		return
	}
	renderTimeline(log, *from, *to, *res)
	fmt.Println()
	printTallies(log)
	fmt.Println()
	printUtilization(log)
}

// errLogger carries the structured logger fail() reports through; set once
// at startup, before any fail path can run.
var errLogger *slog.Logger

func fail(err error) {
	if errLogger != nil {
		errLogger.Error(err.Error())
	} else {
		fmt.Fprintf(os.Stderr, "rtoptrace: %v\n", err)
	}
	os.Exit(1)
}

// uniformTransport draws RTT/2 uniformly in [mean−spread, mean+spread]:
// arrivals land both earlier and later than the schedulers' expectation, so
// hosted batches get preempted — the recovery scenario of §3.2.
type uniformTransport struct{ mean, spread float64 }

func (u uniformTransport) Sample(r *stats.RNG) float64 {
	return u.mean + (r.Float64()-0.5)*2*u.spread
}

// tracedRun simulates RT-OPEX on the paper's evaluation workload with an
// unbounded event ring, exports the trace (and optionally metrics), and
// returns the log for rendering. A non-empty flightDir arms the flight
// recorder with a spool in that directory.
func tracedRun(subframes int, rtt2, spread float64, seed uint64, outPath, metricsPath, flightDir string) (*trace.EventLog, error) {
	w, err := sched.BuildWorkload(sched.WorkloadConfig{
		Basestations: 4, Subframes: subframes, Antennas: 2, Bandwidth: lte.BW10MHz,
		SNRdB: 30, Lm: 4,
		Params: model.PaperGPP, Jitter: model.DefaultJitter, IterLaw: model.DefaultIterationLaw,
		Profiles: trace.DefaultProfiles, FixedMCS: -1,
		Transport:      uniformTransport{mean: rtt2, spread: spread},
		ExpectedRTT2US: rtt2,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	var rec *flight.Recorder
	if flightDir != "" {
		spool, err := flight.NewSpool(flight.SpoolConfig{Dir: flightDir})
		if err != nil {
			return nil, err
		}
		rec = flight.New(flight.Config{Spool: spool})
	}
	res, err := harness.TracedRunObserved(w, sched.NewRTOPEX(2), 8, 0, nil, rec)
	if rec != nil {
		rec.Close()
		fmt.Printf("flight recorder: %d trigger(s), %d dossier(s) spooled to %s, %d suppressed\n",
			rec.Triggers(), rec.Written(), flightDir, rec.Suppressed())
	}
	if err != nil {
		return nil, err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	if err := res.WriteTraceJSON(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %d events to %s (%s)\n", len(res.Log.Events), outPath, res.Metrics)
	if metricsPath != "" {
		if err := writeTo(metricsPath, res.WriteMetricsJSON); err != nil {
			return nil, err
		}
		fmt.Printf("wrote metrics to %s\n", metricsPath)
	}
	return res.Log, nil
}

func writeTo(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedEvents returns the log's events ordered by time (stable, so
// emission order breaks ties).
func sortedEvents(log *trace.EventLog) []trace.Event {
	evs := make([]trace.Event, len(log.Events))
	copy(evs, log.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	return evs
}

func coreCount(log *trace.EventLog) int {
	n := log.Cores
	for _, e := range log.Events {
		if e.Core+1 > n {
			n = e.Core + 1
		}
	}
	return n
}

// interval is one colored span on a core's lane.
type interval struct {
	from, to float64
	ch       byte
}

// renderTimeline draws one lane per core: '#' running its own subframe,
// 'm' hosting a migrated batch, overlaid markers 'P' (batch preempted),
// 'A' (batch abandoned), 'X' (subframe dropped).
func renderTimeline(log *trace.EventLog, from, to, res float64) {
	evs := sortedEvents(log)
	if len(evs) == 0 {
		fmt.Println("trace is empty")
		return
	}
	if to <= from {
		to = from + 20000
		if last := evs[len(evs)-1].Time; last < to {
			to = last + 1
		}
	}
	if res <= 0 {
		res = (to - from) / 100
	}
	cores := coreCount(log)
	cols := int((to-from)/res + 0.5)
	if cols < 1 {
		cols = 1
	}

	lanes := make([][]byte, cores)
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat(".", cols))
	}
	paint := func(core int, iv interval) {
		if core < 0 || core >= cores {
			return
		}
		lo := int((iv.from - from) / res)
		hi := int((iv.to - from) / res)
		for c := lo; c <= hi && c < cols; c++ {
			if c < 0 {
				continue
			}
			lanes[core][c] = iv.ch
		}
	}
	// Markers overlay the lanes only after every interval is painted, so a
	// preemption marker is not clobbered by the preempting job's own span.
	type marker struct {
		core int
		t    float64
		ch   byte
	}
	var marks []marker
	mark := func(core int, t float64, ch byte) { marks = append(marks, marker{core, t, ch}) }

	// Replay: open own-job and hosted-batch intervals per core.
	jobStart := make(map[int]float64)   // core → own-job start
	batchStart := make(map[int]float64) // core → hosted-batch start
	for _, e := range evs {
		switch e.Event {
		case trace.EvStart:
			jobStart[e.Core] = e.Time
		case trace.EvFinish, trace.EvDrop:
			if s, ok := jobStart[e.Core]; ok {
				paint(e.Core, interval{s, e.Time, '#'})
				delete(jobStart, e.Core)
			}
			if e.Event == trace.EvDrop {
				mark(e.Core, e.Time, 'X')
			}
		case trace.EvMigPlan:
			batchStart[e.Core] = e.Time
		case trace.EvMigComplete, trace.EvMigPreempt, trace.EvMigAbandon:
			if s, ok := batchStart[e.Core]; ok {
				paint(e.Core, interval{s, e.Time, 'm'})
				delete(batchStart, e.Core)
			}
			switch e.Event {
			case trace.EvMigPreempt:
				mark(e.Core, e.Time, 'P')
			case trace.EvMigAbandon:
				mark(e.Core, e.Time, 'A')
			}
		}
	}
	// Close any interval still open at the window edge.
	for core, s := range jobStart {
		paint(core, interval{s, to, '#'})
	}
	for core, s := range batchStart {
		paint(core, interval{s, to, 'm'})
	}
	for _, mk := range marks {
		if mk.core < 0 || mk.core >= cores {
			continue
		}
		c := int((mk.t - from) / res)
		if c >= 0 && c < cols {
			lanes[mk.core][c] = mk.ch
		}
	}

	fmt.Printf("per-core timeline %s, [%.0f, %.0f] µs, %.0f µs/col\n", log.Scheduler, from, to, res)
	fmt.Println("  '#' own subframe  'm' hosted batch  'P' preempted  'A' abandoned  'X' dropped")
	for i, lane := range lanes {
		fmt.Printf("core %2d |%s|\n", i, lane)
	}
}

// printTallies reports the migration-batch lifecycle counts of Fig. 12 and
// the terminal job outcomes.
func printTallies(log *trace.EventLog) {
	kinds := map[trace.Kind]int{}
	outcomes := map[string]int{}
	for _, e := range log.Events {
		kinds[e.Event]++
		if e.Event == trace.EvFinish {
			outcomes[e.Text()]++
		}
	}
	fmt.Println("migration-batch lifecycle:")
	for _, k := range []trace.Kind{
		trace.EvMigPlan, trace.EvMigComplete, trace.EvMigPreempt,
		trace.EvMigConsume, trace.EvMigWait, trace.EvMigRecompute, trace.EvMigAbandon,
	} {
		fmt.Printf("  %-13s %d\n", k, kinds[k])
	}
	fmt.Printf("jobs: %d arrivals, %d starts, %d drops", kinds[trace.EvArrive], kinds[trace.EvStart], kinds[trace.EvDrop])
	for _, d := range []string{"ack", "late", "decodefail"} {
		fmt.Printf(", %d %s", outcomes[d], d)
	}
	fmt.Println()
	if log.Dropped > 0 {
		fmt.Printf("note: ring overflow dropped %d early events; tallies cover the tail of the run\n", log.Dropped)
	}
}

// printUtilization replays the log through the obs accountant and prints
// each core's busy/migration/idle split — the numeric complement of the
// ASCII timeline's '#' and 'm' spans, over the full run rather than one
// 20 ms window.
func printUtilization(log *trace.EventLog) {
	reports := obs.AccountantFromLog(log).Reports(coreCount(log), 0)
	if len(reports) == 0 {
		return
	}
	fmt.Println("per-core utilization over the full trace:")
	var busy, mig float64
	for _, r := range reports {
		fmt.Printf("  core %2d: busy %.3f  mig %.3f  idle %.3f  (busy %.1f ms, hosted %.1f ms)\n",
			r.Core, r.Busy, r.Migration, r.Idle, r.BusyUS/1000, r.MigrationUS/1000)
		busy += r.Busy
		mig += r.Migration
	}
	n := float64(len(reports))
	fmt.Printf("  mean:    busy %.3f  mig %.3f  idle %.3f\n", busy/n, mig/n, 1-(busy+mig)/n)
	if log.Dropped > 0 {
		fmt.Printf("  note: ring overflow dropped %d early events; fractions cover the tail\n", log.Dropped)
	}
}

// printJob dumps the event chain of one subframe.
func printJob(log *trace.EventLog, bs, sf int) {
	n := 0
	for _, e := range sortedEvents(log) {
		if e.BS != bs || e.Subframe != sf {
			continue
		}
		n++
		fmt.Printf("%10.1f µs  core %2d  %-13s %s\n", e.Time, e.Core, e.Event, e.Text())
	}
	if n == 0 {
		fmt.Printf("no events for subframe %d:%d\n", bs, sf)
	}
}

// explainMisses prints the event chains of the first n subframes that
// dropped or finished late.
func explainMisses(log *trace.EventLog, n int) {
	type key struct{ bs, sf int }
	seen := map[key]bool{}
	shown := 0
	for _, e := range sortedEvents(log) {
		miss := e.Event == trace.EvDrop || (e.Event == trace.EvFinish && e.Text() == "late")
		if !miss || seen[key{e.BS, e.Subframe}] {
			continue
		}
		seen[key{e.BS, e.Subframe}] = true
		fmt.Printf("-- subframe %d:%d missed (%s %s) --\n", e.BS, e.Subframe, e.Event, e.Text())
		printJob(log, e.BS, e.Subframe)
		shown++
		if shown >= n {
			return
		}
	}
	if shown == 0 {
		fmt.Println("no missed subframes in trace")
	}
}
