// Command rtopex regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	rtopex -list
//	rtopex -exp fig15 [-subframes 30000] [-samples 1000000] [-seed 7] [-quick]
//	rtopex -all [-quick]
//	rtopex -all -quick -parallel [-out sweep.jsonl] [-resume]
//	rtopex -all -quick -parallel -skip-measured -baseline testdata/baselines/quick.jsonl
//	rtopex -exp fig15,fig16 -quick -parallel -push 127.0.0.1:9090
//
// -exp accepts a comma-separated list, which is how a fleet splits the
// registry across machines; -push streams the live registry to a central
// cmd/obscollect collector after every finished experiment.
//
// Each experiment prints an aligned text table with notes tying the output
// back to the paper's claims. Every run goes through the sweep engine, on
// one worker unless -parallel or -workers says otherwise. -seed is the root
// seed: each experiment runs under a seed derived from it, the experiment
// id and the replica, so `rtopex -exp fig15` prints the table the sweep
// store holds for fig15, and a parallel sweep produces byte-identical
// artifact records to a serial one.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rtopex"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id to run (see -list)")
		all       = flag.Bool("all", false, "run every registered experiment")
		list      = flag.Bool("list", false, "list experiment ids")
		subframes = flag.Int("subframes", 0, "subframes per basestation (default 30000)")
		samples   = flag.Int("samples", 0, "samples for distribution experiments (default 1e6)")
		seed      = flag.Uint64("seed", 0, "root seed; each experiment derives its own from it, its id and its replica (default fixed)")
		quick     = flag.Bool("quick", false, "shrink scales ~10x for a fast run")
		format    = flag.String("format", "text", "output format: text or csv")

		// Sweep-engine flags: worker pool, artifact store, baseline gate.
		parallel = flag.Bool("parallel", false, "run experiments on a worker pool (default workers = NumCPU)")
		workers  = flag.Int("workers", 0, "worker-pool size for -parallel (default NumCPU)")
		out      = flag.String("out", "", "stream artifact records to this JSON-lines store")
		resume   = flag.Bool("resume", false, "skip experiments whose config hash already has a record in -out")
		baseline = flag.String("baseline", "", "compare results against this baseline store; exit 1 on drift")
		replicas = flag.Int("replicas", 0, "run each experiment this many times under distinct derived seeds")
		timeout  = flag.Duration("timeout", 0, "per-experiment timeout for sweep runs (0 = none)")
		skipMeas = flag.Bool("skip-measured", false, "exclude wall-clock-dependent experiments (fig4)")

		// Observability: opt-in HTTP plane with Prometheus /metrics,
		// /debug/vars (expvar) and /debug/pprof/ for profiling live runs,
		// plus push streaming to a central obscollect fleet collector.
		httpAddr = flag.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :6060) for the duration of the run")
		pushAddr = flag.String("push", "", "stream registry snapshots to the obscollect collector at this address (host:port)")
	)
	logCfg := rtopex.ObsLogFlags(nil)
	flag.Parse()

	logger, err := logCfg.Logger("rtopex", os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtopex: %v\n", err)
		os.Exit(2)
	}
	logf := rtopex.ObsPrintf(logger)

	var reg *rtopex.ObsRegistry
	if *httpAddr != "" || *pushAddr != "" {
		reg = rtopex.NewObsRegistry()
	}
	if *httpAddr != "" {
		bound, stop, err := rtopex.ServeObs(*httpAddr, reg)
		if err != nil {
			logf("-http: %v", err)
			os.Exit(1)
		}
		defer stop()
		logf("observability endpoint on http://%s/ (metrics, vars, pprof)", bound)
	}
	var pusher *rtopex.ObsPusher
	if *pushAddr != "" {
		pusher, err = rtopex.NewObsPusher(rtopex.ObsPusherConfig{
			Addr: *pushAddr,
			Source: rtopex.DefaultObsSource(
				rtopex.ObsL("role", "rtopex"),
				rtopex.ObsL("exps", expLabel(*exp, *all))),
			Logf: logf,
		})
		if err != nil {
			logf("-push: %v", err)
			os.Exit(1)
		}
	}

	if *list {
		for _, s := range rtopex.ExperimentSpecs() {
			tag := ""
			if s.Measured {
				tag = "  (measured)"
			}
			fmt.Printf("%-12s %s%s\n", s.ID, s.Title, tag)
		}
		return
	}

	opts := rtopex.ExperimentOptions{
		Subframes: *subframes,
		Samples:   *samples,
		Seed:      *seed,
		Quick:     *quick,
	}

	var ids []string
	switch {
	case *all:
		// Empty means the whole registry to the sweep engine.
	case *exp != "":
		ids = splitIDs(*exp)
	default:
		logf("specify -exp <id>, -all, or -list")
		flag.Usage()
		os.Exit(2)
	}

	os.Exit(runSweep(ids, opts, sweepFlags{
		parallel: *parallel, workers: *workers, out: *out, resume: *resume,
		baseline: *baseline, replicas: *replicas, timeout: *timeout,
		skipMeasured: *skipMeas, format: *format, obs: reg, push: pusher, logf: logf,
	}))
}

// splitIDs parses -exp's comma-separated experiment list.
func splitIDs(s string) []string {
	var ids []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

// expLabel renders the source label naming the experiments this process
// pushes for.
func expLabel(exp string, all bool) string {
	if all || exp == "" {
		return "all"
	}
	return strings.Join(splitIDs(exp), ",")
}

func printTable(tb *rtopex.ExperimentTable, format string) {
	switch format {
	case "csv":
		fmt.Print(tb.CSV())
		fmt.Println()
	default:
		fmt.Print(tb.String())
	}
}

type sweepFlags struct {
	parallel     bool
	workers      int
	out          string
	resume       bool
	baseline     string
	replicas     int
	timeout      time.Duration
	skipMeasured bool
	format       string
	obs          *rtopex.ObsRegistry
	push         *rtopex.ObsPusher
	logf         func(format string, args ...any)
}

// runSweep drives the sweep engine and returns the process exit code.
func runSweep(ids []string, opts rtopex.ExperimentOptions, f sweepFlags) int {
	workers := f.workers
	if !f.parallel && workers <= 0 {
		workers = 1 // without -parallel: serial, in registry order
	}
	res, err := rtopex.RunSweep(rtopex.SweepConfig{
		IDs:          ids,
		Workers:      workers,
		Options:      opts,
		Replicas:     f.replicas,
		Timeout:      f.timeout,
		SkipMeasured: f.skipMeasured,
		StorePath:    f.out,
		Resume:       f.resume,
		Progress:     os.Stderr,
		Obs:          f.obs,
		Push:         f.push,
	})
	if err != nil {
		f.logf("sweep: %v", err)
		return 1
	}

	// Render in deterministic (experiment, replica) order regardless of
	// which worker finished first.
	records := res.SortedRecords()
	for _, r := range records {
		if f.format != "csv" && r.Replica > 0 {
			fmt.Printf("== %s replica %d ==\n", r.Experiment, r.Replica)
		}
		printTable(r.Table, f.format)
		if f.format != "csv" {
			fmt.Println()
		}
	}

	// With replicas, append mean ± 95% CI summary tables so the scatter
	// across seeds is readable without manual arithmetic.
	if f.replicas > 1 {
		for _, tb := range rtopex.AggregateSweepReplicas(records) {
			printTable(tb, f.format)
			if f.format != "csv" {
				fmt.Println()
			}
		}
	}

	f.logf("sweep: %d ran, %d reused, %d failed in %.1fs (busy %.1fs, speedup %.2fx)",
		res.Ran, res.Reused, len(res.Failures), res.Wall.Seconds(), res.Busy.Seconds(), res.Speedup())
	for _, fail := range res.Failures {
		f.logf("sweep: FAILED %s: %s", fail.Unit.Spec.ID, fail.Err)
	}

	code := 0
	if len(res.Failures) > 0 {
		code = 1
	}
	if f.baseline != "" {
		base, err := rtopex.ReadSweepStore(f.baseline)
		if err != nil {
			f.logf("baseline: %v", err)
			return 1
		}
		drifts := rtopex.CompareSweeps(base, records, rtopex.SweepCompareOptions{})
		if len(drifts) > 0 {
			f.logf("sweep: %d drift(s) from baseline %s:", len(drifts), f.baseline)
			for _, d := range drifts {
				f.logf("  %s", d)
			}
			code = 1
		} else {
			f.logf("sweep: matches baseline %s (%d records compared)", f.baseline, len(base))
		}
	}
	return code
}
