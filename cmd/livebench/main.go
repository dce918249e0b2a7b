// Command livebench runs the real Go PHY chain under wall-clock deadlines:
// the live counterpart of the discrete-event experiments, and a direct
// measurement of how far a garbage-collected runtime sits from the paper's
// pinned-pthread testbed.
//
// The subframe clock is dilated (default 2×: one "1 ms" subframe every
// 2 ms, what the benchmark ledger runs). A subframe of the ledger's
// trace-driven MCS mix takes ≈ 1.1 ms median and ≈ 1.4 ms at p90, so the
// dilated 4 ms budget holds on an idle host. The scheduling geometry — core
// mapping, utilization ratio, slack fractions — is preserved. Go's timers
// have 1 ms granularity on Linux; the feeder releases each subframe within
// tens of µs of its due time anyway, and "release → start" reports how long
// subframes waited before their core started them. Each worker core runs
// its stages' subtasks on -phy-workers goroutines; subframes of one core
// never overlap.
//
// With -http the run carries the full observability surface: /metrics,
// pprof, /healthz+/readyz probes, the flight recorder's /dossiers, and the
// SLO engine's /api/alerts. -slo declares burn-rate objectives over the
// live counters; a firing alert cross-links the miss dossiers captured
// inside its window.
//
// Usage:
//
//	livebench -bs 2 -subframes 100 -mcs 13
//	livebench -bs 4 -subframes 200 -mcs -1          # trace-driven MCS
//	livebench -http :6060 -flight /tmp/spool \
//	  -slo 'miss_rate: rtopex_live_missed_total+rtopex_live_dropped_total / rtopex_live_subframes_total <= 0.1% over 5m'
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"rtopex/internal/flight"
	"rtopex/internal/obs"
	"rtopex/internal/realtime"
	"rtopex/internal/stats"
	"rtopex/internal/trace"
)

func main() {
	var (
		bs        = flag.Int("bs", 2, "basestations")
		cores     = flag.Int("cores-per-bs", 2, "cores per basestation (⌈Tmax⌉)")
		subframes = flag.Int("subframes", 100, "subframes per basestation")
		antennas  = flag.Int("antennas", 2, "receive antennas")
		mcs       = flag.Int("mcs", 13, "fixed MCS, or -1 for trace-driven")
		snr       = flag.Float64("snr", 30, "SNR in dB")
		dilation  = flag.Float64("dilation", 2, "subframe-clock dilation factor")
		phyWork   = flag.Int("phy-workers", 1, "subtask workers per core (parallel PHY fast path; ≤1 = serial)")
		seed      = flag.Uint64("seed", 1, "random seed")
		httpAddr  = flag.String("http", "", "serve /metrics, /debug/vars, /debug/pprof, health probes and /api/alerts on this address (e.g. :6060) during the run")
		pushAddr  = flag.String("push", "", "stream registry snapshots to the obscollect collector at this address (host:port)")
		pushEvery = flag.Duration("push-interval", 2*time.Second, "interval between pushes for -push")
		flightDir = flag.String("flight", "", "arm the deadline-miss flight recorder and spool dossiers into this directory")
		shipAddr  = flag.String("flight-ship", "", "ship spooled dossiers to this daemon's /dossiers/push (default: the -push address)")
		token     = flag.String("auth-token", "", "bearer token for -flight-ship (default $RTOPEX_AUTH_TOKEN)")
		linger    = flag.Duration("linger", 0, "keep serving -http for this long after the run finishes (inspection/smoke)")
	)
	hist := obs.HistoryFlags(nil, time.Second, 15*time.Minute)
	hist.SLOFlags()
	logCfg := obs.LogFlags(nil)
	flag.Parse()

	logger, err := logCfg.Logger("livebench", os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %v\n", err)
		os.Exit(1)
	}
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}

	// The live run always carries the observability plane: a registry for
	// the progress counters and a per-core accountant replaying the event
	// stream, whether or not -http exposes them. A Go-runtime sampler adds
	// GC pause and heap series — the jitter sources the caveat below names.
	reg := obs.NewRegistry()
	sampler := obs.StartRuntime(reg, time.Second)
	defer sampler.Stop()

	// -flight arms the miss flight recorder: every deadline miss or drop
	// freezes a dossier into the spool, and the -http surface
	// gains /dossiers and the /events SSE stream.
	var rec *flight.Recorder
	var spool *flight.Spool
	var dossiers obs.DossierSource
	if *flightDir != "" {
		spool, err = flight.NewSpool(flight.SpoolConfig{Dir: *flightDir})
		if err != nil {
			fatalf("-flight: %v", err)
		}
		rec = flight.New(flight.Config{Spool: spool, Registry: reg})
		dossiers = rec
	}

	// The history plane: -slo objectives evaluated over the registry's
	// counters every -history-step, cross-linking the flight recorder's
	// dossiers onto firing alerts.
	slo, stopHistory, err := hist.Start(reg.Snapshot, dossiers)
	if err != nil {
		fatalf("%v", err)
	}
	defer stopHistory()

	if *httpAddr != "" {
		extra := obs.HealthRoutes()
		if rec != nil {
			extra = append(extra, rec.Routes()...)
		}
		if hist.TSDB.Step > 0 {
			extra = append(extra, obs.AlertsRoute(slo))
		}
		bound, stop, err := obs.Serve(*httpAddr, reg, extra...)
		if err != nil {
			fatalf("-http: %v", err)
		}
		defer stop()
		logger.Info("observability endpoint up", "addr", "http://"+bound+"/")
	}
	var stopPush func() error
	if *pushAddr != "" {
		pusher, err := obs.NewPusher(obs.PusherConfig{
			Addr:   *pushAddr,
			Source: obs.DefaultSource(obs.L("role", "livebench")),
			Logf:   obs.Printf(logger),
		})
		if err != nil {
			fatalf("-push: %v", err)
		}
		// Periodic pushes keep the collector's fleet view live during the
		// run; the deferred stop sends the final (complete) state.
		stopPush = pusher.StartPeriodic(reg, *pushEvery)
		defer func() {
			if err := stopPush(); err != nil {
				logger.Warn("final push failed", "err", err)
			}
		}()
	}
	// Spooled dossiers ship to a fleet daemon's /dossiers/push (obscollect
	// or sweepd) so fleet-side SLO alerts can cross-link them too.
	var shipStop func()
	if spool != nil {
		addr := *shipAddr
		if addr == "" {
			addr = *pushAddr
		}
		if addr != "" {
			shipper, err := flight.NewShipper(flight.ShipperConfig{
				Addr:      addr,
				Source:    obs.DefaultSource(obs.L("role", "livebench")).ID,
				AuthToken: obs.AuthTokenFromEnv(*token),
				Logf:      obs.Printf(logger),
			})
			if err != nil {
				fatalf("-flight-ship: %v", err)
			}
			shipStop = shipper.StartPeriodic(spool, *pushEvery)
		}
	}
	acct := obs.NewCoreAccountant()

	fmt.Printf("live run: %d BS × %d subframes, %d workers, dilation %.0fx (GOMAXPROCS=%d, NumCPU=%d)\n",
		*bs, *subframes, *bs**cores, *dilation, runtime.GOMAXPROCS(0), runtime.NumCPU())

	st, err := realtime.Run(realtime.Config{
		Basestations: *bs,
		CoresPerBS:   *cores,
		Subframes:    *subframes,
		Antennas:     *antennas,
		SNRdB:        *snr,
		MCS:          *mcs,
		Profiles:     trace.DefaultProfiles,
		Dilation:     *dilation,
		PHYWorkers:   *phyWork,
		Seed:         *seed,
		Tracer:       acct,
		Obs:          reg,
		Flight:       rec,
	})
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("\nsubframes: %d  decoded: %d  missed: %d  dropped: %d  decodeFail: %d\n",
		st.Subframes, st.Decoded, st.Missed, st.Dropped, st.DecodeFail)
	fmt.Printf("deadline-miss rate: %.3g\n", st.MissRate())
	if len(st.ProcUS) > 0 {
		s := stats.Summarize(st.ProcUS)
		fmt.Printf("processing time (ms): p50=%.1f p90=%.1f p99=%.1f max=%.1f\n",
			s.P50/1000, s.P90/1000, s.P99/1000, s.Max/1000)
	}
	if len(st.WaitUS) > 0 {
		s := stats.Summarize(st.WaitUS)
		fmt.Printf("release → start (ms): p50=%.2f p90=%.2f p99=%.2f\n",
			s.P50/1000, s.P90/1000, s.P99/1000)
	}
	if len(st.LateUS) > 0 {
		s := stats.Summarize(st.LateUS)
		fmt.Printf("tardiness of misses (ms): p50=%.1f max=%.1f\n", s.P50/1000, s.Max/1000)
	}

	// Per-core utilization from the replayed event stream. Idle includes
	// wait-for-release slack; misses show up as busy fractions above the
	// 1/CoresPerBS partitioned share.
	reports := acct.Reports(*bs**cores, 0)
	acct.Publish(reg, *bs**cores, 0)
	fmt.Println("\nper-core utilization (busy/migration/idle fractions):")
	for _, r := range reports {
		fmt.Printf("  core %2d: busy %.3f  mig %.3f  idle %.3f  (busy %.1f ms)\n",
			r.Core, r.Busy, r.Migration, r.Idle, r.BusyUS/1000)
	}

	// Final Go-runtime sample: the GC/heap series the -http endpoint serves.
	obs.SampleRuntime(reg)
	if g := reg.Gauge("rtopex_go_gc_cycles_total"); g.IsSet() {
		fmt.Printf("\ngo runtime: %d GC cycles, heap %.1f MB live",
			int64(g.Value()), reg.Gauge("rtopex_go_heap_objects_bytes").Value()/1e6)
		if p := reg.Gauge("rtopex_go_gc_pause_seconds", obs.L("q", "0.99")); p.IsSet() {
			fmt.Printf(", GC pause p99 %.2f ms", p.Value()*1e3)
		}
		fmt.Println()
	}

	if rec != nil {
		rec.Close()
		if shipStop != nil {
			shipStop() // final ship after the recorder flushed its queue
		}
		fmt.Printf("\nflight recorder: %d trigger(s), %d dossier(s) spooled to %s, %d suppressed\n",
			rec.Triggers(), rec.Written(), *flightDir, rec.Suppressed())
	}

	// SLO recap: the burn rates and state each objective ended the run in.
	if slo != nil {
		fmt.Println("\nslo:")
		for _, a := range slo.Alerts() {
			fmt.Printf("  %s: burn fast %.2f slow %.2f [%s], %d dossier(s) linked\n",
				a.Objective, a.FastBurn, a.SlowBurn, a.State, a.DossierCount)
		}
	}

	if *linger > 0 && *httpAddr != "" {
		logger.Info("lingering for inspection", "for", (*linger).String())
		time.Sleep(*linger)
	}

	fmt.Println("\ncaveat: Go's GC and scheduler inject milliseconds of jitter; the paper's")
	fmt.Println("pinned-pthread/low-latency-kernel testbed sees tens of microseconds. See DESIGN.md.")
}
