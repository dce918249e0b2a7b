// Command sweepd is the fleet sweep coordinator: it expands a sweep spec
// into (experiment × replica) units, leases them to sweepworker processes
// over HTTP, re-leases units whose worker dies or goes silent, merges
// completed records into a JSON-lines store with content-hash dedup, and
// exits once every unit is resolved — optionally gating the merged store
// against a baseline, exactly like a serial `rtopex -baseline` run.
//
//	sweepd -listen :7600 -all -quick -skip-measured -out fleet.jsonl \
//	       -lease-ttl 30s -baseline testdata/baselines/quick.jsonl
//
// Endpoints (POST endpoints speak the internal/fleet JSON protocol):
//
//	POST /lease /heartbeat /complete /fail   worker protocol
//	GET  /            text status page (units, workers, leases, failures)
//	GET  /state.json  machine-readable status
//	GET  /metrics     rtopex_fleet_* lease/reclaim/liveness counters
//	POST /dossiers/push   miss-dossier ingest from sweepworker -flight-ship
//	GET  /dossiers[/<id>] stored dossier listing / document
//	GET  /healthz /readyz liveness and readiness probes (unauthenticated)
//
// The -listen, -addr-file, -auth-token, -dossier-dir, -quiet and log flags,
// the mux layout and the shutdown flush come from obs.DaemonFlags, shared
// with obscollect. With -auth-token (or $RTOPEX_AUTH_TOKEN) every endpoint
// except the health probes requires the matching bearer token. The
// artifact store a fleet sweep produces is byte-identical (modulo line
// order) to a serial sweep.Run of the same spec — scripts/fleet-smoke.sh
// proves it in CI with a worker SIGKILLed mid-sweep.
//
// Logs are structured (log/slog); -log-format {text,json} and -log-level
// select the handler shared by all fleet daemons.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rtopex/internal/fleet"
	"rtopex/internal/harness"
	"rtopex/internal/obs"
	"rtopex/internal/sweep"
)

func main() {
	var (
		out      = flag.String("out", "", "merge completed records into this JSON-lines store")
		resume   = flag.Bool("resume", false, "skip units whose config hash already has a record in -out")
		leaseTTL = flag.Duration("lease-ttl", 30*time.Second, "re-lease a unit if its worker is silent this long")
		attempts = flag.Int("max-attempts", 3, "lease grants per unit before it fails permanently")
		baseline = flag.String("baseline", "", "compare the merged store against this baseline on completion; exit 1 on drift")
		wait     = flag.Duration("wait", 0, "exit 1 if the sweep has not resolved after this long (0 = wait forever)")
		linger   = flag.Duration("linger", 2*time.Second, "keep serving 'done' responses this long after the sweep resolves so idle workers exit cleanly")

		exp       = flag.String("exp", "", "comma-separated experiment ids (default: whole registry)")
		all       = flag.Bool("all", false, "sweep every registered experiment (the default when -exp is empty)")
		subframes = flag.Int("subframes", 0, "subframes per basestation (default 30000)")
		samples   = flag.Int("samples", 0, "samples for distribution experiments (default 1e6)")
		seed      = flag.Uint64("seed", 0, "root seed; unit seeds derive from it (default fixed)")
		quick     = flag.Bool("quick", false, "shrink scales ~10x")
		replicas  = flag.Int("replicas", 0, "run each experiment this many times under distinct derived seeds")
		timeout   = flag.Duration("timeout", 0, "per-unit compute budget handed to workers (0 = none)")
		skipMeas  = flag.Bool("skip-measured", false, "exclude wall-clock-dependent experiments (fig4)")
	)
	var tolSpecs []string
	flag.Func("tol", "per-column tolerance for -baseline, column=rel[,abs] or experiment/column=rel (repeatable)", func(s string) error {
		tolSpecs = append(tolSpecs, s)
		return nil
	})
	d := obs.DaemonFlags(nil, ":7600")
	flag.Parse()
	_ = all // -all is the default; the flag exists for symmetry with rtopex

	if err := d.Init("sweepd"); err != nil {
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
		os.Exit(2)
	}
	logf := d.Logf
	perCol, err := sweep.ParseTolerances(tolSpecs)
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}

	var ids []string
	if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	coord, err := fleet.NewCoordinator(fleet.Config{
		Spec: sweep.Config{
			IDs:          ids,
			Options:      harness.Options{Subframes: *subframes, Samples: *samples, Seed: *seed, Quick: *quick},
			Replicas:     *replicas,
			Timeout:      *timeout,
			SkipMeasured: *skipMeas,
			StorePath:    *out,
			Resume:       *resume,
		},
		LeaseTTL:    *leaseTTL,
		MaxAttempts: *attempts,
		Logf:        d.Chatty,
	})
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}

	// The coordinator is constructed (store writable, lease ledger loaded)
	// before serving, so /readyz is ready as soon as it answers.
	if err := d.Serve(coord.Handler()); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	logf("coordinating %d unit(s), lease TTL %s", coord.Summary().Total, *leaseTTL)

	if err := coord.Wait(*wait); err != nil {
		logf("%v", err)
		s := coord.Summary()
		logf("unresolved at exit: %d/%d done, %d failed", s.Done, s.Total, s.Failed)
		os.Exit(1)
	}
	// Workers poll /lease between units; keep answering StatusDone for a
	// beat so slots mid-poll see the sweep resolve instead of a dead port.
	if *linger > 0 {
		time.Sleep(*linger)
	}
	// Stop serving before the store closes; a failed dossier flush still
	// lets the store close first.
	flushErr := d.Close()
	if err := coord.Close(); err != nil {
		logf("store: %v", err)
		os.Exit(1)
	}
	if flushErr != nil {
		logf("%v", flushErr)
		os.Exit(1)
	}

	s := coord.Summary()
	logf("sweep resolved: %d/%d done (%d reused), %d failed; %d leases, %d reclaims, %d releases, %d duplicates",
		s.Done, s.Total, s.Reused, s.Failed, s.Leases, s.Reclaims, s.Releases, s.Duplicates)
	for _, f := range s.Failures {
		logf("FAILED %s: %s", f.Unit.Spec.ID, f.Err)
	}
	code := 0
	if s.Failed > 0 {
		code = 1
	}

	if *baseline != "" {
		base, err := sweep.ReadStore(*baseline)
		if err != nil {
			logf("baseline: %v", err)
			os.Exit(1)
		}
		drifts := sweep.Compare(base, coord.Records(), sweep.CompareOptions{PerColumn: perCol})
		if len(drifts) > 0 {
			logf("%d drift(s) from baseline %s:", len(drifts), *baseline)
			for _, d := range drifts {
				logf("  %s", d)
			}
			code = 1
		} else {
			logf("matches baseline %s (%d records compared)", *baseline, len(base))
		}
	}
	os.Exit(code)
}
