// Command obscollect is the central observability collector of a
// distributed rtopex fleet: workers (sweep shards, livebench runs) push
// full registry snapshots to it over HTTP, and it serves the exact
// cross-source merge — the single pane of glass the per-process `-http`
// endpoints cannot provide.
//
//	obscollect -listen :9090 -stale 1m -final merged.json
//
// Endpoints:
//
//	POST /push     wire snapshot ingest (what `rtopex -push` sends)
//	GET  /metrics  merged Prometheus exposition, byte-comparable to a
//	               single process running the whole fleet's work
//	GET  /         live fleet dashboard (sources, sweep progress, worker
//	               occupancy, per-experiment miss rates, per-core load)
//	GET  /sources  per-source push ledger
//	GET  /dump     full state as JSON
//	POST /dossiers/push   miss-dossier ingest (sweepworker -flight-ship)
//	GET  /dossiers[/<id>] stored dossier listing / document
//	GET  /healthz /readyz liveness and readiness probes (unauthenticated)
//	GET  /api/alerts      with -history-step > 0: the -slo burn-rate alerts,
//	               each cross-linking the dossiers workers shipped inside
//	               its window (an empty list without -slo)
//
// -slo declares burn-rate objectives over the merged fleet counters: every
// -history-step the merged snapshot's counters are scraped into the
// in-process store and the objectives evaluated over it.
//
// The -listen, -addr-file, -auth-token, -dossier-dir, -quiet and log flags,
// the mux layout and the shutdown flush come from obs.DaemonFlags, shared
// with sweepd. With -auth-token (or $RTOPEX_AUTH_TOKEN) every endpoint
// except the health probes requires the matching bearer token; pushers
// send it via `rtopex -push` / `sweepworker -push` with the same flag or
// env var.
//
// Sources that stop pushing without a final snapshot (crashed workers) are
// evicted after -stale of silence. On SIGINT/SIGTERM the final merged
// snapshot is flushed to -final as JSON, and any dossiers workers shipped
// are flushed to -dossier-dir, for archival; then the process exits.
//
// Logs are structured (log/slog); -log-format {text,json} and -log-level
// select the handler shared by all fleet daemons.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rtopex/internal/obs"
)

func main() {
	var (
		stale = flag.Duration("stale", time.Minute, "evict non-final sources silent longer than this (0 = never)")
		final = flag.String("final", "", "flush the merged snapshot to this JSON file on shutdown")
	)
	d := obs.DaemonFlags(nil, ":9090")
	hist := obs.HistoryFlags(nil, 2*time.Second, time.Hour)
	hist.SLOFlags()
	flag.Parse()

	if err := d.Init("obscollect"); err != nil {
		fmt.Fprintf(os.Stderr, "obscollect: %v\n", err)
		os.Exit(2)
	}
	logf := d.Logf
	col := obs.NewCollector(obs.CollectorConfig{Stale: *stale, Logf: d.Chatty})

	// The history plane: -slo objectives evaluated over the merged fleet
	// counters, firing alerts cross-linking the ingested dossiers.
	slo, stopHistory, err := hist.Start(col.Merged, d.Dossiers)
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	defer stopHistory()
	var extra []obs.Route
	if hist.TSDB.Step > 0 {
		extra = append(extra, obs.AlertsRoute(slo))
	}
	if err := d.Serve(col.Handler(), extra...); err != nil {
		logf("%v", err)
		os.Exit(1)
	}

	// Background eviction keeps the dashboard honest even when nobody
	// scrapes (the read paths also evict lazily).
	if *stale > 0 {
		go func() {
			t := time.NewTicker(*stale / 2)
			defer t.Stop()
			for range t.C {
				col.EvictStale()
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	logf("%s: shutting down", s)
	if err := d.Close(); err != nil {
		logf("%v", err)
		os.Exit(1)
	}

	if *final != "" {
		f, err := os.Create(*final)
		if err != nil {
			logf("final: %v", err)
			os.Exit(1)
		}
		if err := col.WriteDump(f); err != nil {
			logf("final: %v", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			logf("final: %v", err)
			os.Exit(1)
		}
		logf("flushed merged snapshot (%d source(s)) to %s", len(col.Sources()), *final)
	}
}
