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
//	GET  /api/series /api/query /api/slo /api/alerts
//	               the history plane: per-source and merged-fleet
//	               timelines (?source=<id> selects a source; default is
//	               the merge), SLO burn status, and alerts cross-linking
//	               the dossiers workers shipped
//
// -slo declares burn-rate objectives over the merged fleet counters
// (evaluated every -history-step); a firing alert cross-links the miss
// dossiers ingested inside its window.
//
// With -auth-token (or $RTOPEX_AUTH_TOKEN) every endpoint except the
// health probes requires the matching bearer token; pushers send it via
// `rtopex -push` / `sweepworker -push` with the same flag or env var.
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
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rtopex/internal/obs"
)

func main() {
	var (
		listen     = flag.String("listen", ":9090", "address to serve on (use 127.0.0.1:0 for an ephemeral port)")
		stale      = flag.Duration("stale", time.Minute, "evict non-final sources silent longer than this (0 = never)")
		final      = flag.String("final", "", "flush the merged snapshot to this JSON file on shutdown")
		dossierDir = flag.String("dossier-dir", "", "flush dossiers shipped by workers to this directory on shutdown")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
		token      = flag.String("auth-token", "", "require this bearer token on every endpoint (default $RTOPEX_AUTH_TOKEN)")
		quiet      = flag.Bool("quiet", false, "suppress per-source log lines")
	)
	hist := obs.HistoryFlags(nil, 2*time.Second, time.Hour)
	hist.SLOFlags()
	logCfg := obs.LogFlags(nil)
	flag.Parse()

	logger, err := logCfg.Logger("obscollect", nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obscollect: %v\n", err)
		os.Exit(2)
	}
	logf := obs.Printf(logger)
	clogf := logf
	if *quiet {
		clogf = nil
	}
	col := obs.NewCollector(obs.CollectorConfig{Stale: *stale, Logf: clogf})
	dossiers := obs.NewDossierStore(obs.DossierStoreConfig{Logf: clogf})

	// The history plane: per-source and merged-fleet timelines scraped
	// every -history-step, with -slo objectives evaluated over the merge
	// and firing alerts cross-linking the ingested dossiers.
	var history *obs.FleetHistory
	objectives := hist.Objectives()
	if hist.TSDB.Step > 0 {
		history = obs.NewFleetHistory(col, obs.FleetHistoryConfig{
			TSDB:       hist.TSDB,
			Objectives: objectives,
			Dossiers:   dossiers,
		})
		col.AttachHistory(history)
		history.Start()
		defer history.Stop()
	} else if len(objectives) > 0 {
		logf("-slo requires the history store (-history-step > 0)")
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logf("listen: %v", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			logf("addr-file: %v", err)
			os.Exit(1)
		}
	}
	authToken := obs.AuthTokenFromEnv(*token)
	auth := "open"
	if authToken != "" {
		auth = "bearer-token"
	}
	logf("listening on http://%s/ (%s: push, metrics, sources, dump, dossiers)", bound, auth)

	// Health probes stay unauthenticated (orchestrator probes carry no
	// token); collector and dossier endpoints sit behind the bearer gate.
	// Construction precedes serving, so /readyz is ready as soon as it
	// answers.
	mux := http.NewServeMux()
	obs.MountHealth(mux, nil)
	mux.Handle("/dossiers", obs.BearerAuth(authToken, dossiers.Handler()))
	mux.Handle("/dossiers/", obs.BearerAuth(authToken, dossiers.Handler()))
	if history != nil {
		for _, rt := range obs.APIRoutes(history.Resolve) {
			mux.Handle(rt.Pattern, obs.BearerAuth(authToken, rt.Handler))
		}
	}
	mux.Handle("/", obs.BearerAuth(authToken, col.Handler()))
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logf("serve: %v", err)
			os.Exit(1)
		}
	}()

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
	_ = srv.Close()

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
	if *dossierDir != "" && dossiers.Len() > 0 {
		if err := dossiers.WriteDir(*dossierDir); err != nil {
			logf("dossier-dir: %v", err)
			os.Exit(1)
		}
		logf("flushed %d dossier(s) to %s", dossiers.Len(), *dossierDir)
	}
}
