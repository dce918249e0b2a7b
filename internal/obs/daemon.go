package obs

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
)

// The serving surface shared by the fleet daemons (sweepd, obscollect):
// one flag block, one mux layout and one shutdown flush, so the daemons
// differ only in the handler they mount at the root.
//
//	GET  /healthz /readyz    liveness and readiness probes
//	POST /dossiers/push      miss-dossier ingest from fleet workers
//	GET  /dossiers[/<id>]    stored dossier listing / document
//	     extra routes        e.g. obscollect's /api/alerts
//	     /                   the daemon's own handler
//
// The probes stay open: an orchestrator's probe carries no bearer token,
// and neither exposes state beyond up. Everything else sits behind
// BearerAuth. A daemon is constructed before it serves, so it is ready as
// soon as /readyz answers.

// HealthRoutes returns the /healthz and /readyz probes, both answering
// "ok" (livebench mounts them on its obs.Serve mux).
func HealthRoutes() []Route {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	return []Route{{Pattern: "/healthz", Handler: ok}, {Pattern: "/readyz", Handler: ok}}
}

// Daemon carries the shared daemon flags (-listen, -addr-file,
// -auth-token, -dossier-dir, -quiet and the log flags) and, after Init,
// the logger and dossier store built from them.
type Daemon struct {
	// Logf logs unconditionally; Chatty is Logf, or nil under -quiet, for
	// per-lease, per-source and per-dossier lines.
	Logf, Chatty func(format string, args ...any)
	// Dossiers holds the miss dossiers workers ship to /dossiers/push.
	Dossiers *DossierStore

	listen, addrFile, token, dossierDir string
	quiet                               bool
	log                                 *LogConfig
	srv                                 *http.Server
}

// DaemonFlags registers the shared daemon flags on fs (the global flag set
// when nil) with the calling daemon's default listen address.
func DaemonFlags(fs *flag.FlagSet, listen string) *Daemon {
	if fs == nil {
		fs = flag.CommandLine
	}
	d := &Daemon{log: LogFlags(fs)}
	fs.StringVar(&d.listen, "listen", listen, "address to serve on (use 127.0.0.1:0 for an ephemeral port)")
	fs.StringVar(&d.addrFile, "addr-file", "", "write the bound address to this file once listening (for scripts)")
	fs.StringVar(&d.token, "auth-token", "", "require this bearer token on every endpoint but the health probes (default $"+AuthEnvVar+")")
	fs.StringVar(&d.dossierDir, "dossier-dir", "", "flush dossiers shipped by workers to this directory on exit")
	fs.BoolVar(&d.quiet, "quiet", false, "suppress per-lease, per-source and per-dossier log lines")
	return d
}

// Init builds the logger, tagged with component, and the dossier store from
// the parsed flags. A bad -log-format or -log-level is an error.
func (d *Daemon) Init(component string) error {
	logger, err := d.log.Logger(component, nil)
	if err != nil {
		return err
	}
	d.Logf = Printf(logger)
	if !d.quiet {
		d.Chatty = d.Logf
	}
	d.Dossiers = NewDossierStore(DossierStoreConfig{Logf: d.Chatty})
	return nil
}

// Serve binds -listen, writes the bound address to -addr-file, and serves
// the daemon mux around root in the background. A serve failure after the
// bind exits the process.
func (d *Daemon) Serve(root http.Handler, extra ...Route) error {
	ln, err := net.Listen("tcp", d.listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	bound := ln.Addr().String()
	if d.addrFile != "" {
		if err := os.WriteFile(d.addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("addr-file: %w", err)
		}
	}
	token := AuthTokenFromEnv(d.token)
	d.srv = &http.Server{Handler: d.handler(token, root, extra)}
	go func() {
		if err := d.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			d.Logf("serve: %v", err)
			os.Exit(1)
		}
	}()
	auth := "open"
	if token != "" {
		auth = "bearer-token"
	}
	d.Logf("listening on http://%s/ (%s)", bound, auth)
	return nil
}

// handler lays out the daemon mux described at the top of this file.
func (d *Daemon) handler(token string, root http.Handler, extra []Route) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range HealthRoutes() {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	dossiers := BearerAuth(token, d.Dossiers.Handler())
	mux.Handle("/dossiers", dossiers)
	mux.Handle("/dossiers/", dossiers)
	for _, rt := range extra {
		mux.Handle(rt.Pattern, BearerAuth(token, rt.Handler))
	}
	mux.Handle("/", BearerAuth(token, root))
	return mux
}

// Close stops serving and flushes the stored dossiers to -dossier-dir.
func (d *Daemon) Close() error {
	if d.srv != nil {
		_ = d.srv.Close()
	}
	if d.dossierDir == "" || d.Dossiers.Len() == 0 {
		return nil
	}
	if err := d.Dossiers.WriteDir(d.dossierDir); err != nil {
		return fmt.Errorf("dossier-dir: %w", err)
	}
	d.Logf("flushed %d dossier(s) to %s", d.Dossiers.Len(), d.dossierDir)
	return nil
}
