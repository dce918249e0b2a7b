package obs

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testDaemon parses args into a fresh daemon flag set and initialises it.
func testDaemon(t *testing.T, args ...string) *Daemon {
	t.Helper()
	fs := flag.NewFlagSet("d", flag.ContinueOnError)
	d := DaemonFlags(fs, ":0")
	if err := fs.Parse(append([]string{"-quiet"}, args...)); err != nil {
		t.Fatal(err)
	}
	if err := d.Init("test"); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMountHealth: the daemon mux mounts the health probes open while the
// dossier store, extra routes and root handler all require the token.
func TestMountHealth(t *testing.T) {
	d := testDaemon(t)
	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "root") })
	extra := Route{Pattern: "/api/x", Handler: root}
	srv := httptest.NewServer(d.handler("secret", root, []Route{extra}))
	defer srv.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		if code, body, _ := get(t, srv, path); code != http.StatusOK || body != "ok\n" {
			t.Fatalf("%s: code=%d body=%q", path, code, body)
		}
	}
	for _, path := range []string{"/dossiers", "/dossiers/1", "/api/x", "/", "/anything"} {
		if code, _, _ := get(t, srv, path); code != http.StatusUnauthorized {
			t.Fatalf("%s without token: code=%d, want 401", path, code)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/dossiers", nil)
	AuthHeader(req, "secret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/dossiers with token: code=%d", resp.StatusCode)
	}
}

// TestDaemonServeAndClose: Serve binds and writes -addr-file; Close stops
// serving and flushes the stored dossiers into -dossier-dir.
func TestDaemonServeAndClose(t *testing.T) {
	dir := t.TempDir()
	addrFile, dossierDir := filepath.Join(dir, "addr"), filepath.Join(dir, "dossiers")
	d := testDaemon(t, "-listen", "127.0.0.1:0", "-addr-file", addrFile, "-dossier-dir", dossierDir)
	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "root") })
	if err := d.Serve(root); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(addrFile)
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + strings.TrimSpace(string(raw))
	doc := `{"flight_version":1,"label":"d","trigger":"deadline-miss","seq":1}`
	resp, err := http.Post(url+DossierPushPath, "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dossier push: code=%d", resp.StatusCode)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("daemon still serving after Close")
	}
	if files, _ := filepath.Glob(filepath.Join(dossierDir, "dossier-*.json")); len(files) != 1 {
		t.Fatalf("flushed dossiers = %v, want 1", files)
	}
}
