package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.SetHelp("up_total", "Liveness.")
	reg.Counter("up_total").Inc()
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	code, body, hdr := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if got := hdr.Get("Content-Type"); got != ContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", got, ContentType)
	}
	if !strings.Contains(body, "up_total 1") {
		t.Fatalf("/metrics body missing counter:\n%s", body)
	}

	code, body, _ = get(t, srv, "/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "cmdline") {
		t.Fatalf("/debug/vars: status=%d body=%q", code, body)
	}

	code, _, _ = get(t, srv, "/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", code)
	}

	code, body, _ = get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: status=%d body=%q", code, body)
	}
	code, _, _ = get(t, srv, "/nope")
	if code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d, want 404", code)
	}
}

func TestServeBindsAndStops(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total").Inc()
	addr, stop, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "served_total 1") {
		t.Fatalf("scrape body:\n%s", body)
	}
}

// TestExpvarTracksLatestRegistry is the regression test for the stale
// /debug/vars bug: the expvar closure used to capture the first registry
// ever served for the process lifetime, so a second Serve kept exposing the
// old one. The published closure must follow the latest registry.
func TestExpvarTracksLatestRegistry(t *testing.T) {
	first := NewRegistry()
	first.Counter("expvar_first_total").Inc()
	publishExpvar(first)

	second := NewRegistry()
	second.Counter("expvar_second_total").Add(2)
	addr, stop, err := Serve("127.0.0.1:0", second)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "expvar_second_total") {
		t.Fatalf("/debug/vars missing the latest registry's series:\n%s", body)
	}
	if strings.Contains(string(body), "expvar_first_total") {
		t.Fatalf("/debug/vars still serving the first registry:\n%s", body)
	}
}

func TestRuntimeSampler(t *testing.T) {
	reg := NewRegistry()
	stop := StartRuntime(reg, time.Hour).Stop // immediate sample only
	defer stop()
	if !reg.Gauge("rtopex_go_goroutines").IsSet() {
		t.Fatal("rtopex_go_goroutines not sampled")
	}
	if reg.Gauge("rtopex_go_heap_objects_bytes").Value() <= 0 {
		t.Fatal("heap bytes should be positive")
	}
	stop()
	stop() // idempotent
}
