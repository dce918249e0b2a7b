package flight_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rtopex/internal/flight"
	"rtopex/internal/obs"
)

func routesMux(rec *flight.Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range rec.Routes() {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	return mux
}

func TestDossierRoutes(t *testing.T) {
	sp, err := flight.NewSpool(flight.SpoolConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New(flight.Config{PostEvents: -1, MaxPerSec: -1, Spool: sp})
	tap := rec.NewTap(flight.TapConfig{Label: "http"})
	tap.Emit(miss(100, 0, 0, 7))
	tap.Close()
	rec.Close()

	srv := httptest.NewServer(routesMux(rec))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/dossiers")
	if err != nil {
		t.Fatal(err)
	}
	var idx flight.Index
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if idx.Written != 1 || idx.Triggers != 1 || len(idx.Dossiers) != 1 || idx.Spooled != 1 {
		t.Fatalf("unexpected index: %+v", idx)
	}
	if idx.Dossiers[0].Subframe != 7 {
		t.Fatalf("summary subframe = %d, want 7", idx.Dossiers[0].Subframe)
	}

	resp, err = http.Get(srv.URL + "/dossiers/1")
	if err != nil {
		t.Fatal(err)
	}
	d, err := flight.ReadDossier(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d.Seq != 1 || d.Trigger != flight.TriggerDeadlineMiss {
		t.Fatalf("unexpected dossier: %+v", d)
	}

	resp, err = http.Get(srv.URL + "/dossiers/99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing dossier: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestEventStream: an SSE subscriber receives each captured dossier's
// summary as one "dossier" event.
func TestEventStream(t *testing.T) {
	rec := flight.New(flight.Config{PostEvents: -1, MaxPerSec: -1})
	srv := httptest.NewServer(routesMux(rec))
	defer srv.Close()
	defer rec.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	// The initial comment confirms the subscription is live before we
	// trigger, so the fanout cannot race the subscribe.
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ":") {
		t.Fatalf("no SSE preamble (got %q)", sc.Text())
	}

	tap := rec.NewTap(flight.TapConfig{Label: "sse"})
	tap.Emit(miss(42, 1, 0, 3))
	tap.Close()

	var data string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
			break
		}
	}
	if data == "" {
		t.Fatalf("no dossier event on the stream (scan err: %v)", sc.Err())
	}
	var sum flight.Summary
	if err := json.Unmarshal([]byte(data), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Seq != 1 || sum.Core != 1 || sum.Subframe != 3 {
		t.Fatalf("unexpected summary: %+v", sum)
	}
}

// TestShipper: spooled dossiers reach a daemon's DossierStore once each,
// through the bearer-authed push path; permanent rejections are consumed,
// not retried forever.
func TestShipper(t *testing.T) {
	sp, err := flight.NewSpool(flight.SpoolConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New(flight.Config{PostEvents: -1, MaxPerSec: -1, Spool: sp})
	tap := rec.NewTap(flight.TapConfig{Label: "ship"})
	tap.Emit(miss(1, 0, 0, 0))
	tap.Emit(miss(2, 0, 1, 1))
	tap.Close()
	rec.Close()
	if sp.Len() != 2 {
		t.Fatalf("spooled %d, want 2", sp.Len())
	}

	store := obs.NewDossierStore(obs.DossierStoreConfig{})
	srv := httptest.NewServer(obs.BearerAuth("sekrit", store.Handler()))
	defer srv.Close()

	ship, err := flight.NewShipper(flight.ShipperConfig{
		Addr:      srv.URL,
		Source:    "worker-1",
		AuthToken: "sekrit",
		Retry:     obs.RetryPolicy{Attempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sent, err := ship.ShipNew(sp)
	if err != nil || sent != 2 {
		t.Fatalf("ShipNew = %d,%v; want 2,nil", sent, err)
	}
	if store.Len() != 2 {
		t.Fatalf("store has %d dossiers, want 2", store.Len())
	}
	metas := store.List()
	if metas[0].Source != "worker-1" || metas[0].Trigger != "deadline-miss" {
		t.Fatalf("unexpected meta: %+v", metas[0])
	}
	// Idempotence: nothing new, nothing resent.
	if sent, err := ship.ShipNew(sp); err != nil || sent != 0 {
		t.Fatalf("second ShipNew = %d,%v; want 0,nil", sent, err)
	}
	if ship.Sent() != 2 {
		t.Fatalf("Sent = %d, want 2", ship.Sent())
	}

	// A wrong token is a 401: permanent, consumed after one round.
	var rejects int
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rejects++
		if got := r.Header.Get(obs.DossierSourceHeader); got != "worker-2" {
			t.Errorf("%s = %q, want worker-2", obs.DossierSourceHeader, got)
		}
		http.Error(w, "no", http.StatusUnauthorized)
	}))
	defer rejecting.Close()
	ship2, err := flight.NewShipper(flight.ShipperConfig{Addr: rejecting.URL, Source: "worker-2", Retry: obs.RetryPolicy{Attempts: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if sent, _ := ship2.ShipNew(sp); sent != 0 {
		t.Fatalf("rejected ship sent %d, want 0", sent)
	}
	if rejects != 2 {
		t.Fatalf("server saw %d requests, want 2 (one per dossier, no retry on 4xx)", rejects)
	}
	if sent, _ := ship2.ShipNew(sp); sent != 0 || rejects != 2 {
		t.Fatalf("permanently rejected dossiers were resent (requests %d)", rejects)
	}
}

// TestShipperTransient: a transient failure is retried under the shipper's
// RetryPolicy with the same bytes; one that outlasts the budget leaves the
// dossier unshipped for the next call, which then succeeds.
func TestShipperTransient(t *testing.T) {
	sp, err := flight.NewSpool(flight.SpoolConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New(flight.Config{PostEvents: -1, MaxPerSec: -1, Spool: sp})
	tap := rec.NewTap(flight.TapConfig{})
	tap.Emit(miss(1, 0, 0, 0))
	tap.Close()
	rec.Close()

	store := obs.NewDossierStore(obs.DossierStoreConfig{})
	failNext := 2
	var bodies []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		bodies = append(bodies, string(body))
		if failNext > 0 {
			failNext--
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		store.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	slept := 0
	ship, err := flight.NewShipper(flight.ShipperConfig{
		Addr:  srv.URL,
		Retry: obs.RetryPolicy{Attempts: 2, Sleep: func(time.Duration) { slept++ }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sent, err := ship.ShipNew(sp); sent != 0 || err == nil || slept != 1 {
		t.Fatalf("ShipNew under two 503s = %d,%v after %d backoffs; want 0,error after 1", sent, err, slept)
	}
	failNext = 1
	if sent, err := ship.ShipNew(sp); sent != 1 || err != nil || slept != 2 {
		t.Fatalf("retry ShipNew = %d,%v after %d backoffs; want 1,nil after 2", sent, err, slept)
	}
	if len(bodies) != 4 || bodies[0] == "" || bodies[3] != bodies[0] || bodies[2] != bodies[0] {
		t.Fatalf("retries resent different bodies (%d requests)", len(bodies))
	}
	if store.Len() != 1 {
		t.Fatalf("store has %d, want 1", store.Len())
	}
}
