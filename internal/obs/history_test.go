package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// alertsServer mounts AlertsRoute over e on a test server.
func alertsServer(t *testing.T, e *SLOEngine) *httptest.Server {
	t.Helper()
	rt := AlertsRoute(e)
	mux := http.NewServeMux()
	mux.Handle(rt.Pattern, rt.Handler)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestAlertsRoute: /api/alerts serves the engine's alert states as
// indented JSON, byte for byte the payload slo-smoke.sh greps.
func TestAlertsRoute(t *testing.T) {
	db := NewTSDB(TSDBConfig{Step: time.Second, Retention: time.Minute})
	reg := NewRegistry()
	c := reg.Counter("n_total")
	for i := 0; i < 10; i++ {
		c.Add(10)
		db.Observe(time.UnixMilli(int64(i)*1000), reg.Snapshot())
	}
	slo := NewSLOEngine(db, Objective{
		Name:        "burn",
		Numerator:   []string{"absent_total"},
		Denominator: []string{"n_total"},
		Target:      0.01,
		Window:      time.Minute,
	})
	slo.Evaluate(time.UnixMilli(9000))
	srv := alertsServer(t, slo)

	code, body, hdr := get(t, srv, "/api/alerts")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/api/alerts: code=%d type=%q", code, hdr.Get("Content-Type"))
	}
	const want = `{
  "alerts": [
    {
      "slo_version": 1,
      "objective": "burn",
      "state": "inactive",
      "since_ms": 0,
      "fast_burn": 0,
      "slow_burn": 0,
      "dossier_count": 0
    }
  ],
  "slo_version": 1
}
`
	if body != want {
		t.Fatalf("/api/alerts body:\n%s\nwant:\n%s", body, want)
	}
}

// TestAlertsRouteWithoutSLO: history on with no objectives serves an empty
// alert list rather than erroring.
func TestAlertsRouteWithoutSLO(t *testing.T) {
	code, body, _ := get(t, alertsServer(t, nil), "/api/alerts")
	if want := "{\n  \"alerts\": null,\n  \"slo_version\": 1\n}\n"; code != http.StatusOK || body != want {
		t.Fatalf("/api/alerts without engine: code=%d body=%q, want %q", code, body, want)
	}
}

// TestFleetAlertLinksDossiers is obscollect's history plane as a unit:
// pushes into a Collector, a scraper sampling its merged snapshot, an SLO
// engine over the merged counters, and a DossierStore as the link source.
// The fleet-level ratio must fire the alert and link the shipped dossier.
func TestFleetAlertLinksDossiers(t *testing.T) {
	now := time.UnixMilli(1_700_000_000_000)
	clock := func() time.Time { return now }
	col := NewCollector(CollectorConfig{Now: clock})
	store := NewDossierStore(DossierStoreConfig{Now: clock})
	db := NewTSDB(TSDBConfig{Step: time.Second, Retention: time.Minute})
	slo := NewSLOEngine(db, Objective{
		Name:        "miss",
		Numerator:   []string{"errs_total"},
		Denominator: []string{"work_total"},
		Target:      0.01,
		Window:      10 * time.Second,
		FastWindow:  5 * time.Second,
	})
	slo.SetDossierSource(store)
	scraper := NewScraper(ScraperConfig{DB: db, Snapshot: col.Merged, SLO: slo, Now: clock})

	// Source A misses 5 of every 50, source B never: 5/100 = 5% fleet-wide
	// against a 1% target, though only A's own ratio (10%) would show it.
	regA, regB := NewRegistry(), NewRegistry()
	workA, errsA := regA.Counter("work_total"), regA.Counter("errs_total")
	workB := regB.Counter("work_total")
	for i := 0; i < 12; i++ {
		workA.Add(50)
		errsA.Add(5)
		workB.Add(50)
		for id, reg := range map[string]*Registry{"a": regA, "b": regB} {
			if _, err := col.Ingest(wireFor(t, id, uint64(i+1), false, reg)); err != nil {
				t.Fatal(err)
			}
		}
		if i == 8 {
			doc := `{"flight_version":1,"label":"miss-a","trigger":"deadline-miss","seq":1}`
			if err := store.Ingest("a", []byte(doc)); err != nil {
				t.Fatal(err)
			}
		}
		scraper.Tick()
		now = now.Add(time.Second)
	}

	if v, ok := db.Increase("work_total", 5*time.Second); !ok || v != 500 {
		t.Fatalf("merged work increase = %v (ok=%v), want both sources' 500", v, ok)
	}
	as := slo.Alerts()
	if len(as) != 1 || as[0].State != AlertFiring {
		t.Fatalf("fleet alerts = %+v, want firing", as)
	}
	if as[0].FastBurn != 5 || as[0].DossierCount != 1 || as[0].Dossiers[0].Label != "miss-a" || as[0].Dossiers[0].Source != "a" {
		t.Fatalf("fleet alert = %+v, want fast burn 5 linking the dossier source a shipped", as[0])
	}
}

// TestDossierStoreRefs: ingest stamps the injected clock and
// DossierRefsSince filters on it.
func TestDossierStoreRefs(t *testing.T) {
	now := time.UnixMilli(10_000)
	store := NewDossierStore(DossierStoreConfig{Now: func() time.Time { return now }})
	for i := 0; i < 3; i++ {
		doc := fmt.Sprintf(`{"flight_version":1,"label":"d%d","trigger":"deadline-miss","seq":%d}`, i, i)
		if err := store.Ingest("w", []byte(doc)); err != nil {
			t.Fatal(err)
		}
		now = now.Add(time.Second)
	}
	all := store.DossierRefsSince(time.UnixMilli(0))
	if len(all) != 3 || all[0].Label != "d0" || all[0].CapturedMS != 10_000 {
		t.Fatalf("all refs = %+v", all)
	}
	late := store.DossierRefsSince(time.UnixMilli(11_000))
	if len(late) != 2 || late[0].Label != "d1" {
		t.Fatalf("late refs = %+v", late)
	}
	if got := store.List(); len(got) != 3 || got[0].IngestMS != 10_000 {
		t.Fatalf("List = %+v, want ingest_ms stamped", got)
	}
}
