package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// apiServer mounts the /api routes over a resolver on a test server.
func apiServer(t *testing.T, resolve HistoryResolver) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	for _, rt := range APIRoutes(resolve) {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// getJSON fetches a URL, requires 200, and decodes the body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s content-type = %q", url, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestAPIRoutes: the four endpoints answer JSON over a single-process
// history, with parameter validation and source 404s.
func TestAPIRoutes(t *testing.T) {
	db := NewTSDB(TSDBConfig{Step: time.Second, Retention: time.Minute})
	reg := NewRegistry()
	c := reg.Counter("n_total")
	h := reg.Histogram("lat")
	for i := 0; i < 10; i++ {
		c.Add(10)
		h.Observe(float64(i + 1))
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
	srv := apiServer(t, SingleHistory(db, slo))

	var series struct {
		StepMS  int64        `json:"step_ms"`
		Scrapes int64        `json:"scrapes"`
		Series  []SeriesInfo `json:"series"`
	}
	getJSON(t, srv.URL+"/api/series", &series)
	if series.StepMS != 1000 || series.Scrapes != 10 || len(series.Series) != 2 {
		t.Fatalf("/api/series = %+v", series)
	}

	var q QueryResult
	getJSON(t, srv.URL+"/api/query?series=n_total&fn=increase&window=5s", &q)
	if !q.OK || q.Value != 50 || q.WindowMS != 5000 {
		t.Fatalf("/api/query increase = %+v", q)
	}
	// fn defaults to rate, window to 1m; points=1 attaches raw samples.
	getJSON(t, srv.URL+"/api/query?series=n_total&points=1", &q)
	if !q.OK || q.Fn != FnRate || q.Value != 10 || len(q.Points) != 10 {
		t.Fatalf("/api/query defaults = %+v", q)
	}
	getJSON(t, srv.URL+"/api/query?series=lat&fn=quantile&q=0.5&window=30s", &q)
	if !q.OK || q.Q != 0.5 || q.Value <= 0 {
		t.Fatalf("/api/query quantile = %+v", q)
	}

	var slores struct {
		Version    int               `json:"slo_version"`
		Objectives []ObjectiveStatus `json:"objectives"`
	}
	getJSON(t, srv.URL+"/api/slo", &slores)
	if slores.Version != SLOVersion || len(slores.Objectives) != 1 || slores.Objectives[0].Objective.Name != "burn" {
		t.Fatalf("/api/slo = %+v", slores)
	}
	if !slores.Objectives[0].Ready || slores.Objectives[0].Errors != 0 {
		t.Fatalf("/api/slo status = %+v, want ready with zero errors", slores.Objectives[0])
	}

	var alerts struct {
		Version int     `json:"slo_version"`
		Alerts  []Alert `json:"alerts"`
	}
	getJSON(t, srv.URL+"/api/alerts", &alerts)
	if alerts.Version != SLOVersion || len(alerts.Alerts) != 1 || alerts.Alerts[0].State != AlertInactive {
		t.Fatalf("/api/alerts = %+v", alerts)
	}

	// Validation and source resolution.
	for url, want := range map[string]int{
		"/api/query":                                      http.StatusBadRequest, // missing series
		"/api/query?series=n_total&window=x":              http.StatusBadRequest,
		"/api/query?series=n_total&window=0s":             http.StatusBadRequest,
		"/api/query?series=lat&fn=quantile&q=2&window=5s": http.StatusBadRequest,
		"/api/series?source=bogus":                        http.StatusNotFound,
		"/api/query?source=bogus&series=n_total":          http.StatusNotFound,
		"/api/slo?source=bogus":                           http.StatusNotFound,
		"/api/alerts?source=bogus":                        http.StatusNotFound,
		"/api/series?source=local":                        http.StatusOK, // the single-process alias
	} {
		if got := getStatus(t, srv.URL+url); got != want {
			t.Fatalf("GET %s = %d, want %d", url, got, want)
		}
	}
}

// TestAPIRoutesWithoutSLO: a view with no engine serves empty objective and
// alert lists rather than erroring.
func TestAPIRoutesWithoutSLO(t *testing.T) {
	db := NewTSDB(TSDBConfig{})
	srv := apiServer(t, SingleHistory(db, nil))
	var slores struct {
		Version    int               `json:"slo_version"`
		Objectives []ObjectiveStatus `json:"objectives"`
	}
	getJSON(t, srv.URL+"/api/slo", &slores)
	if slores.Version != SLOVersion || len(slores.Objectives) != 0 {
		t.Fatalf("/api/slo without engine = %+v", slores)
	}
	var alerts struct {
		Alerts []Alert `json:"alerts"`
	}
	getJSON(t, srv.URL+"/api/alerts", &alerts)
	if len(alerts.Alerts) != 0 {
		t.Fatalf("/api/alerts without engine = %+v", alerts)
	}
}

// TestFleetHistory: per-source and merged timelines diverge correctly, the
// resolver serves both, evicted sources lose their timelines, and the
// merged SLO engine sees fleet-level ratios.
func TestFleetHistory(t *testing.T) {
	col := NewCollector(CollectorConfig{})
	now := time.UnixMilli(1_700_000_000_000)
	hist := NewFleetHistory(col, FleetHistoryConfig{
		TSDB: TSDBConfig{Step: time.Second, Retention: time.Minute},
		Objectives: []Objective{{
			Name:        "miss",
			Numerator:   []string{"errs_total"},
			Denominator: []string{"work_total"},
			Target:      0.01,
			Window:      10 * time.Second,
			FastWindow:  5 * time.Second,
			SlowWindow:  10 * time.Second,
		}},
		Now: func() time.Time { return now },
	})
	col.AttachHistory(hist)

	regA, regB := NewRegistry(), NewRegistry()
	workA := regA.Counter("work_total")
	errsA := regA.Counter("errs_total")
	workB := regB.Counter("work_total")
	push := func(id string, seq uint64, reg *Registry) {
		t.Helper()
		if _, err := col.Ingest(wireFor(t, id, seq, false, reg)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		workA.Add(50)
		errsA.Add(5)
		workB.Add(50)
		push("a", uint64(i+1), regA)
		push("b", uint64(i+1), regB)
		hist.Tick()
		now = now.Add(time.Second)
	}

	// Merged timeline: both sources' work sums; only A contributes errors.
	merged, ok := hist.Resolve("")
	if !ok || merged.DB != hist.merged || merged.SLO == nil {
		t.Fatalf("Resolve(\"\") = %+v", merged)
	}
	if v, _, ok := merged.DB.Increase("work_total", 5*time.Second); !ok || v != 500 {
		t.Fatalf("merged work increase = %v (ok=%v), want 500", v, ok)
	}
	// Per-source timelines keep each source's own counters.
	viewA, ok := hist.Resolve("a")
	if !ok || viewA.SLO != nil {
		t.Fatalf("Resolve(a) = %+v, want a bare per-source view", viewA)
	}
	if v, _, ok := viewA.DB.Increase("work_total", 5*time.Second); !ok || v != 250 {
		t.Fatalf("source-a work increase = %v (ok=%v), want 250", v, ok)
	}
	viewB, _ := hist.Resolve("b")
	if _, _, ok := viewB.DB.Increase("errs_total", 5*time.Second); ok {
		t.Fatal("source b should have no errs_total timeline")
	}
	if _, ok := hist.Resolve("nope"); ok {
		t.Fatal("unknown source should not resolve")
	}

	// The fleet-level SLO sees 5/100 = 5% against a 1% target: firing
	// (pending 0) — and "fleet" aliases the merged view.
	fleet, ok := hist.Resolve("fleet")
	if !ok || fleet.SLO == nil {
		t.Fatal("Resolve(fleet) should alias the merged view")
	}
	if as := fleet.SLO.Alerts(); len(as) != 1 || as[0].State != AlertFiring {
		t.Fatalf("fleet alerts = %+v, want firing", as)
	}

	// The dashboard carries the history section.
	var dash strings.Builder
	col.WriteDashboard(&dash)
	if !strings.Contains(dash.String(), "slo:") || !strings.Contains(dash.String(), "alert miss") {
		t.Fatalf("dashboard missing history section:\n%s", dash.String())
	}

	// Source eviction drops its timeline on the next tick.
	colEvict := NewCollector(CollectorConfig{Stale: 2 * time.Second, Now: func() time.Time { return now }})
	histEvict := NewFleetHistory(colEvict, FleetHistoryConfig{
		TSDB: TSDBConfig{Step: time.Second},
		Now:  func() time.Time { return now },
	})
	push2 := func(id string, seq uint64, reg *Registry) {
		t.Helper()
		if _, err := colEvict.Ingest(wireFor(t, id, seq, false, reg)); err != nil {
			t.Fatal(err)
		}
	}
	push2("gone", 1, regA)
	histEvict.Tick()
	if _, ok := histEvict.Resolve("gone"); !ok {
		t.Fatal("source should hold a timeline before eviction")
	}
	now = now.Add(5 * time.Second)
	colEvict.EvictStale()
	histEvict.Tick()
	if _, ok := histEvict.Resolve("gone"); ok {
		t.Fatal("evicted source still holds a timeline")
	}
}

// TestSparkline: scaling, downsampling, and edge cases of the text
// sparkline.
func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 5); got != "     " {
		t.Fatalf("empty sparkline = %q", got)
	}
	flat := make([]Point, 4)
	for i := range flat {
		flat[i] = Point{T: int64(i), V: 7}
	}
	if got := Sparkline(flat, 4); got != "▁▁▁▁" {
		t.Fatalf("flat sparkline = %q", got)
	}
	ramp := make([]Point, 8)
	for i := range ramp {
		ramp[i] = Point{T: int64(i), V: float64(i)}
	}
	got := Sparkline(ramp, 8)
	if []rune(got)[0] != '▁' || []rune(got)[7] != '█' {
		t.Fatalf("ramp sparkline = %q, want ▁..█", got)
	}
	// Fewer points than cells: empty cells carry the previous level instead
	// of dropping to baseline.
	sparse := []rune(Sparkline([]Point{{T: 0, V: 0}, {T: 1, V: 10}}, 6))
	if len(sparse) != 6 || sparse[3] != '█' || sparse[4] != '█' || sparse[5] != '█' {
		t.Fatalf("sparse sparkline = %q, want the peak carried to the end", string(sparse))
	}
	if got := Sparkline(ramp, 0); len([]rune(got)) != 40 {
		t.Fatalf("width 0 should default to 40, got %d", len([]rune(got)))
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
