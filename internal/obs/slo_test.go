package obs

import (
	"fmt"
	"testing"
	"time"
)

// TestParseObjective: the compact declarative form round-trips into an
// Objective with derived defaults.
func TestParseObjective(t *testing.T) {
	o, err := ParseObjective("miss: rtopex_live_missed_total+rtopex_live_dropped_total / rtopex_live_subframes_total <= 0.1% over 1h")
	if err != nil {
		t.Fatal(err)
	}
	if o.Name != "miss" || o.Target != 0.001 || o.Window != time.Hour {
		t.Fatalf("parsed %+v", o)
	}
	if len(o.Numerator) != 2 || o.Numerator[0] != "rtopex_live_missed_total" || o.Numerator[1] != "rtopex_live_dropped_total" {
		t.Fatalf("numerator = %v", o.Numerator)
	}
	if len(o.Denominator) != 1 || o.Denominator[0] != "rtopex_live_subframes_total" {
		t.Fatalf("denominator = %v", o.Denominator)
	}
	// Derived defaults: fast = window/12 (the SRE-workbook ratio), slow =
	// window, threshold 1, 8 dossier links.
	if o.FastWindow != 5*time.Minute || o.SlowWindow != time.Hour || o.BurnThreshold != 1 || o.MaxDossierLinks != 8 {
		t.Fatalf("defaults = %+v", o)
	}

	if o, err := ParseObjective("e: a / b <= 0.05 over 10m"); err != nil || o.Target != 0.05 {
		t.Fatalf("ratio target: %+v, %v", o, err)
	}

	for _, bad := range []string{
		"no-colon a / b <= 1% over 1h",
		"x: a / b <= 1%",          // missing over
		"x: a / b over 1h",        // missing <=
		"x: a b <= 1% over 1h",    // missing /
		"x: a / b <= pct over 1h", // bad target
		"x: a / b <= 150% over 1h",
		"x: a / b <= 0 over 1h",
		"x: / b <= 1% over 1h",
		": a / b <= 1% over 1h",
		"x: a / b <= 1% over -5m",
		"x: a / b <= NaN over 1h", // NaN fails every comparison, so it must not pass the range check
		"x: a / b <= nan% over 1h",
	} {
		if _, err := ParseObjective(bad); err == nil {
			t.Fatalf("ParseObjective(%q) should fail", bad)
		}
	}
}

// sloHarness drives a TSDB + SLOEngine pair on an injected clock: one tick
// observes a hand-built snapshot and evaluates the engine, exactly what the
// scraper does in production.
type sloHarness struct {
	db     *TSDB
	eng    *SLOEngine
	now    time.Time
	errs   int64
	total  int64
	ticked int
}

func newSLOHarness(o Objective) *sloHarness {
	db := NewTSDB(TSDBConfig{Step: time.Second, Retention: time.Hour})
	return &sloHarness{
		db:  db,
		eng: NewSLOEngine(db, o),
		now: time.UnixMilli(1_700_000_000_000),
	}
}

// tick advances one second with the given per-step increments and runs one
// scrape-and-evaluate step.
func (h *sloHarness) tick(errs, total int64) {
	h.errs += errs
	h.total += total
	snap := &Snapshot{Counters: []CounterValue{
		{Name: "errs_total", Value: h.errs},
		{Name: "total_total", Value: h.total},
	}}
	h.db.Observe(h.now, snap)
	h.eng.Evaluate(h.now)
	h.ticked++
	h.now = h.now.Add(time.Second)
}

func (h *sloHarness) alert(t *testing.T) Alert {
	t.Helper()
	as := h.eng.Alerts()
	if len(as) != 1 {
		t.Fatalf("alerts = %+v, want exactly one", as)
	}
	return as[0]
}

// testObjective is the lifecycle tests' tight objective: 1% miss budget,
// 5s fast / 15s slow burn windows.
func testObjective(pending time.Duration) Objective {
	return Objective{
		Name:        "miss",
		Numerator:   []string{"errs_total"},
		Denominator: []string{"total_total"},
		Target:      0.01,
		Window:      15 * time.Second,
		FastWindow:  5 * time.Second,
		SlowWindow:  15 * time.Second,
		Pending:     pending,
	}
}

// TestAlertLifecycle walks one objective through the full state machine on
// an injected clock — inactive → pending → firing → resolved → (re-trip)
// pending — asserting dossier cross-links at each stage, including the
// fast-window lookback that captures the misses that caused the burn.
func TestAlertLifecycle(t *testing.T) {
	h := newSLOHarness(testObjective(3 * time.Second))

	// The dossier source is the fleet store with the same injected clock.
	store := NewDossierStore(DossierStoreConfig{Now: func() time.Time { return h.now }})
	h.eng.SetDossierSource(store)
	ingest := func(label string) {
		t.Helper()
		doc := fmt.Sprintf(`{"flight_version":1,"label":%q,"trigger":"deadline-miss","seq":1}`, label)
		if err := store.Ingest("worker-1", []byte(doc)); err != nil {
			t.Fatal(err)
		}
	}

	// Healthy baseline: 100 subframes/s, no misses. Long enough that both
	// burn windows are answerable.
	for i := 0; i < 20; i++ {
		h.tick(0, 100)
	}
	if a := h.alert(t); a.State != AlertInactive || a.FastBurn != 0 || a.SlowBurn != 0 {
		t.Fatalf("baseline alert = %+v, want inactive at zero burn", a)
	}

	// A dossier lands 2s before the burn is detected: the fast-window
	// lookback must still link it to the coming alert.
	ingest("pre-burn")
	h.tick(0, 100)
	h.tick(0, 100)

	// Misses start: 20% per tick. Fast burn = 20/500/0.01 = 4, slow burn =
	// 20/1500/0.01 ≈ 1.33 — both over threshold on the onset tick.
	h.tick(20, 100)
	a := h.alert(t)
	if a.State != AlertPending {
		t.Fatalf("after burn onset: state = %s, want pending", a.State)
	}
	if a.PendingSinceMS != h.now.Add(-time.Second).UnixMilli() {
		t.Fatalf("pending_since = %d, want the onset tick", a.PendingSinceMS)
	}
	if a.DossierCount != 1 || a.Dossiers[0].Label != "pre-burn" || a.Dossiers[0].Source != "worker-1" {
		t.Fatalf("pending dossiers = %+v, want the pre-burn dossier via lookback", a.Dossiers)
	}

	// Another dossier lands while pending; burn persists through Pending.
	ingest("mid-burn")
	h.tick(20, 100)
	if a := h.alert(t); a.State != AlertPending {
		t.Fatalf("1s into pending: state = %s", a.State)
	}
	h.tick(20, 100)
	h.tick(20, 100) // 3s elapsed since pendingSince → fires
	a = h.alert(t)
	if a.State != AlertFiring {
		t.Fatalf("after pending duration: state = %s, want firing", a.State)
	}
	if a.FiringSinceMS == 0 || a.FiringSinceMS < a.PendingSinceMS {
		t.Fatalf("firing_since = %d (pending_since %d)", a.FiringSinceMS, a.PendingSinceMS)
	}
	if a.DossierCount != 2 || a.Dossiers[1].Label != "mid-burn" {
		t.Fatalf("firing dossiers = %+v, want pre-burn + mid-burn", a.Dossiers)
	}
	if a.FastBurn < 1 || a.SlowBurn < 1 {
		t.Fatalf("burns = %v/%v, want ≥ 1 while firing", a.FastBurn, a.SlowBurn)
	}

	// Misses stop. Once the fast window drains (5s), burning=false resolves
	// the alert; the dossier links survive for the post-mortem.
	for i := 0; i < 7; i++ {
		h.tick(0, 100)
	}
	a = h.alert(t)
	if a.State != AlertResolved {
		t.Fatalf("after recovery: state = %s, want resolved", a.State)
	}
	if a.ResolvedMS == 0 || a.DossierCount != 2 {
		t.Fatalf("resolved alert = %+v, want resolved_ms set and dossiers kept", a)
	}

	// A second burn starts a new cycle: dossier links reset, the old cycle's
	// refs are not re-linked (their capture times predate the new lookback).
	for i := 0; i < 20; i++ {
		h.tick(0, 100) // drain the slow window to a clean baseline
	}
	ingest("second-cycle")
	h.tick(20, 100)
	a = h.alert(t)
	if a.State != AlertPending {
		t.Fatalf("second burn: state = %s, want pending", a.State)
	}
	if a.DossierCount != 1 || a.Dossiers[0].Label != "second-cycle" {
		t.Fatalf("second-cycle dossiers = %+v, want only the new dossier", a.Dossiers)
	}
	if a.ResolvedMS != 0 {
		t.Fatalf("new cycle kept resolved_ms = %d", a.ResolvedMS)
	}
}

// TestAlertFiresImmediatelyWithoutPending: Pending=0 fires on the first
// burning evaluation (pending and firing in the same tick).
func TestAlertFiresImmediatelyWithoutPending(t *testing.T) {
	h := newSLOHarness(testObjective(0))
	for i := 0; i < 20; i++ {
		h.tick(0, 100)
	}
	h.tick(50, 100)
	if a := h.alert(t); a.State != AlertFiring || a.PendingSinceMS == 0 {
		t.Fatalf("alert = %+v, want firing immediately", a)
	}
}

// TestAlertPendingAborts: burn that subsides before the pending duration
// never fires; the alert returns to inactive.
func TestAlertPendingAborts(t *testing.T) {
	h := newSLOHarness(testObjective(10 * time.Second))
	for i := 0; i < 20; i++ {
		h.tick(0, 100)
	}
	h.tick(20, 100)
	if a := h.alert(t); a.State != AlertPending {
		t.Fatalf("state = %s, want pending", a.State)
	}
	for i := 0; i < 7; i++ {
		h.tick(0, 100) // fast window drains before 10s of pending elapse
	}
	if a := h.alert(t); a.State != AlertInactive {
		t.Fatalf("state = %s, want inactive (pending aborted)", a.State)
	}
}

// fakeDossiers is a hand-rolled DossierSource for link-policy tests.
type fakeDossiers struct{ refs []DossierRef }

func (f *fakeDossiers) DossierRefsSince(since time.Time) []DossierRef {
	var out []DossierRef
	for _, r := range f.refs {
		if r.CapturedMS >= since.UnixMilli() {
			out = append(out, r)
		}
	}
	return out
}

// TestDossierLinkDedupAndCap: refs are deduped by (source, id) across
// evaluations and capped at MaxDossierLinks keeping the newest.
func TestDossierLinkDedupAndCap(t *testing.T) {
	o := testObjective(time.Hour) // stay pending: every tick re-links
	o.MaxDossierLinks = 3
	h := newSLOHarness(o)
	src := &fakeDossiers{}
	h.eng.SetDossierSource(src)

	for i := 0; i < 20; i++ {
		h.tick(0, 100)
	}
	// Six dossiers captured at burn onset; the same slice is returned on
	// every scan, so dedup must hold the set stable.
	for i := 0; i < 6; i++ {
		src.refs = append(src.refs, DossierRef{
			ID:         fmt.Sprintf("d%d", i),
			Source:     "w",
			Seq:        uint64(i),
			CapturedMS: h.now.UnixMilli(),
		})
	}
	// Burn ramps: slow crosses threshold on the third tick (15/1500 = 1×);
	// the fourth re-scans the same refs, exercising dedup across evals.
	h.tick(5, 100)
	h.tick(5, 100)
	h.tick(5, 100)
	h.tick(5, 100)
	a := h.alert(t)
	if a.State != AlertPending {
		t.Fatalf("state = %s, want pending under the 1h pending duration", a.State)
	}
	if a.DossierCount != 3 {
		t.Fatalf("dossier_count = %d, want cap 3", a.DossierCount)
	}
	for i, want := range []string{"d3", "d4", "d5"} {
		if a.Dossiers[i].ID != want {
			t.Fatalf("dossiers = %+v, want newest three in order", a.Dossiers)
		}
	}
}

// TestSLOMissingSeries: an absent denominator keeps the objective
// unevaluated (no burn, no alert); an absent numerator counts zero errors.
func TestSLOMissingSeries(t *testing.T) {
	db := NewTSDB(TSDBConfig{Step: time.Second})
	o := testObjective(0)
	eng := NewSLOEngine(db, o)
	now := time.UnixMilli(0)

	// Only the numerator exists: denominator can't answer → no state change.
	for i := 0; i < 10; i++ {
		db.Observe(now, &Snapshot{Counters: []CounterValue{{Name: "errs_total", Value: int64(i) * 10}}})
		eng.Evaluate(now)
		now = now.Add(time.Second)
	}
	if a := eng.Alerts()[0]; a.State != AlertInactive {
		t.Fatalf("denominator-less alert = %+v, want inactive", a)
	}
	if _, ok := eng.ratioOver(&o, o.SlowWindow); ok {
		t.Fatal("denominator-less ratio answered")
	}

	// Denominator without numerator: zero errors, zero burn, inactive.
	db2 := NewTSDB(TSDBConfig{Step: time.Second})
	eng2 := NewSLOEngine(db2, o)
	now = time.UnixMilli(0)
	for i := 0; i < 10; i++ {
		db2.Observe(now, &Snapshot{Counters: []CounterValue{{Name: "total_total", Value: int64(i) * 100}}})
		eng2.Evaluate(now)
		now = now.Add(time.Second)
	}
	if r, ok := eng2.ratioOver(&o, o.SlowWindow); !ok || r != 0 {
		t.Fatalf("numerator-less ratio = %v (ok=%v), want 0", r, ok)
	}
	if a := eng2.Alerts()[0]; a.State != AlertInactive || a.SlowBurn != 0 {
		t.Fatalf("numerator-less alert = %+v, want inactive at zero burn", a)
	}
}

// FuzzParseObjective: the -slo parser never panics, and every objective it
// accepts can be evaluated — a target strictly inside (0,1), non-empty
// numerator and denominator, and positive windows.
func FuzzParseObjective(f *testing.F) {
	for _, seed := range []string{
		"miss: rtopex_live_missed_total+rtopex_live_dropped_total / rtopex_live_subframes_total <= 0.1% over 1h",
		"e: a / b <= 0.05 over 10m",
		"x: a / b <= 150% over 1h",
		"x: / b <= 1% over 1h",
		"x: a / b <= NaN over 1h",
		"x: a / b <= 1% over -5m",
		"x: a / b <= 1e-9 over 1ns",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		o, err := ParseObjective(spec)
		if err != nil {
			return
		}
		if !(o.Target > 0 && o.Target < 1) {
			t.Fatalf("%q: target %v outside (0,1)", spec, o.Target)
		}
		if o.Name == "" || len(o.Numerator) == 0 || len(o.Denominator) == 0 {
			t.Fatalf("%q: empty name, numerator or denominator: %+v", spec, o)
		}
		if o.Window <= 0 || o.FastWindow <= 0 || o.SlowWindow <= 0 {
			t.Fatalf("%q: non-positive window: %+v", spec, o)
		}
	})
}
