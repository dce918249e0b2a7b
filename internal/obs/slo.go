package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The SLO engine: declarative objectives over counter ratios stored in a
// TSDB, evaluated with multi-window burn-rate rules (the Google SRE
// workbook's fast+slow pattern), driving a pending → firing → resolved
// alert state machine. Firing alerts cross-link the flight dossiers
// captured inside the alert window, turning "the SLO is burning" into
// "here are the dossiers explaining why".
//
// Everything is deterministic under an injected clock: Evaluate(now) reads
// only the TSDB (itself fed by explicit-time Observe calls) and the
// dossier source, so a seeded run replays identical alert transitions.

// SLOVersion versions the /api/alerts JSON schema. Consumers must
// ignore unknown fields; a breaking change (renamed field, changed state
// set) bumps this and is called out in internal/obs/README.md.
const SLOVersion = 1

// Objective is one declarative service-level objective: the ratio of two
// counter sums must stay at or below Target over Window. The error budget
// is derived, not declared: budget = Target × (denominator increase over
// Window).
type Objective struct {
	// Name identifies the objective in alert payloads.
	Name string
	// Numerator is the set of counter series IDs summed into the error
	// count (e.g. missed + dropped).
	Numerator []string
	// Denominator is the set of counter series IDs summed into the total.
	Denominator []string
	// Target is the maximum acceptable error ratio (0.001 = 0.1%).
	Target float64
	// Window is the SLO compliance window (the budget's horizon).
	Window time.Duration
	// FastWindow is the short burn-rate window (default Window/12, the
	// SRE-workbook ratio: 5m fast for a 1h slow).
	FastWindow time.Duration
	// SlowWindow is the long burn-rate window (default Window).
	SlowWindow time.Duration
	// BurnThreshold is the burn-rate multiple both windows must exceed to
	// trip the alert (default 1: burning budget faster than allotted).
	BurnThreshold float64
	// Pending is how long both windows must stay above threshold before
	// the alert fires (default 0: fire on the first evaluation).
	Pending time.Duration
	// MaxDossierLinks caps the dossiers cross-linked onto one alert
	// (default 8; newest kept).
	MaxDossierLinks int
}

func (o *Objective) defaults() {
	if o.SlowWindow <= 0 {
		o.SlowWindow = o.Window
	}
	if o.FastWindow <= 0 {
		o.FastWindow = o.Window / 12
	}
	if o.FastWindow <= 0 {
		o.FastWindow = time.Minute
	}
	if o.BurnThreshold <= 0 {
		o.BurnThreshold = 1
	}
	if o.MaxDossierLinks <= 0 {
		o.MaxDossierLinks = 8
	}
}

// ParseObjective parses the compact declarative form
//
//	name: numA+numB / den <= 0.1% over 1h
//
// Numerator and denominator are '+'-joined series IDs (canonical
// SeriesID form, no spaces inside an ID). The target accepts a percentage
// ("0.1%") or a plain ratio ("0.001"). Burn windows, threshold, and
// pending duration take their defaults and can be adjusted on the
// returned Objective.
func ParseObjective(spec string) (Objective, error) {
	var o Objective
	name, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return o, fmt.Errorf("obs: objective %q: missing \"name:\" prefix", spec)
	}
	o.Name = strings.TrimSpace(name)
	if o.Name == "" {
		return o, fmt.Errorf("obs: objective %q: empty name", spec)
	}
	expr, overPart, ok := strings.Cut(rest, " over ")
	if !ok {
		return o, fmt.Errorf("obs: objective %q: missing \"over <window>\"", spec)
	}
	w, err := ParseWindow(strings.TrimSpace(overPart))
	if err != nil {
		return o, fmt.Errorf("obs: objective %q: %v", spec, err)
	}
	o.Window = w
	ratio, targetPart, ok := strings.Cut(expr, "<=")
	if !ok {
		return o, fmt.Errorf("obs: objective %q: missing \"<= <target>\"", spec)
	}
	target := strings.TrimSpace(targetPart)
	if pct, isPct := strings.CutSuffix(target, "%"); isPct {
		v, err := strconv.ParseFloat(strings.TrimSpace(pct), 64)
		if err != nil {
			return o, fmt.Errorf("obs: objective %q: bad target %q", spec, target)
		}
		o.Target = v / 100
	} else {
		v, err := strconv.ParseFloat(target, 64)
		if err != nil {
			return o, fmt.Errorf("obs: objective %q: bad target %q", spec, target)
		}
		o.Target = v
	}
	if !(o.Target > 0 && o.Target < 1) { // written so NaN fails too
		return o, fmt.Errorf("obs: objective %q: target must be in (0,1)", spec)
	}
	num, den, ok := strings.Cut(ratio, "/")
	if !ok {
		return o, fmt.Errorf("obs: objective %q: missing \"num / den\" ratio", spec)
	}
	o.Numerator = splitSeries(num)
	o.Denominator = splitSeries(den)
	if len(o.Numerator) == 0 || len(o.Denominator) == 0 {
		return o, fmt.Errorf("obs: objective %q: empty numerator or denominator", spec)
	}
	o.defaults()
	return o, nil
}

func splitSeries(s string) []string {
	var out []string
	for _, part := range strings.Split(s, "+") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// AlertState is the alert lifecycle position.
type AlertState string

// Alert lifecycle: Inactive → Pending (burn above threshold, waiting out
// the pending duration) → Firing → Resolved (burn subsided; the alert
// stays visible with its dossier links until the objective trips again).
const (
	AlertInactive AlertState = "inactive"
	AlertPending  AlertState = "pending"
	AlertFiring   AlertState = "firing"
	AlertResolved AlertState = "resolved"
)

// DossierRef is a cross-link from an alert to one flight dossier captured
// inside the alert window. It lives in obs (not flight) so both
// flight.Recorder (process-local spool) and DossierStore (fleet ingest)
// can produce refs without an import cycle.
type DossierRef struct {
	// ID is the dossier's identity at its source: a spool path for a
	// local recorder, a store ID for fleet ingest.
	ID string `json:"id"`
	// Source is the emitting process ("local" for an in-process recorder,
	// the pusher source name for fleet dossiers).
	Source string `json:"source,omitempty"`
	Label  string `json:"label,omitempty"`
	// Trigger is the miss classification that froze the dossier.
	Trigger string `json:"trigger,omitempty"`
	Seq     uint64 `json:"seq"`
	// CapturedMS is the wall-clock capture/ingest time (Unix ms) used to
	// decide window membership.
	CapturedMS int64 `json:"captured_ms"`
}

// DossierSource lists dossiers captured at or after a wall-clock instant,
// newest last. flight.Recorder and DossierStore both implement it.
type DossierSource interface {
	DossierRefsSince(since time.Time) []DossierRef
}

// Alert is the JSON surface of one objective's alert state.
type Alert struct {
	SLOVersion int        `json:"slo_version"`
	Objective  string     `json:"objective"`
	State      AlertState `json:"state"`
	// SinceMS is when the current state began (Unix ms).
	SinceMS int64 `json:"since_ms"`
	// PendingSinceMS / FiringSinceMS / ResolvedMS trace the current cycle
	// (zero when the phase was not reached).
	PendingSinceMS int64 `json:"pending_since_ms,omitempty"`
	FiringSinceMS  int64 `json:"firing_since_ms,omitempty"`
	ResolvedMS     int64 `json:"resolved_ms,omitempty"`
	// FastBurn / SlowBurn are the burn-rate multiples at the last
	// evaluation (error ratio over window ÷ target).
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// Dossiers cross-links the flight dossiers captured inside the alert
	// window (from pending-start − fast-window, while pending/firing).
	Dossiers []DossierRef `json:"dossiers,omitempty"`
	// DossierCount duplicates len(Dossiers) so shell smoke tests can grep
	// it without a JSON parser.
	DossierCount int `json:"dossier_count"`
}

// alertTrack is one objective's mutable alert state.
type alertTrack struct {
	state        AlertState
	sinceMS      int64
	pendingSince time.Time
	firingSince  time.Time
	resolvedAt   time.Time
	lastLinkScan time.Time
	fastBurn     float64
	slowBurn     float64
	dossiers     []DossierRef
	seen         map[string]bool // dossier ID+source dedup
}

// SLOEngine evaluates objectives against a TSDB and maintains per-objective
// alert state. Evaluate is driven by the scraper (or called directly in
// tests); all methods are safe for concurrent use.
type SLOEngine struct {
	mu       sync.Mutex
	db       *TSDB
	objs     []Objective
	tracks   map[string]*alertTrack
	dossiers DossierSource
}

// NewSLOEngine builds an engine over db with the given objectives
// (defaults applied).
func NewSLOEngine(db *TSDB, objs ...Objective) *SLOEngine {
	e := &SLOEngine{db: db, tracks: map[string]*alertTrack{}}
	for _, o := range objs {
		o.defaults()
		e.objs = append(e.objs, o)
		e.tracks[o.Name] = &alertTrack{state: AlertInactive, seen: map[string]bool{}}
	}
	return e
}

// SetDossierSource attaches the dossier source consulted when alerts enter
// or remain in the pending/firing window.
func (e *SLOEngine) SetDossierSource(s DossierSource) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dossiers = s
}

// ratioOver sums the objective's counter increases over the window.
// ok requires every denominator series to answer and the total to be
// positive; missing numerator series count as zero errors (a source that
// never missed never creates the series).
func (e *SLOEngine) ratioOver(o *Objective, w time.Duration) (ratio float64, ok bool) {
	var errs, total float64
	for _, id := range o.Denominator {
		d, dok := e.db.Increase(id, w)
		if !dok {
			return 0, false
		}
		total += d
	}
	if total <= 0 {
		return 0, false
	}
	for _, id := range o.Numerator {
		d, _ := e.db.Increase(id, w)
		errs += d
	}
	return errs / total, true
}

// Evaluate advances every objective's alert state machine to now.
func (e *SLOEngine) Evaluate(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.objs {
		e.evaluate(&e.objs[i], now)
	}
}

func (e *SLOEngine) evaluate(o *Objective, now time.Time) {
	t := e.tracks[o.Name]
	fastRatio, fastOK := e.ratioOver(o, o.FastWindow)
	slowRatio, slowOK := e.ratioOver(o, o.SlowWindow)
	t.fastBurn, t.slowBurn = 0, 0
	if fastOK {
		t.fastBurn = fastRatio / o.Target
	}
	if slowOK {
		t.slowBurn = slowRatio / o.Target
	}
	burning := fastOK && slowOK &&
		t.fastBurn >= o.BurnThreshold && t.slowBurn >= o.BurnThreshold

	transition := func(s AlertState) {
		t.state = s
		t.sinceMS = now.UnixMilli()
	}
	switch t.state {
	case AlertInactive, AlertResolved:
		if burning {
			// New alert cycle: reset the dossier links and start the link
			// window one fast-window early, so the misses that *caused*
			// the burn are captured, not just those after detection.
			t.pendingSince = now
			t.firingSince = time.Time{}
			t.resolvedAt = time.Time{}
			t.dossiers = nil
			t.seen = map[string]bool{}
			t.lastLinkScan = now.Add(-o.FastWindow)
			transition(AlertPending)
			e.linkDossiers(o, t)
			if o.Pending <= 0 {
				t.firingSince = now
				transition(AlertFiring)
			}
		}
	case AlertPending:
		if !burning {
			transition(AlertInactive)
			break
		}
		e.linkDossiers(o, t)
		if now.Sub(t.pendingSince) >= o.Pending {
			t.firingSince = now
			transition(AlertFiring)
		}
	case AlertFiring:
		if !burning {
			t.resolvedAt = now
			transition(AlertResolved)
			break
		}
		e.linkDossiers(o, t)
	}
}

// linkDossiers appends dossiers captured since the last scan, deduped and
// capped at MaxDossierLinks (newest kept).
func (e *SLOEngine) linkDossiers(o *Objective, t *alertTrack) {
	if e.dossiers == nil {
		return
	}
	refs := e.dossiers.DossierRefsSince(t.lastLinkScan)
	for _, r := range refs {
		key := r.Source + "\x00" + r.ID
		if t.seen[key] {
			continue
		}
		t.seen[key] = true
		t.dossiers = append(t.dossiers, r)
		if cap := o.MaxDossierLinks; len(t.dossiers) > cap {
			t.dossiers = t.dossiers[len(t.dossiers)-cap:]
		}
		if r.CapturedMS > t.lastLinkScan.UnixMilli() {
			t.lastLinkScan = time.UnixMilli(r.CapturedMS)
		}
	}
}

// Alerts returns every objective's alert surface, sorted by objective
// name. Inactive alerts are included (state machine visibility beats
// payload minimalism at this scale).
func (e *SLOEngine) Alerts() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.objs))
	for i := range e.objs {
		o := &e.objs[i]
		t := e.tracks[o.Name]
		a := Alert{
			SLOVersion: SLOVersion,
			Objective:  o.Name,
			State:      t.state,
			SinceMS:    t.sinceMS,
			FastBurn:   t.fastBurn,
			SlowBurn:   t.slowBurn,
			Dossiers:   append([]DossierRef(nil), t.dossiers...),
		}
		a.DossierCount = len(a.Dossiers)
		if !t.pendingSince.IsZero() {
			a.PendingSinceMS = t.pendingSince.UnixMilli()
		}
		if !t.firingSince.IsZero() {
			a.FiringSinceMS = t.firingSince.UnixMilli()
		}
		if !t.resolvedAt.IsZero() {
			a.ResolvedMS = t.resolvedAt.UnixMilli()
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Objective < out[j].Objective })
	return out
}

// AlertsRoute serves GET /api/alerts: every objective's alert state with
// its dossier cross-links, stamped with SLOVersion. A nil engine (history
// on, no objectives declared) serves an empty list.
func AlertsRoute(e *SLOEngine) Route {
	return Route{Pattern: "/api/alerts", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var as []Alert
		if e != nil {
			as = e.Alerts()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"slo_version": SLOVersion, "alerts": as})
	})}
}
