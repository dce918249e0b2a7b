package flight

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"rtopex/internal/obs"
	"rtopex/internal/trace"
)

// Config bounds a Recorder. The zero value is usable: every field has a
// production default chosen so an armed recorder is always allocation- and
// rate-bounded no matter how pathological the run.
type Config struct {
	// PreEvents is the per-core pre-trigger ring capacity (default 128).
	PreEvents int
	// PostEvents is how many events after the trigger complete the window
	// (default 32; a tap flushes a shorter tail when its run ends first).
	PostEvents int
	// MaxPerSec rate-limits dossier capture (default 5/s; < 0 disables).
	// Triggers beyond the budget are counted as suppressed, never queued:
	// a miss storm costs one counter increment per miss, not a capture.
	MaxPerSec float64
	// MaxDossiers caps total captures over the recorder's lifetime
	// (default 256; < 0 disables).
	MaxDossiers int
	// Keep is how many recent dossiers stay in memory for /dossiers and
	// rendering (default 32).
	Keep int
	// Spool, when non-nil, persists every captured dossier.
	Spool *Spool
	// Registry, when non-nil, receives rtopex_flight_* counters and is
	// snapshotted into each dossier's Metrics section.
	Registry *obs.Registry
	// Now substitutes the rate limiter's clock (tests); nil means time.Now.
	// It is consulted only on trigger events, never on the per-event path.
	Now func() time.Time
}

func (c *Config) defaults() {
	if c.PreEvents == 0 {
		c.PreEvents = 128
	}
	if c.PostEvents == 0 {
		c.PostEvents = 32
	}
	if c.MaxPerSec == 0 {
		c.MaxPerSec = 5
	}
	if c.MaxDossiers == 0 {
		c.MaxDossiers = 256
	}
	if c.Keep == 0 {
		c.Keep = 32
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// Recorder is the process-wide side of the flight recorder: the spool, the
// trigger rate limiter, the dossier sequence, the recent-dossier cache and
// the HTTP/SSE surface. Runs attach through NewTap; many concurrent taps
// (a parallel sweep's units) share one recorder safely.
type Recorder struct {
	cfg Config

	mu         sync.Mutex
	tokens     float64
	lastRefill time.Time
	seq        uint64
	admitted   int64
	triggers   int64
	suppressed int64
	lost       int64 // admitted but dropped on a full write queue
	written    int64
	recent     []recentDossier
	subs       map[chan []byte]struct{}
	closed     bool

	writeQ chan *Dossier
	done   chan struct{}
	wg     sync.WaitGroup
}

type recentDossier struct {
	d    *Dossier
	path string
	// capturedAt is the writer's wall clock (cfg.Now) when the dossier
	// landed — dossiers themselves carry only sim time, and the SLO
	// engine's alert windows live in wall time.
	capturedAt time.Time
}

// New creates a recorder and starts its background writer. Close it after
// every tap is closed.
func New(cfg Config) *Recorder {
	cfg.defaults()
	r := &Recorder{
		cfg:        cfg,
		tokens:     burst(cfg.MaxPerSec),
		lastRefill: cfg.Now(),
		subs:       map[chan []byte]struct{}{},
		writeQ:     make(chan *Dossier, 64),
		done:       make(chan struct{}),
	}
	r.wg.Add(1)
	go r.writer()
	return r
}

func burst(perSec float64) float64 {
	if perSec <= 0 {
		return 1
	}
	b := perSec
	if b < 1 {
		b = 1
	}
	return b
}

// writer drains captured dossiers to the spool and fans summaries out to
// SSE subscribers, off the emitting goroutines.
func (r *Recorder) writer() {
	defer r.wg.Done()
	for d := range r.writeQ {
		path := ""
		if r.cfg.Spool != nil {
			if p, err := r.cfg.Spool.Write(d); err == nil {
				path = p
			}
		}
		sum, _ := json.Marshal(d.Summarize(path))
		r.mu.Lock()
		r.written++
		r.recent = append(r.recent, recentDossier{d: d, path: path, capturedAt: r.cfg.Now()})
		if over := len(r.recent) - r.cfg.Keep; over > 0 {
			r.recent = append(r.recent[:0], r.recent[over:]...)
		}
		if r.cfg.Registry != nil {
			r.cfg.Registry.Counter("rtopex_flight_dossiers_total").Inc()
		}
		for ch := range r.subs {
			select {
			case ch <- sum:
			default: // slow subscriber: drop, never block capture
			}
		}
		r.mu.Unlock()
	}
}

// Close flushes the write queue and stops the writer. Close every tap
// first; triggers after Close are counted as suppressed.
func (r *Recorder) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.writeQ)
	r.wg.Wait()
	close(r.done)
}

// noteTrigger counts one trigger event (captured or not).
func (r *Recorder) noteTrigger(trig Trigger) {
	r.mu.Lock()
	r.triggers++
	reg := r.cfg.Registry
	r.mu.Unlock()
	if reg != nil {
		reg.Counter("rtopex_flight_triggers_total", obs.L("trigger", string(trig))).Inc()
	}
}

// admit decides whether one trigger may capture a dossier, charging the
// rate limiter and the lifetime cap. Denied triggers count as suppressed.
func (r *Recorder) admit(trig Trigger) bool {
	r.mu.Lock()
	r.triggers++
	reg := r.cfg.Registry
	ok := !r.closed &&
		(r.cfg.MaxDossiers < 0 || r.admitted < int64(r.cfg.MaxDossiers)) &&
		r.takeToken()
	if ok {
		r.admitted++
	} else {
		r.suppressed++
	}
	r.mu.Unlock()
	if reg != nil {
		reg.Counter("rtopex_flight_triggers_total", obs.L("trigger", string(trig))).Inc()
		if !ok {
			reg.Counter("rtopex_flight_suppressed_total").Inc()
		}
	}
	return ok
}

// takeToken is the MaxPerSec token bucket (caller holds r.mu).
func (r *Recorder) takeToken() bool {
	if r.cfg.MaxPerSec < 0 {
		return true
	}
	now := r.cfg.Now()
	if dt := now.Sub(r.lastRefill).Seconds(); dt > 0 {
		r.tokens += dt * r.cfg.MaxPerSec
		if b := burst(r.cfg.MaxPerSec); r.tokens > b {
			r.tokens = b
		}
	}
	r.lastRefill = now
	if r.tokens < 1 {
		return false
	}
	r.tokens--
	return true
}

func (r *Recorder) nextSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return r.seq
}

// commit hands one finalized dossier to the writer. The send never blocks:
// an admitted dossier arriving into a saturated queue is lost (counted),
// keeping the emitting hot path wait-free.
func (r *Recorder) commit(d *Dossier) {
	r.mu.Lock()
	if r.closed {
		r.lost++
		r.mu.Unlock()
		return
	}
	select {
	case r.writeQ <- d:
	default:
		r.lost++
	}
	r.mu.Unlock()
}

// Written reports dossiers fully captured (spooled when a spool is set).
func (r *Recorder) Written() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.written
}

// Triggers reports all trigger events observed.
func (r *Recorder) Triggers() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.triggers
}

// Suppressed reports triggers denied by the rate limiter, the lifetime cap
// or a closed recorder.
func (r *Recorder) Suppressed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.suppressed
}

// Lost reports admitted dossiers dropped on a saturated write queue.
func (r *Recorder) Lost() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lost
}

// Recent lists the in-memory dossier summaries, oldest first.
func (r *Recorder) Recent() []Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Summary, len(r.recent))
	for i, rd := range r.recent {
		out[i] = rd.d.Summarize(rd.path)
	}
	return out
}

// DossierRefsSince implements obs.DossierSource: recent dossiers captured
// at or after since, oldest first, as SLO alert cross-link refs. The ref
// ID is the spool path when spooled, else "seq:<n>".
func (r *Recorder) DossierRefsSince(since time.Time) []obs.DossierRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []obs.DossierRef
	for _, rd := range r.recent {
		if rd.capturedAt.Before(since) {
			continue
		}
		id := rd.path
		if id == "" {
			id = fmt.Sprintf("seq:%d", rd.d.Seq)
		}
		out = append(out, obs.DossierRef{
			ID:         id,
			Source:     "local",
			Label:      rd.d.Label,
			Trigger:    string(rd.d.Trigger),
			Seq:        rd.d.Seq,
			CapturedMS: rd.capturedAt.UnixMilli(),
		})
	}
	return out
}

// Dossier retrieves one recent dossier by sequence number.
func (r *Recorder) Dossier(seq uint64) (*Dossier, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rd := range r.recent {
		if rd.d.Seq == seq {
			return rd.d, true
		}
	}
	return nil, false
}

// subscribe registers an SSE subscriber channel.
func (r *Recorder) subscribe() (ch chan []byte, cancel func()) {
	ch = make(chan []byte, 8)
	r.mu.Lock()
	r.subs[ch] = struct{}{}
	r.mu.Unlock()
	return ch, func() {
		r.mu.Lock()
		delete(r.subs, ch)
		r.mu.Unlock()
	}
}

// TapConfig describes one run's attachment to the recorder. Everything is
// optional except that a tap without Job/State/Reports simply produces
// dossiers with those sections empty.
type TapConfig struct {
	// Label names the run in its dossiers (scheduler name, "realtime").
	Label string
	// BudgetUS is the run's per-subframe processing budget in µs.
	BudgetUS float64
	// Job resolves a subframe's exact arrival and deadline (µs), when the
	// run knows them (the simulator's workload does; the live runner's
	// release clock does).
	Job func(bs, sf int) (arrivalUS, deadlineUS float64, ok bool)
	// State snapshots the scheduler at the trigger instant. Called
	// synchronously from the emitting goroutine.
	State func() SchedState
	// Reports supplies per-core utilization at the trigger. When nil the
	// tap feeds its own obs.CoreAccountant from the stream; a run that
	// already runs an accountant (harness.TracedRunObserved) shares it
	// here instead, halving the armed per-event cost.
	Reports func(endUS float64) []obs.CoreReport
}

// Tap is one run's flight-recorder attachment: fixed per-core event rings
// plus trigger classification. It implements trace.Tracer — arm a run by
// teeing the tap into its event stream. Like the other sinks in the trace
// package (Ring, Tee, the obs accountant), a Tap is unsynchronized:
// concurrent emitters must serialize it externally (trace.Locked), which
// every in-repo attachment point already does — the discrete-event
// simulator emits from one goroutine, and the realtime layer tees the tap
// inside its Locked wrapper. Keeping the per-event path lock-free is what
// holds the armed overhead inside its budget. The Recorder behind the tap
// stays fully locked, so many taps still share one recorder safely.
type Tap struct {
	rec *Recorder
	cfg TapConfig

	rings    []*evring // indexed by core+1 (-1 holds pre-placement events)
	maxCore  int
	acct     *obs.CoreAccountant
	pending  *Dossier
	postLeft int
	closed   bool
}

// NewTap attaches one run to the recorder.
func (r *Recorder) NewTap(cfg TapConfig) *Tap {
	t := &Tap{rec: r, cfg: cfg, maxCore: -1}
	if cfg.Reports == nil {
		t.acct = obs.NewCoreAccountant()
	}
	return t
}

// Emit implements trace.Tracer: ring the event, feed the utilization
// accountant, and classify. The common (non-trigger) path is one ring
// store and one switch — lock-free, bounded, and allocation-free after the
// rings warm up; capture and post-trigger collection live in the out-of-
// line slow paths.
func (t *Tap) Emit(e trace.Event) {
	if t.closed {
		return
	}
	if t.acct != nil {
		t.acct.Emit(e)
	}
	t.ring(e.Core).push(e)
	if t.pending != nil {
		t.collectPost(e)
		return
	}
	if trig, ok := Classify(e); ok {
		t.trigger(e, trig)
	}
}

// collectPost appends one event to the open post-trigger window and commits
// the dossier once the window is full.
func (t *Tap) collectPost(e trace.Event) {
	t.pending.Window = append(t.pending.Window, e)
	t.pending.PostEvents++
	t.postLeft--
	if trig, ok := Classify(e); ok {
		// A trigger inside an open window rides along in the dossier
		// being collected; it is counted but opens no second capture.
		t.rec.noteTrigger(trig)
	}
	if t.postLeft <= 0 {
		d := t.pending
		t.pending = nil
		t.rec.commit(d)
	}
}

// trigger runs one classified trigger through the recorder's admission
// control and, when admitted, freezes the dossier.
func (t *Tap) trigger(e trace.Event, trig Trigger) {
	if !t.rec.admit(trig) {
		return
	}
	d := t.capture(e, trig)
	if t.rec.cfg.PostEvents > 0 {
		t.pending = d
		t.postLeft = t.rec.cfg.PostEvents
		return
	}
	t.rec.commit(d)
}

// mergeRings drains every core ring into one time-ordered window. Emission
// order is nondecreasing in time, so each ring is already
// sorted and a k-way merge suffices — a general sort here (reflect-based
// swaps over a thousand-event window) would dominate the capture cost.
// Ties keep lower-indexed rings first, matching a stable sort over the
// concatenation.
func (t *Tap) mergeRings() (window []trace.Event, ringDropped int64) {
	total := 0
	for _, r := range t.rings {
		if r == nil {
			continue
		}
		total += r.n
		ringDropped += r.dropped
	}
	if total == 0 {
		return nil, ringDropped
	}
	window = make([]trace.Event, 0, total)
	// next[i] counts how many events ring i has already contributed.
	next := make([]int, len(t.rings))
	for len(window) < total {
		best, bestIdx := -1, 0
		var bestTime float64
		for i, r := range t.rings {
			if r == nil || next[i] >= r.n {
				continue
			}
			idx := r.head + next[i]
			if idx >= len(r.buf) {
				idx -= len(r.buf)
			}
			if best < 0 || r.buf[idx].Time < bestTime {
				best, bestIdx, bestTime = i, idx, r.buf[idx].Time
			}
		}
		window = append(window, t.rings[best].buf[bestIdx])
		next[best]++
	}
	return window, ringDropped
}

// ring returns (allocating on first use) the ring of one core. maxCore
// tracking lives here, on the allocation branch, so the per-event path is
// just the bounds check.
func (t *Tap) ring(core int) *evring {
	idx := core + 1
	for idx >= len(t.rings) {
		t.rings = append(t.rings, nil)
	}
	if t.rings[idx] == nil {
		t.rings[idx] = newEvring(t.rec.cfg.PreEvents)
		if core > t.maxCore {
			t.maxCore = core
		}
	}
	return t.rings[idx]
}

// capture freezes the pre-trigger state into a new dossier.
func (t *Tap) capture(e trace.Event, trig Trigger) *Dossier {
	window, ringDropped := t.mergeRings()
	d := &Dossier{
		Version:      DossierVersion,
		Seq:          t.rec.nextSeq(),
		Label:        t.cfg.Label,
		Trigger:      trig,
		TriggerEvent: e,
		BudgetUS:     t.cfg.BudgetUS,
		Window:       window,
		PreEvents:    len(window),
		RingDropped:  ringDropped,
	}
	if t.cfg.Job != nil {
		if arr, dl, ok := t.cfg.Job(e.BS, e.Subframe); ok {
			d.ArrivalUS, d.DeadlineUS = arr, dl
		}
	}
	if t.cfg.Reports != nil {
		d.Cores = t.cfg.Reports(e.Time)
	} else if t.acct != nil {
		d.Cores = t.acct.Reports(t.maxCore+1, e.Time)
	}
	if t.cfg.State != nil {
		st := t.cfg.State()
		d.Sched = &st
	}
	rt := obs.CaptureRuntime()
	d.Runtime = &rt
	if t.rec.cfg.Registry != nil {
		d.Metrics = t.rec.cfg.Registry.Snapshot()
	}
	return d
}

// Close flushes a partially collected window (a miss at the very end of a
// run still produces a dossier) and detaches the tap. Close from the same
// serialization domain as Emit — after the run's emitters have stopped.
func (t *Tap) Close() {
	if t.closed {
		return
	}
	t.closed = true
	d := t.pending
	t.pending = nil
	if d != nil {
		t.rec.commit(d)
	}
}

var _ trace.Tracer = (*Tap)(nil)

// evring is a fixed-capacity event ring (the Tap-internal analog of
// trace.Ring, sized once and reused so the armed hot path stays
// allocation-free).
type evring struct {
	buf     []trace.Event
	head, n int
	dropped int64
}

func newEvring(capacity int) *evring {
	if capacity < 1 {
		capacity = 1
	}
	return &evring{buf: make([]trace.Event, capacity)}
}

func (r *evring) push(e trace.Event) {
	if r.n < len(r.buf) {
		// head is 0 until the ring first fills, so the write index never
		// needs more than one wrap. Conditional wrap, not %: push is on the
		// armed per-event hot path.
		i := r.head + r.n
		if i >= len(r.buf) {
			i -= len(r.buf)
		}
		r.buf[i] = e
		r.n++
		return
	}
	r.buf[r.head] = e
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.dropped++
}
