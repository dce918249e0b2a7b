package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"sort"
	"sync"
	"time"

	"rtopex/internal/obs"
	"rtopex/internal/sweep"
)

// Config describes one coordinated fleet sweep.
type Config struct {
	// Spec is the sweep being distributed: IDs, Options (whose resolved
	// seed is the root seed units derive from), Replicas, SkipMeasured,
	// StorePath, Resume, and Timeout (the per-unit compute budget handed
	// to workers). Spec.Workers/Progress/Obs/Push are ignored — worker
	// parallelism lives in the worker processes.
	Spec sweep.Config
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// before its unit is reclaimed and re-leased (default 30s).
	LeaseTTL time.Duration
	// MaxAttempts bounds lease grants per unit: a unit whose leases keep
	// expiring or timing out is failed permanently on the MaxAttempts-th
	// loss (default 3), so one poisonous unit cannot spin the fleet
	// forever.
	MaxAttempts int
	// RetryHint is the client backoff suggested when no unit is leasable
	// (default 200ms).
	RetryHint time.Duration
	// Obs, when non-nil, receives the rtopex_fleet_* lease/reclaim/worker
	// metrics; nil creates a private registry (still served at /metrics).
	Obs *obs.Registry
	// Logf, when non-nil, receives coordinator log lines.
	Logf func(format string, args ...any)
	// Now substitutes the clock (tests); nil means time.Now.
	Now func() time.Time
}

type unitPhase int

const (
	phasePending unitPhase = iota
	phaseLeased
	phaseDone
	phaseFailed
)

type unitTracker struct {
	unit     sweep.Unit
	phase    unitPhase
	leaseID  string
	worker   string
	expiry   time.Time
	attempts int
	failure  *sweep.Failure
}

type workerState struct {
	lastSeen    time.Time
	leased      int
	completions int64
}

// Coordinator owns a fleet sweep's unit ledger: it grants leases, reclaims
// the silent, ingests completions through the deduping store, and resolves
// when every unit is done or failed. All methods are safe for concurrent
// use; the HTTP surface in Handler is a thin JSON shim over them, so tests
// can drive the protocol directly.
type Coordinator struct {
	cfg  Config
	now  func() time.Time
	logf func(format string, args ...any)
	ttl  time.Duration

	mu          sync.Mutex
	units       []*unitTracker
	byKey       map[string]*unitTracker
	leases      map[string]*unitTracker
	workers     map[string]*workerState
	store       *sweep.Store
	ingest      *sweep.Ingest
	records     []*sweep.Record
	reused      int
	outstanding int
	leaseSeq    uint64
	closed      bool
	doneCh      chan struct{}

	reg         *obs.Registry
	cLeases     *obs.Counter
	cReclaims   *obs.Counter
	cReleases   *obs.Counter
	cDuplicates *obs.Counter
	cHeartbeats *obs.Counter
	cDone       *obs.Counter
	cFailed     *obs.Counter
	gPending    *obs.Gauge
	gLeased     *obs.Gauge
	gWorkers    *obs.Gauge
}

// NewCoordinator expands the spec into units, primes the store (honoring
// Spec.Resume exactly like sweep.Run: surviving records are rewritten and
// their units marked done), and is immediately ready to serve leases.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	units, err := sweep.Units(cfg.Spec)
	if err != nil {
		return nil, err
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryHint <= 0 {
		cfg.RetryHint = 200 * time.Millisecond
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}

	c := &Coordinator{
		cfg:     cfg,
		now:     now,
		logf:    cfg.Logf,
		ttl:     cfg.LeaseTTL,
		byKey:   make(map[string]*unitTracker, len(units)),
		leases:  map[string]*unitTracker{},
		workers: map[string]*workerState{},
		doneCh:  make(chan struct{}),
		reg:     reg,
	}
	c.initMetrics(len(units))

	var prior []*sweep.Record
	existing := map[string]*sweep.Record{}
	if cfg.Spec.StorePath != "" {
		if cfg.Spec.Resume {
			recs, rerr := sweep.ReadStore(cfg.Spec.StorePath)
			if rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
				return nil, rerr
			}
			existing = sweep.IndexByKey(recs)
			for _, r := range recs {
				if existing[r.Key] == r {
					prior = append(prior, r)
				}
			}
		}
		store, err := sweep.CreateStore(cfg.Spec.StorePath)
		if err != nil {
			return nil, err
		}
		c.store = store
	}
	// The ingest always exists — with no store it still provides the
	// content-hash dedup completions rely on.
	c.ingest, err = sweep.NewIngest(c.store, prior)
	if err != nil {
		return nil, err
	}

	for _, u := range units {
		ut := &unitTracker{unit: u}
		if rec, ok := existing[u.Key]; ok && cfg.Spec.Resume {
			ut.phase = phaseDone
			c.records = append(c.records, rec)
			c.reused++
		} else {
			c.outstanding++
		}
		c.units = append(c.units, ut)
		c.byKey[u.Key] = ut
	}
	c.reg.Counter("rtopex_fleet_units_total").Add(int64(len(units)))
	c.reg.Counter("rtopex_fleet_units_reused_total").Add(int64(c.reused))
	c.updateGaugesLocked()
	if c.outstanding == 0 {
		close(c.doneCh)
	}
	return c, nil
}

func (c *Coordinator) initMetrics(total int) {
	r := c.reg
	r.SetHelp("rtopex_fleet_units_total", "Units in this fleet sweep (experiments × replicas).")
	r.SetHelp("rtopex_fleet_units_reused_total", "Units satisfied from the resumed store without leasing.")
	r.SetHelp("rtopex_fleet_units_done_total", "Units completed with an ingested record.")
	r.SetHelp("rtopex_fleet_units_failed_total", "Units failed permanently (error or attempt cap).")
	r.SetHelp("rtopex_fleet_leases_total", "Leases granted.")
	r.SetHelp("rtopex_fleet_reclaims_total", "Leases reclaimed after TTL expiry (dead or silent worker).")
	r.SetHelp("rtopex_fleet_releases_total", "Leases released by worker-reported unit timeouts.")
	r.SetHelp("rtopex_fleet_duplicate_completions_total", "Completions dropped as byte-identical duplicates (zombie workers).")
	r.SetHelp("rtopex_fleet_heartbeats_total", "Heartbeat requests processed.")
	r.SetHelp("rtopex_fleet_units_pending", "Units waiting for a lease.")
	r.SetHelp("rtopex_fleet_units_leased", "Units currently leased out.")
	r.SetHelp("rtopex_fleet_workers_live", "Workers seen within the last two lease TTLs.")
	c.cLeases = r.Counter("rtopex_fleet_leases_total")
	c.cReclaims = r.Counter("rtopex_fleet_reclaims_total")
	c.cReleases = r.Counter("rtopex_fleet_releases_total")
	c.cDuplicates = r.Counter("rtopex_fleet_duplicate_completions_total")
	c.cHeartbeats = r.Counter("rtopex_fleet_heartbeats_total")
	c.cDone = r.Counter("rtopex_fleet_units_done_total")
	c.cFailed = r.Counter("rtopex_fleet_units_failed_total")
	c.gPending = r.Gauge("rtopex_fleet_units_pending")
	c.gLeased = r.Gauge("rtopex_fleet_units_leased")
	c.gWorkers = r.Gauge("rtopex_fleet_workers_live")
}

func (c *Coordinator) logfSafe(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

func (c *Coordinator) updateGaugesLocked() {
	var pending, leased int
	for _, ut := range c.units {
		switch ut.phase {
		case phasePending:
			pending++
		case phaseLeased:
			leased++
		}
	}
	c.gPending.Set(float64(pending))
	c.gLeased.Set(float64(leased))
	live := 0
	cutoff := c.now().Add(-2 * c.ttl)
	for _, w := range c.workers {
		if !w.lastSeen.Before(cutoff) {
			live++
		}
	}
	c.gWorkers.Set(float64(live))
}

// reclaimLocked returns every expired lease's unit to the pending queue.
// Called lazily on every request, so a coordinator nobody polls still
// converges the moment the next worker shows up.
func (c *Coordinator) reclaimLocked() {
	now := c.now()
	for id, ut := range c.leases {
		if ut.expiry.After(now) {
			continue
		}
		delete(c.leases, id)
		c.logfSafe("fleet: lease %s (%s, worker %s) expired, reclaiming unit", id, ut.unit.Spec.ID, ut.worker)
		c.cReclaims.Inc()
		if w := c.workers[ut.worker]; w != nil && w.leased > 0 {
			w.leased--
		}
		c.releaseUnitLocked(ut, fmt.Sprintf("lease expired after %s", c.ttl))
	}
}

// releaseUnitLocked puts a leased unit back in the queue, or fails it
// permanently once its attempt budget is spent.
func (c *Coordinator) releaseUnitLocked(ut *unitTracker, reason string) {
	ut.leaseID, ut.worker = "", ""
	if ut.attempts >= c.cfg.MaxAttempts {
		ut.phase = phaseFailed
		ut.failure = &sweep.Failure{
			Unit:     ut.unit,
			Err:      fmt.Sprintf("%s; attempt cap (%d) reached", reason, c.cfg.MaxAttempts),
			TimedOut: true,
		}
		c.cFailed.Inc()
		c.resolveOneLocked()
		return
	}
	ut.phase = phasePending
}

// resolveOneLocked marks one outstanding unit resolved and closes the done
// channel on the last one.
func (c *Coordinator) resolveOneLocked() {
	c.outstanding--
	if c.outstanding == 0 {
		close(c.doneCh)
	}
}

func (c *Coordinator) touchWorkerLocked(name string) *workerState {
	w := c.workers[name]
	if w == nil {
		w = &workerState{}
		c.workers[name] = w
		c.logfSafe("fleet: new worker %s", name)
	}
	w.lastSeen = c.now()
	return w
}

func checkProtocol(p int) error {
	if p != ProtocolVersion {
		return fmt.Errorf("fleet: protocol %d not supported (this coordinator speaks %d)", p, ProtocolVersion)
	}
	return nil
}

// Lease grants the first pending unit, or reports wait/done.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	if err := checkProtocol(req.Protocol); err != nil {
		return LeaseResponse{}, err
	}
	if req.Worker == "" {
		return LeaseResponse{}, errors.New("fleet: lease request without worker id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimLocked()
	w := c.touchWorkerLocked(req.Worker)
	defer c.updateGaugesLocked()
	if c.outstanding == 0 {
		return LeaseResponse{Status: StatusDone}, nil
	}
	for _, ut := range c.units {
		if ut.phase != phasePending {
			continue
		}
		c.leaseSeq++
		ut.phase = phaseLeased
		ut.leaseID = fmt.Sprintf("L%06d", c.leaseSeq)
		ut.worker = req.Worker
		ut.expiry = c.now().Add(c.ttl)
		ut.attempts++
		c.leases[ut.leaseID] = ut
		w.leased++
		c.cLeases.Inc()
		c.logfSafe("fleet: lease %s: %s replica %d → %s (attempt %d)",
			ut.leaseID, ut.unit.Spec.ID, ut.unit.Replica, req.Worker, ut.attempts)
		return LeaseResponse{Status: StatusLease, Lease: &WireLease{
			ID:            ut.leaseID,
			Key:           ut.unit.Key,
			Experiment:    ut.unit.Spec.ID,
			Replica:       ut.unit.Replica,
			Config:        ut.unit.Options.Resolve(),
			TTLMillis:     c.ttl.Milliseconds(),
			TimeoutMillis: c.cfg.Spec.Timeout.Milliseconds(),
		}}, nil
	}
	// Everything outstanding is leased out; the caller should ask again
	// shortly (sooner than the TTL, so reclaims find a taker fast).
	return LeaseResponse{Status: StatusWait, RetryMillis: c.cfg.RetryHint.Milliseconds()}, nil
}

// Heartbeat renews the listed leases; ids no longer honored come back
// rejected so the worker stops renewing them.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	if err := checkProtocol(req.Protocol); err != nil {
		return HeartbeatResponse{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimLocked()
	c.touchWorkerLocked(req.Worker)
	c.cHeartbeats.Inc()
	defer c.updateGaugesLocked()
	var resp HeartbeatResponse
	for _, id := range req.LeaseIDs {
		ut, ok := c.leases[id]
		if !ok || ut.worker != req.Worker {
			resp.Rejected = append(resp.Rejected, id)
			continue
		}
		ut.expiry = c.now().Add(c.ttl)
	}
	return resp, nil
}

// Complete ingests one finished unit's record. Any valid record for a
// not-yet-done unit is accepted — including one from a stale lease (a
// zombie that finished after being reclaimed): records are deterministic,
// so whoever delivers first wins and later byte-identical copies are
// counted as duplicates.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	if err := checkProtocol(req.Protocol); err != nil {
		return CompleteResponse{}, err
	}
	var rec sweep.Record
	if err := json.Unmarshal(req.Record, &rec); err != nil {
		return CompleteResponse{}, fmt.Errorf("fleet: completion record: %v", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return CompleteResponse{}, errors.New("fleet: coordinator is shut down")
	}
	c.reclaimLocked()
	w := c.touchWorkerLocked(req.Worker)
	defer c.updateGaugesLocked()
	ut, ok := c.byKey[rec.Key]
	if !ok {
		return CompleteResponse{}, fmt.Errorf("fleet: completion for unknown unit key %s", rec.Key)
	}
	added, err := c.ingest.Add(&rec)
	if err != nil {
		return CompleteResponse{}, err
	}
	if ut.phase == phaseLeased {
		if cur, ok := c.leases[ut.leaseID]; ok && cur == ut {
			delete(c.leases, ut.leaseID)
		}
		if ow := c.workers[ut.worker]; ow != nil && ow.leased > 0 {
			ow.leased--
		}
	}
	switch ut.phase {
	case phaseDone:
		// Re-delivery of a resolved unit: the ingest already counted the
		// byte-identical duplicate (or errored on a conflict above).
		c.cDuplicates.Inc()
		return CompleteResponse{Status: StatusDuplicate}, nil
	case phaseFailed:
		// A straggler beat the attempt cap's verdict: take the record —
		// the store should be as complete as possible — and clear the
		// failure. (The cumulative failed counter keeps its tick; the
		// summary recounts live phases from the trackers.)
		ut.phase = phaseDone
		ut.failure = nil
	default:
		ut.phase = phaseDone
		c.resolveOneLocked()
	}
	ut.leaseID, ut.worker = "", ""
	w.completions++
	c.cDone.Inc()
	if added {
		c.records = append(c.records, &rec)
	} else {
		c.cDuplicates.Inc()
	}
	c.logfSafe("fleet: unit %s (%s) completed by %s", rec.Key, rec.Experiment, req.Worker)
	return CompleteResponse{Status: StatusOK}, nil
}

// Fail records a worker-reported unit failure. Timeouts release the unit
// for re-lease (until the attempt cap); other errors are permanent — the
// experiments are deterministic, so retrying an error burns time for the
// same answer.
func (c *Coordinator) Fail(req FailRequest) (FailResponse, error) {
	if err := checkProtocol(req.Protocol); err != nil {
		return FailResponse{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimLocked()
	c.touchWorkerLocked(req.Worker)
	defer c.updateGaugesLocked()
	ut, ok := c.byKey[req.Key]
	if !ok {
		return FailResponse{}, fmt.Errorf("fleet: failure for unknown unit key %s", req.Key)
	}
	if ut.phase == phaseDone || ut.phase == phaseFailed {
		return FailResponse{Status: StatusIgnored}, nil
	}
	if ut.phase == phaseLeased && ut.leaseID != req.LeaseID {
		// A stale holder's opinion; the current lease decides the unit.
		return FailResponse{Status: StatusIgnored}, nil
	}
	if ut.phase == phaseLeased {
		delete(c.leases, ut.leaseID)
		if w := c.workers[ut.worker]; w != nil && w.leased > 0 {
			w.leased--
		}
	}
	if req.TimedOut {
		c.cReleases.Inc()
		c.logfSafe("fleet: unit %s (%s) timed out on %s, releasing for re-lease", req.Key, ut.unit.Spec.ID, req.Worker)
		c.releaseUnitLocked(ut, fmt.Sprintf("timed out on %s: %s", req.Worker, req.Err))
		if ut.phase == phaseFailed {
			return FailResponse{Status: StatusFailed}, nil
		}
		return FailResponse{Status: StatusReleased}, nil
	}
	ut.phase = phaseFailed
	ut.leaseID, ut.worker = "", ""
	ut.failure = &sweep.Failure{Unit: ut.unit, Err: fmt.Sprintf("worker %s: %s", req.Worker, req.Err)}
	c.cFailed.Inc()
	c.resolveOneLocked()
	c.logfSafe("fleet: unit %s (%s) failed permanently: %s", req.Key, ut.unit.Spec.ID, req.Err)
	return FailResponse{Status: StatusFailed}, nil
}

// Wait blocks until the sweep resolves or the timeout elapses (≤ 0 waits
// forever).
func (c *Coordinator) Wait(timeout time.Duration) error {
	if timeout <= 0 {
		<-c.doneCh
		return nil
	}
	select {
	case <-c.doneCh:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("fleet: sweep did not resolve within %s", timeout)
	}
}

// Summary is the end-of-sweep ledger.
type Summary struct {
	Total      int
	Reused     int
	Done       int
	Failed     int
	Leases     int64
	Reclaims   int64
	Releases   int64
	Duplicates int64
	Failures   []sweep.Failure
}

// Summary snapshots the ledger (valid mid-sweep too).
func (c *Coordinator) Summary() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Summary{
		Total:      len(c.units),
		Reused:     c.reused,
		Leases:     c.cLeases.Value(),
		Reclaims:   c.cReclaims.Value(),
		Releases:   c.cReleases.Value(),
		Duplicates: c.cDuplicates.Value(),
	}
	for _, ut := range c.units {
		switch ut.phase {
		case phaseDone:
			s.Done++
		case phaseFailed:
			s.Failed++
			if ut.failure != nil {
				s.Failures = append(s.Failures, *ut.failure)
			}
		}
	}
	return s
}

// Records returns every artifact the sweep holds (reused plus completed),
// in deterministic (experiment, replica) order.
func (c *Coordinator) Records() []*sweep.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return sweep.SortRecords(c.records)
}

// Close flushes and closes the store. Further completions are rejected.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.store != nil {
		return c.store.Close()
	}
	return nil
}

// Handler returns the coordinator's HTTP surface:
//
//	POST /lease      LeaseRequest → LeaseResponse
//	POST /heartbeat  HeartbeatRequest → HeartbeatResponse
//	POST /complete   CompleteRequest → CompleteResponse
//	POST /fail       FailRequest → FailResponse
//	GET  /metrics    Prometheus text of the rtopex_fleet_* registry
//	GET  /state.json machine-readable summary
//	GET  /           text status page (units, workers, leases, failures)
//
// Wrap it in obs.BearerAuth to require a fleet token.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	post := func(path string, serve func(body []byte) (any, error)) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			body, err := readBody(r)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			resp, err := serve(body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(resp)
		})
	}
	post(LeasePath, func(body []byte) (any, error) {
		var req LeaseRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return c.Lease(req)
	})
	post(HeartbeatPath, func(body []byte) (any, error) {
		var req HeartbeatRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return c.Heartbeat(req)
	})
	post(CompletePath, func(body []byte) (any, error) {
		var req CompleteRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return c.Complete(req)
	})
	post(FailPath, func(body []byte) (any, error) {
		var req FailRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return c.Fail(req)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		_ = c.reg.WriteProm(w)
	})
	mux.HandleFunc(StatePath, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(c.state())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		c.writeStatus(w)
	})
	return mux
}

// readBody drains a request under the same 64 MiB bound the obs wire codec
// enforces, so a stray client cannot balloon the coordinator.
func readBody(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	const limit = 64 << 20
	b, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if len(b) > limit {
		return nil, fmt.Errorf("fleet: request body exceeds %d bytes", limit)
	}
	return b, nil
}

// state is the machine-readable status document /state.json serves; the
// smoke script polls it to decide when to kill a worker.
type state struct {
	Protocol    int               `json:"protocol"`
	Total       int               `json:"total"`
	Pending     int               `json:"pending"`
	Leased      int               `json:"leased"`
	Done        int               `json:"done"`
	Failed      int               `json:"failed"`
	Reused      int               `json:"reused"`
	Reclaims    int64             `json:"reclaims"`
	Duplicates  int64             `json:"duplicates"`
	WorkerUnits map[string]int    `json:"worker_units"` // worker → currently leased units
	Workers     map[string]string `json:"workers"`      // worker → last-seen age
}

func (c *Coordinator) state() state {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimLocked()
	st := state{
		Protocol:    ProtocolVersion,
		Total:       len(c.units),
		Reused:      c.reused,
		Reclaims:    c.cReclaims.Value(),
		Duplicates:  c.cDuplicates.Value(),
		WorkerUnits: map[string]int{},
		Workers:     map[string]string{},
	}
	for _, ut := range c.units {
		switch ut.phase {
		case phasePending:
			st.Pending++
		case phaseLeased:
			st.Leased++
		case phaseDone:
			st.Done++
		case phaseFailed:
			st.Failed++
		}
	}
	now := c.now()
	for name, w := range c.workers {
		st.WorkerUnits[name] = w.leased
		st.Workers[name] = now.Sub(w.lastSeen).Truncate(time.Millisecond).String()
	}
	return st
}

func (c *Coordinator) writeStatus(w http.ResponseWriter) {
	st := c.state()
	c.mu.Lock()
	var leaseLines, failLines []string
	now := c.now()
	for _, ut := range c.units {
		switch ut.phase {
		case phaseLeased:
			leaseLines = append(leaseLines, fmt.Sprintf("  %-10s %-18s replica %-3d → %-20s expires in %s",
				ut.leaseID, ut.unit.Spec.ID, ut.unit.Replica, ut.worker, ut.expiry.Sub(now).Truncate(time.Millisecond)))
		case phaseFailed:
			msg := ""
			if ut.failure != nil {
				msg = ut.failure.Err
			}
			failLines = append(failLines, fmt.Sprintf("  %-18s %s", ut.unit.Spec.ID, msg))
		}
	}
	workers := make([]string, 0, len(c.workers))
	for name := range c.workers {
		workers = append(workers, name)
	}
	sort.Strings(workers)
	var workerLines []string
	for _, name := range workers {
		ws := c.workers[name]
		workerLines = append(workerLines, fmt.Sprintf("  %-24s leased %-3d completed %-4d last seen %s ago",
			name, ws.leased, ws.completions, now.Sub(ws.lastSeen).Truncate(time.Millisecond)))
	}
	c.mu.Unlock()

	fmt.Fprintf(w, "rtopex sweepd — %d units: %d done, %d failed, %d leased, %d pending (%d reused)\n",
		st.Total, st.Done, st.Failed, st.Leased, st.Pending, st.Reused)
	fmt.Fprintf(w, "leases: %d granted, %d reclaimed, %d released, %d duplicate completions\n\n",
		c.cLeases.Value(), st.Reclaims, c.cReleases.Value(), st.Duplicates)
	fmt.Fprintf(w, "workers (%d):\n", len(workerLines))
	for _, l := range workerLines {
		fmt.Fprintln(w, l)
	}
	if len(leaseLines) > 0 {
		fmt.Fprintf(w, "\nactive leases:\n")
		for _, l := range leaseLines {
			fmt.Fprintln(w, l)
		}
	}
	if len(failLines) > 0 {
		fmt.Fprintf(w, "\nfailed units:\n")
		for _, l := range failLines {
			fmt.Fprintln(w, l)
		}
	}
}
