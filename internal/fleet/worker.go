package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"rtopex/internal/harness"
	"rtopex/internal/obs"
	"rtopex/internal/sweep"
)

// WorkerConfig configures one worker process (or one in-process worker in
// RunLocal and tests).
type WorkerConfig struct {
	// Coordinator is the coordinator's address ("host:port" or a full
	// http:// URL).
	Coordinator string
	// Name identifies this worker in leases and on the status page; empty
	// derives a hostname-pid id (suffixed per in-process worker).
	Name string
	// Parallel is how many units run concurrently (≤ 0 means 1).
	Parallel int
	// AuthToken, when non-empty, is sent as a bearer Authorization header
	// with every request (the coordinator's -auth-token).
	AuthToken string
	// Retry is the request retry schedule — the same policy the obs push
	// client uses. The zero value means 5 attempts from 100ms backoff.
	Retry obs.RetryPolicy
	// Client substitutes the HTTP client (tests); nil uses a 10s-timeout
	// client.
	Client *http.Client
	// Logf, when non-nil, receives worker log lines.
	Logf func(format string, args ...any)
	// RunFn substitutes the experiment runner (tests); nil means
	// harness.Run.
	RunFn sweep.RunFunc
	// Obs, when non-nil, receives per-worker unit counters; Push, when
	// non-nil (requires Obs), streams that registry to an obscollect
	// collector after every unit, with a final push at exit — the same
	// passthrough sweep.Run offers.
	Obs  *obs.Registry
	Push *obs.Pusher

	// heartbeatEvery overrides the TTL/3 heartbeat cadence (tests).
	heartbeatEvery time.Duration
}

// WorkerResult summarizes one worker's sweep participation.
type WorkerResult struct {
	Completed  int // units finished and accepted
	Duplicates int // completions the coordinator already had
	Failed     int // units reported failed (incl. timeouts)
}

// worker is the runtime state behind RunWorker.
type worker struct {
	cfg    WorkerConfig
	base   string
	client *http.Client
	name   string

	mu     sync.Mutex
	held   map[string]bool // lease ids to heartbeat
	done   bool            // some slot saw StatusDone
	result WorkerResult
	err    error
}

// RunWorker participates in a fleet sweep until the coordinator reports
// done: lease, execute, complete (or fail), repeat, with Parallel units in
// flight and a background heartbeat keeping every held lease alive. It
// returns when the sweep is resolved or a request fails permanently
// (auth rejection, protocol skew, coordinator gone past the retry budget).
func RunWorker(cfg WorkerConfig) (*WorkerResult, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("fleet: worker needs a coordinator address")
	}
	name := cfg.Name
	if name == "" {
		name = obs.DefaultSource().ID
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 1
	}
	if cfg.Retry.Attempts == 0 {
		cfg.Retry.Attempts = 5
	}
	if cfg.Retry.Logf == nil {
		cfg.Retry.Logf = cfg.Logf
	}
	if cfg.Push != nil && cfg.Obs == nil {
		return nil, fmt.Errorf("fleet: WorkerConfig.Push requires Obs (the registry being pushed)")
	}

	w := &worker{
		cfg: cfg, name: name, held: map[string]bool{},
		base:   obs.BaseURL(cfg.Coordinator),
		client: obs.HTTPClient(cfg.Client, 10*time.Second),
	}

	stopHB := make(chan struct{})
	var hbWG sync.WaitGroup

	var slotWG sync.WaitGroup
	for i := 0; i < cfg.Parallel; i++ {
		slotWG.Add(1)
		go func() {
			defer slotWG.Done()
			w.slotLoop(stopHB, &hbWG)
		}()
	}
	slotWG.Wait()
	close(stopHB)
	hbWG.Wait()

	if w.cfg.Push != nil {
		if err := w.cfg.Push.PushFinal(w.cfg.Obs); err != nil && w.err == nil {
			w.err = err
		}
	}
	if w.err != nil {
		return &w.result, w.err
	}
	return &w.result, nil
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

func (w *worker) failed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err != nil
}

func (w *worker) isDone() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.done
}

func (w *worker) setErr(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// slotLoop is one unit-execution slot: lease, run, report, until done.
func (w *worker) slotLoop(stopHB chan struct{}, hbWG *sync.WaitGroup) {
	hbStarted := false
	for !w.failed() {
		var resp LeaseResponse
		if err := w.post(LeasePath, LeaseRequest{Protocol: ProtocolVersion, Worker: w.name}, &resp); err != nil {
			// Once any slot has seen the sweep resolve, a vanishing
			// coordinator is a normal shutdown, not a failure.
			if w.isDone() {
				return
			}
			w.setErr(err)
			return
		}
		switch resp.Status {
		case StatusDone:
			w.mu.Lock()
			w.done = true
			w.mu.Unlock()
			return
		case StatusWait:
			retry := time.Duration(resp.RetryMillis) * time.Millisecond
			if retry <= 0 {
				retry = 200 * time.Millisecond
			}
			time.Sleep(retry)
			continue
		case StatusLease:
			// Fall through.
		default:
			w.setErr(fmt.Errorf("fleet: coordinator returned unknown lease status %q", resp.Status))
			return
		}
		lease := resp.Lease
		if lease == nil {
			w.setErr(fmt.Errorf("fleet: lease response without lease"))
			return
		}
		if !hbStarted {
			// The heartbeat cadence comes from the first lease's TTL; the
			// coordinator uses one TTL for the whole sweep.
			every := w.cfg.heartbeatEvery
			if every <= 0 {
				every = time.Duration(lease.TTLMillis) * time.Millisecond / 3
			}
			if every <= 0 {
				every = time.Second
			}
			hbWG.Add(1)
			go w.heartbeatLoop(every, stopHB, hbWG)
			hbStarted = true
		}
		w.runLease(lease)
	}
}

// runLease executes one leased unit and reports the outcome.
func (w *worker) runLease(lease *WireLease) {
	unit, err := w.unitFromLease(lease)
	if err != nil {
		// Version skew (unknown experiment or key mismatch): permanent.
		w.logf("fleet: refusing lease %s: %v", lease.ID, err)
		w.reportFail(lease, err.Error(), false)
		return
	}
	w.mu.Lock()
	w.held[lease.ID] = true
	w.mu.Unlock()
	timeout := time.Duration(lease.TimeoutMillis) * time.Millisecond
	rec, fail := sweep.ExecuteUnit(unit, timeout, w.cfg.RunFn)
	w.mu.Lock()
	delete(w.held, lease.ID)
	w.mu.Unlock()

	if fail != nil {
		w.logf("fleet: unit %s (%s) failed: %s", unit.Key, unit.Spec.ID, fail.Err)
		w.reportFail(lease, fail.Err, fail.TimedOut)
	} else {
		w.reportComplete(lease, rec)
	}
	if rec != nil && w.cfg.Obs != nil {
		w.cfg.Obs.Counter("rtopex_fleet_worker_units_total").Inc()
		harness.PublishTable(w.cfg.Obs, rec.Table)
	}
	// Per-unit pushes are best-effort, exactly like sweep.Run's: the next
	// push carries a superset of this one's state.
	if w.cfg.Push != nil {
		_ = w.cfg.Push.Push(w.cfg.Obs)
	}
}

// unitFromLease rebuilds the sweep.Unit a lease names, verifying the local
// build derives the same artifact key the coordinator holds.
func (w *worker) unitFromLease(lease *WireLease) (sweep.Unit, error) {
	var spec harness.Spec
	found := false
	for _, s := range harness.Specs() {
		if s.ID == lease.Experiment {
			spec, found = s, true
			break
		}
	}
	if !found {
		return sweep.Unit{}, fmt.Errorf("experiment %q not in this worker's registry (version skew?)", lease.Experiment)
	}
	opts := lease.Config.Options()
	key := sweep.Key(lease.Experiment, opts.Resolve())
	if key != lease.Key {
		return sweep.Unit{}, fmt.Errorf("unit key mismatch: coordinator %s, local %s (version skew)", lease.Key, key)
	}
	return sweep.Unit{
		Spec:    spec,
		Shard:   lease.Shard,
		Replica: lease.Replica,
		Options: opts,
		Key:     key,
	}, nil
}

func (w *worker) reportComplete(lease *WireLease, rec *sweep.Record) {
	line, err := rec.MarshalLine()
	if err != nil {
		w.setErr(err)
		return
	}
	var resp CompleteResponse
	err = w.post(CompletePath, CompleteRequest{
		Protocol: ProtocolVersion,
		Worker:   w.name,
		LeaseID:  lease.ID,
		Record:   json.RawMessage(bytes.TrimSuffix(line, []byte("\n"))),
	}, &resp)
	if err != nil {
		// An undeliverable result is this worker's fatal error: the unit
		// will be re-leased after TTL, but this process has nothing left
		// to contribute if the coordinator won't talk to it.
		w.setErr(err)
		return
	}
	w.mu.Lock()
	if resp.Status == StatusDuplicate {
		w.result.Duplicates++
	} else {
		w.result.Completed++
	}
	w.mu.Unlock()
}

func (w *worker) reportFail(lease *WireLease, msg string, timedOut bool) {
	var resp FailResponse
	err := w.post(FailPath, FailRequest{
		Protocol: ProtocolVersion,
		Worker:   w.name,
		LeaseID:  lease.ID,
		Key:      lease.Key,
		Err:      msg,
		TimedOut: timedOut,
	}, &resp)
	if err != nil {
		w.setErr(err)
		return
	}
	w.mu.Lock()
	w.result.Failed++
	w.mu.Unlock()
}

// heartbeatLoop renews every held lease until the worker stops. Rejected
// ids (reclaimed or completed elsewhere) are dropped from the set; the
// in-flight computation continues — its completion is deduped centrally.
func (w *worker) heartbeatLoop(every time.Duration, stop chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			w.mu.Lock()
			ids := make([]string, 0, len(w.held))
			for id := range w.held {
				ids = append(ids, id)
			}
			w.mu.Unlock()
			if len(ids) == 0 {
				continue
			}
			var resp HeartbeatResponse
			if err := w.post(HeartbeatPath, HeartbeatRequest{
				Protocol: ProtocolVersion, Worker: w.name, LeaseIDs: ids,
			}, &resp); err != nil {
				w.logf("fleet: heartbeat failed: %v", err)
				continue
			}
			if len(resp.Rejected) > 0 {
				w.logf("fleet: %d lease(s) no longer held (%v)", len(resp.Rejected), resp.Rejected)
				w.mu.Lock()
				for _, id := range resp.Rejected {
					delete(w.held, id)
				}
				w.mu.Unlock()
			}
		}
	}
}

// post sends one JSON request under the retry policy. 4xx responses are
// permanent (auth/protocol/validation rejections do not improve by
// resending); transport errors and 5xx retry with backoff.
func (w *worker) post(path string, reqBody any, out any) error {
	body, err := json.Marshal(reqBody)
	if err != nil {
		return err
	}
	url := w.base + path
	return w.cfg.Retry.Do("fleet: "+w.name+" POST "+url, func() error {
		return obs.PostJSON(w.client, url, w.cfg.AuthToken, nil, body, out)
	})
}
