package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rtopex/internal/harness"
	"rtopex/internal/obs"
	"rtopex/internal/sweep"
)

// tinyOptions keeps fake units cheap while exercising seed derivation.
var tinyOptions = harness.Options{Subframes: 120, Samples: 3000, Seed: 11, Quick: true}

// tinyIDs is a small real-registry subset (the coordinator expands units
// from harness.Specs, so the ids must exist even under a fake runner).
var tinyIDs = []string{"fig1", "fig15", "table1"}

// fakeRun is a deterministic RunFunc: the table is a pure function of
// (id, options), so fleet and serial execution must emit identical bytes.
func fakeRun(id string, o harness.Options) (*harness.Table, error) {
	r := o.Resolve()
	tb := &harness.Table{ID: id, Title: "fake " + id, Columns: []string{"k", "v"}}
	tb.AddRow("seed", fmt.Sprintf("%d", r.Seed))
	tb.AddRow("subframes", fmt.Sprintf("%d", r.Subframes))
	return tb, nil
}

// fakeClock is an injectable coordinator clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// executeLease reproduces a lease's unit the way a worker would and returns
// its record's store line (no trailing newline).
func executeLease(t *testing.T, lease *WireLease) json.RawMessage {
	t.Helper()
	var spec harness.Spec
	for _, s := range harness.Specs() {
		if s.ID == lease.Experiment {
			spec = s
		}
	}
	if spec.ID == "" {
		t.Fatalf("lease for unknown experiment %q", lease.Experiment)
	}
	opts := lease.Config.Options()
	u := sweep.Unit{Spec: spec, Shard: lease.Shard, Replica: lease.Replica, Options: opts, Key: sweep.Key(lease.Experiment, opts.Resolve())}
	if u.Key != lease.Key {
		t.Fatalf("key mismatch: lease %s, local %s", lease.Key, u.Key)
	}
	rec, fail := sweep.ExecuteUnit(u, 0, fakeRun)
	if fail != nil {
		t.Fatalf("fake unit failed: %s", fail.Err)
	}
	line, err := rec.MarshalLine()
	if err != nil {
		t.Fatal(err)
	}
	return json.RawMessage(bytes.TrimSuffix(line, []byte("\n")))
}

// serialLines computes what a serial sweep.Run of the spec would store:
// every unit executed in-process through the same ExecuteUnit path.
func serialLines(t *testing.T, spec sweep.Config) []string {
	t.Helper()
	spec.StorePath = ""
	units, err := sweep.Units(spec)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, u := range units {
		rec, fail := sweep.ExecuteUnit(u, 0, fakeRun)
		if fail != nil {
			t.Fatalf("unit %s failed: %s", u.Spec.ID, fail.Err)
		}
		line, err := rec.MarshalLine()
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, strings.TrimSuffix(string(line), "\n"))
	}
	sort.Strings(lines)
	return lines
}

func sortedStoreLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(string(data), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	return lines
}

// TestFleetStoreMatchesSerial is the tentpole guarantee at unit-test
// scale: a RunLocal fleet (several workers racing over loopback HTTP)
// writes a store byte-identical, modulo line order, to serial execution.
func TestFleetStoreMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "fleet.jsonl")
	spec := sweep.Config{IDs: tinyIDs, Options: tinyOptions, Replicas: 2, StorePath: storePath}

	res, err := RunLocal(Config{Spec: spec}, 3, WorkerConfig{Parallel: 2, RunFn: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Failed != 0 || res.Summary.Done != res.Summary.Total {
		t.Fatalf("summary %+v, want all done", res.Summary)
	}
	want := serialLines(t, spec)
	got := sortedStoreLines(t, storePath)
	if len(got) != len(want) {
		t.Fatalf("store has %d lines, serial produced %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("store line %d differs:\nfleet:  %s\nserial: %s", i, got[i], want[i])
		}
	}
	var completed int
	for _, w := range res.Workers {
		completed += w.Completed
	}
	if completed != res.Summary.Total {
		t.Fatalf("workers completed %d units, want %d", completed, res.Summary.Total)
	}
	if len(res.Records) != res.Summary.Total {
		t.Fatalf("Records holds %d, want %d", len(res.Records), res.Summary.Total)
	}
}

// TestDeadWorkerReleased covers the crash path: a worker takes a lease and
// dies; after the TTL the unit is reclaimed and re-leased; the replacement
// completes it; the zombie's late byte-identical delivery is deduped. The
// unit ends with exactly one record.
func TestDeadWorkerReleased(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{
		Spec:     sweep.Config{IDs: []string{"fig15"}, Options: tinyOptions},
		LeaseTTL: time.Second,
		Now:      clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r1, err := c.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "dead"})
	if err != nil || r1.Status != StatusLease {
		t.Fatalf("first lease: %v %+v", err, r1)
	}
	// "dead" never heartbeats. Before expiry, the unit is not re-leasable.
	clock.Advance(500 * time.Millisecond)
	if r, _ := c.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "live"}); r.Status != StatusWait {
		t.Fatalf("pre-expiry lease got %q, want wait", r.Status)
	}
	clock.Advance(600 * time.Millisecond)
	r2, err := c.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "live"})
	if err != nil || r2.Status != StatusLease {
		t.Fatalf("post-expiry lease: %v %+v", err, r2)
	}
	if r2.Lease.Key != r1.Lease.Key || r2.Lease.ID == r1.Lease.ID {
		t.Fatalf("re-lease should cover the same unit under a new id: %+v vs %+v", r1.Lease, r2.Lease)
	}

	line := executeLease(t, r2.Lease)
	cr, err := c.Complete(CompleteRequest{Protocol: ProtocolVersion, Worker: "live", LeaseID: r2.Lease.ID, Record: line})
	if err != nil || cr.Status != StatusOK {
		t.Fatalf("completion: %v %+v", err, cr)
	}
	select {
	case <-c.doneCh:
	default:
		t.Fatal("sweep should be resolved")
	}

	// The zombie finishes too and delivers the identical bytes.
	zr, err := c.Complete(CompleteRequest{Protocol: ProtocolVersion, Worker: "dead", LeaseID: r1.Lease.ID, Record: line})
	if err != nil || zr.Status != StatusDuplicate {
		t.Fatalf("zombie completion: %v %+v, want duplicate", err, zr)
	}

	s := c.Summary()
	if s.Done != 1 || s.Failed != 0 || s.Reclaims != 1 || s.Duplicates != 1 || s.Leases != 2 {
		t.Fatalf("summary %+v", s)
	}
	if len(c.Records()) != 1 {
		t.Fatalf("%d records after crash+re-lease, want exactly 1", len(c.Records()))
	}
}

// TestZombieConflictingRecord pins the safety rail behind the dedup: a
// zombie delivering different bytes for an already-recorded key is an
// error, never a silent overwrite.
func TestZombieConflictingRecord(t *testing.T) {
	c, err := NewCoordinator(Config{Spec: sweep.Config{IDs: []string{"fig15"}, Options: tinyOptions}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "w"})
	if err != nil || r.Status != StatusLease {
		t.Fatalf("lease: %v %+v", err, r)
	}
	line := executeLease(t, r.Lease)
	if cr, err := c.Complete(CompleteRequest{Protocol: ProtocolVersion, Worker: "w", LeaseID: r.Lease.ID, Record: line}); err != nil || cr.Status != StatusOK {
		t.Fatalf("completion: %v %+v", err, cr)
	}
	// Same key, different table bytes.
	var rec sweep.Record
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatal(err)
	}
	rec.Table.Title = "tampered"
	forged, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete(CompleteRequest{Protocol: ProtocolVersion, Worker: "zombie", LeaseID: r.Lease.ID, Record: forged}); err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Fatalf("conflicting zombie record accepted: %v", err)
	}
}

// TestHeartbeatExtendsLease: heartbeats within the TTL keep a slow unit
// leased; silence past the TTL reclaims it and later heartbeats for the
// stale id come back rejected.
func TestHeartbeatExtendsLease(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{
		Spec:     sweep.Config{IDs: []string{"fig15"}, Options: tinyOptions},
		LeaseTTL: time.Second,
		Now:      clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, _ := c.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "slow"})
	if r.Status != StatusLease {
		t.Fatalf("lease status %q", r.Status)
	}
	id := r.Lease.ID
	// Two renewal cycles, each inside the TTL but past the original expiry.
	for i := 0; i < 2; i++ {
		clock.Advance(700 * time.Millisecond)
		hb, err := c.Heartbeat(HeartbeatRequest{Protocol: ProtocolVersion, Worker: "slow", LeaseIDs: []string{id}})
		if err != nil || len(hb.Rejected) != 0 {
			t.Fatalf("heartbeat %d: %v %+v", i, err, hb)
		}
		if lr, _ := c.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "other"}); lr.Status != StatusWait {
			t.Fatalf("heartbeat did not hold the lease: poacher got %q", lr.Status)
		}
	}
	if s := c.Summary(); s.Reclaims != 0 {
		t.Fatalf("%d reclaims despite heartbeats", s.Reclaims)
	}
	// Now go silent past the TTL: the unit is reclaimed, and the stale
	// lease id is rejected on the next renewal attempt.
	clock.Advance(1100 * time.Millisecond)
	if lr, _ := c.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "other"}); lr.Status != StatusLease {
		t.Fatalf("expired unit not re-leased: %q", lr.Status)
	}
	hb, err := c.Heartbeat(HeartbeatRequest{Protocol: ProtocolVersion, Worker: "slow", LeaseIDs: []string{id}})
	if err != nil || len(hb.Rejected) != 1 || hb.Rejected[0] != id {
		t.Fatalf("stale heartbeat: %v %+v, want %s rejected", err, hb, id)
	}
}

// TestAttemptCapFailsUnit: a unit whose leases keep expiring fails
// permanently on the MaxAttempts-th loss, resolving the sweep instead of
// spinning it forever.
func TestAttemptCapFailsUnit(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{
		Spec:        sweep.Config{IDs: []string{"fig15"}, Options: tinyOptions},
		LeaseTTL:    time.Second,
		MaxAttempts: 2,
		Now:         clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 2; i++ {
		r, _ := c.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "flaky"})
		if r.Status != StatusLease {
			t.Fatalf("attempt %d: status %q", i+1, r.Status)
		}
		clock.Advance(1100 * time.Millisecond)
	}
	// The second expiry is observed by this request, which must see the
	// sweep resolved (unit failed at the cap), not grant a third lease.
	if r, _ := c.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "flaky"}); r.Status != StatusDone {
		t.Fatalf("post-cap lease got %q, want done", r.Status)
	}
	if err := c.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	s := c.Summary()
	if s.Failed != 1 || len(s.Failures) != 1 || !s.Failures[0].TimedOut {
		t.Fatalf("summary %+v, want one timed-out failure", s)
	}
	if !strings.Contains(s.Failures[0].Err, "attempt cap") {
		t.Fatalf("failure %q does not mention the attempt cap", s.Failures[0].Err)
	}
}

// TestWorkerTimeoutReleasesThenCaps: a worker-reported unit timeout
// releases the unit for re-lease; once the attempt budget is spent the
// same report fails it permanently.
func TestWorkerTimeoutReleasesThenCaps(t *testing.T) {
	c, err := NewCoordinator(Config{
		Spec:        sweep.Config{IDs: []string{"fig15"}, Options: tinyOptions, Timeout: time.Minute},
		MaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r1, _ := c.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "w"})
	if r1.Lease.TimeoutMillis != time.Minute.Milliseconds() {
		t.Fatalf("lease timeout %dms, want the spec's", r1.Lease.TimeoutMillis)
	}
	fr, err := c.Fail(FailRequest{Protocol: ProtocolVersion, Worker: "w", LeaseID: r1.Lease.ID, Key: r1.Lease.Key, Err: "no result within 1m0s", TimedOut: true})
	if err != nil || fr.Status != StatusReleased {
		t.Fatalf("first timeout: %v %+v, want released", err, fr)
	}
	r2, _ := c.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "w"})
	if r2.Status != StatusLease || r2.Lease.Key != r1.Lease.Key {
		t.Fatalf("released unit not re-leased: %+v", r2)
	}
	fr, err = c.Fail(FailRequest{Protocol: ProtocolVersion, Worker: "w", LeaseID: r2.Lease.ID, Key: r2.Lease.Key, Err: "no result within 1m0s", TimedOut: true})
	if err != nil || fr.Status != StatusFailed {
		t.Fatalf("capped timeout: %v %+v, want failed", err, fr)
	}
	if err := c.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	if s := c.Summary(); s.Releases != 2 || s.Failed != 1 {
		t.Fatalf("summary %+v, want 2 releases and 1 failure", s)
	}
}

// TestStaleFailIgnored: after a reclaim, the original holder's failure
// report must not clobber the current lease.
func TestStaleFailIgnored(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{
		Spec:     sweep.Config{IDs: []string{"fig15"}, Options: tinyOptions},
		LeaseTTL: time.Second,
		Now:      clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r1, _ := c.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "old"})
	clock.Advance(1100 * time.Millisecond)
	r2, _ := c.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "new"})
	if r2.Status != StatusLease {
		t.Fatalf("re-lease status %q", r2.Status)
	}
	fr, err := c.Fail(FailRequest{Protocol: ProtocolVersion, Worker: "old", LeaseID: r1.Lease.ID, Key: r1.Lease.Key, Err: "boom"})
	if err != nil || fr.Status != StatusIgnored {
		t.Fatalf("stale fail: %v %+v, want ignored", err, fr)
	}
	line := executeLease(t, r2.Lease)
	if cr, err := c.Complete(CompleteRequest{Protocol: ProtocolVersion, Worker: "new", LeaseID: r2.Lease.ID, Record: line}); err != nil || cr.Status != StatusOK {
		t.Fatalf("current holder's completion: %v %+v", err, cr)
	}
}

// TestPermanentFailure: non-timeout errors are terminal (the experiments
// are deterministic; retrying buys the same answer).
func TestPermanentFailure(t *testing.T) {
	c, err := NewCoordinator(Config{Spec: sweep.Config{IDs: []string{"fig15"}, Options: tinyOptions}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, _ := c.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "w"})
	fr, err := c.Fail(FailRequest{Protocol: ProtocolVersion, Worker: "w", LeaseID: r.Lease.ID, Key: r.Lease.Key, Err: "panic: boom"})
	if err != nil || fr.Status != StatusFailed {
		t.Fatalf("fail: %v %+v", err, fr)
	}
	if err := c.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	s := c.Summary()
	if s.Failed != 1 || len(s.Failures) != 1 || s.Failures[0].TimedOut {
		t.Fatalf("summary %+v", s)
	}
	if !strings.Contains(s.Failures[0].Err, "panic: boom") || !strings.Contains(s.Failures[0].Err, "worker w") {
		t.Fatalf("failure %q lost the worker's error", s.Failures[0].Err)
	}
}

// TestProtocolVersionRejected: a version-skewed client is refused before
// any state changes.
func TestProtocolVersionRejected(t *testing.T) {
	c, err := NewCoordinator(Config{Spec: sweep.Config{IDs: []string{"fig15"}, Options: tinyOptions}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Lease(LeaseRequest{Protocol: ProtocolVersion + 1, Worker: "w"}); err == nil {
		t.Fatal("wrong protocol version accepted")
	}
	if s := c.Summary(); s.Leases != 0 {
		t.Fatalf("rejected request granted a lease: %+v", s)
	}
}

// TestCoordinatorResume: a second coordinator over the finished store
// reuses every record without leasing, and its store is unchanged — the
// same restart semantics sweep.Run's -resume has.
func TestCoordinatorResume(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "fleet.jsonl")
	spec := sweep.Config{IDs: tinyIDs, Options: tinyOptions, StorePath: storePath}

	res, err := RunLocal(Config{Spec: spec}, 2, WorkerConfig{RunFn: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	first := sortedStoreLines(t, storePath)
	if len(first) != res.Summary.Total {
		t.Fatalf("first pass stored %d lines for %d units", len(first), res.Summary.Total)
	}

	spec.Resume = true
	c, err := NewCoordinator(Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Summary()
	if s.Reused != s.Total || s.Done != s.Total {
		t.Fatalf("resume summary %+v, want everything reused", s)
	}
	select {
	case <-c.doneCh:
	default:
		t.Fatal("fully-resumed sweep should be born resolved")
	}
	if r, _ := c.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "w"}); r.Status != StatusDone {
		t.Fatalf("resumed coordinator leased a unit: %+v", r)
	}
	if len(c.Records()) != s.Total {
		t.Fatalf("resumed coordinator holds %d records, want %d", len(c.Records()), s.Total)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if second := sortedStoreLines(t, storePath); len(second) != len(first) {
		t.Fatalf("resume rewrite changed the store: %d lines vs %d", len(second), len(first))
	} else {
		for i := range first {
			if second[i] != first[i] {
				t.Fatalf("resume rewrite changed line %d", i)
			}
		}
	}
}

// TestCoordinatorRestartMidSweep: a coordinator killed mid-sweep restarts
// with -resume, reuses the finished units and leases only the remainder;
// the merged store still matches serial execution.
func TestCoordinatorRestartMidSweep(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "fleet.jsonl")
	spec := sweep.Config{IDs: tinyIDs, Options: tinyOptions, StorePath: storePath}

	c1, err := NewCoordinator(Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	// Complete exactly one unit, then "crash" (close without resolving).
	r, _ := c1.Lease(LeaseRequest{Protocol: ProtocolVersion, Worker: "w"})
	if r.Status != StatusLease {
		t.Fatalf("lease status %q", r.Status)
	}
	if cr, err := c1.Complete(CompleteRequest{Protocol: ProtocolVersion, Worker: "w", LeaseID: r.Lease.ID, Record: executeLease(t, r.Lease)}); err != nil || cr.Status != StatusOK {
		t.Fatalf("completion: %v %+v", err, cr)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	spec.Resume = true
	res, err := RunLocal(Config{Spec: spec}, 2, WorkerConfig{RunFn: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Reused != 1 || res.Summary.Done != res.Summary.Total || res.Summary.Leases != int64(res.Summary.Total-1) {
		t.Fatalf("restart summary %+v, want 1 reused and the rest leased", res.Summary)
	}
	want := serialLines(t, spec)
	got := sortedStoreLines(t, storePath)
	if len(got) != len(want) {
		t.Fatalf("restarted store has %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restarted store line %d differs", i)
		}
	}
}

// TestRunLocalWithFaultyUnits drives the full worker loop (real loopback
// HTTP, bearer auth, heartbeats) against a runner that times out on one
// experiment: the unit is released, retried on fresh leases, and failed at
// the attempt cap while every other unit completes.
func TestRunLocalWithFaultyUnits(t *testing.T) {
	slowRun := func(id string, o harness.Options) (*harness.Table, error) {
		if id == "fig15" {
			time.Sleep(200 * time.Millisecond)
		}
		return fakeRun(id, o)
	}
	res, err := RunLocal(Config{
		Spec:        sweep.Config{IDs: tinyIDs, Options: tinyOptions, Timeout: 20 * time.Millisecond},
		MaxAttempts: 2,
	}, 2, WorkerConfig{
		AuthToken: "fleet-secret",
		RunFn:     slowRun,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.Failed != 1 || s.Done != s.Total-1 {
		t.Fatalf("summary %+v, want exactly fig15 failed", s)
	}
	if len(s.Failures) != 1 || s.Failures[0].Unit.Spec.ID != "fig15" || !s.Failures[0].TimedOut {
		t.Fatalf("failures %+v", s.Failures)
	}
	if s.Releases != 1 {
		// First timeout releases; the second hits the cap (counted in
		// Releases too, by the Fail path's release counter).
		if s.Releases != 2 {
			t.Fatalf("releases %d, want the timeout re-lease cycle", s.Releases)
		}
	}
	var failed int
	for _, w := range res.Workers {
		failed += w.Failed
	}
	if failed != 2 {
		t.Fatalf("workers reported %d failures, want 2 (one per attempt)", failed)
	}
}

// TestWorkerRejectsWrongToken: a worker with the wrong bearer token is
// refused permanently (401 is a 4xx), without burning the retry budget.
func TestWorkerRejectsWrongToken(t *testing.T) {
	c, err := NewCoordinator(Config{Spec: sweep.Config{IDs: []string{"fig15"}, Options: tinyOptions}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: obs.BearerAuth("right-token", c.Handler())}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	attempts := 0
	_, err = RunWorker(WorkerConfig{
		Coordinator: ln.Addr().String(),
		Name:        "intruder",
		AuthToken:   "wrong-token",
		RunFn:       fakeRun,
		Retry: obs.RetryPolicy{
			Attempts: 5,
			Backoff:  time.Millisecond,
			Sleep:    func(time.Duration) { attempts++ },
		},
	})
	if err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("wrong token: %v, want a 401 rejection", err)
	}
	if attempts != 0 {
		t.Fatalf("client retried a 401 %d times; 4xx must be permanent", attempts)
	}
	if s := c.Summary(); s.Leases != 0 {
		t.Fatalf("unauthenticated request reached the coordinator: %+v", s)
	}
}

// TestWorkerPostRetries5xx: a 503 from the coordinator is retried under the
// worker's RetryPolicy, every attempt carrying the same request bytes.
func TestWorkerPostRetries5xx(t *testing.T) {
	var bodies []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		bodies = append(bodies, string(body))
		if len(bodies) <= 2 {
			http.Error(w, "restarting", http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(LeaseResponse{Status: StatusDone})
	}))
	defer srv.Close()
	slept := 0
	w := &worker{
		cfg:    WorkerConfig{Retry: obs.RetryPolicy{Attempts: 5, Sleep: func(time.Duration) { slept++ }}},
		base:   srv.URL,
		client: srv.Client(),
		name:   "w",
	}
	var resp LeaseResponse
	if err := w.post(LeasePath, LeaseRequest{Protocol: ProtocolVersion, Worker: "w"}, &resp); err != nil || resp.Status != StatusDone {
		t.Fatalf("post through two 503s: %v %+v", err, resp)
	}
	if slept != 2 || len(bodies) != 3 || bodies[0] == "" || bodies[1] != bodies[0] || bodies[2] != bodies[0] {
		t.Fatalf("%d backoffs, bodies %q; want 2 backoffs and three identical requests", slept, bodies)
	}
}

// TestWorkerRefusesKeyMismatch: a lease whose key the local build cannot
// reproduce (version skew) is failed permanently, not executed.
func TestWorkerRefusesKeyMismatch(t *testing.T) {
	w := &worker{cfg: WorkerConfig{}, name: "w"}
	lease := &WireLease{
		ID:         "L1",
		Key:        "not-the-real-key",
		Experiment: "fig15",
		Config:     tinyOptions.Resolve(),
	}
	if _, err := w.unitFromLease(lease); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("key mismatch accepted: %v", err)
	}
	lease.Experiment = "no-such-experiment"
	if _, err := w.unitFromLease(lease); err == nil || !strings.Contains(err.Error(), "registry") {
		t.Fatalf("unknown experiment accepted: %v", err)
	}
}
