package obs

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testPusher(t *testing.T, url string, retries int) *Pusher {
	t.Helper()
	p, err := NewPusher(PusherConfig{
		Addr:    url,
		Source:  Source{ID: "test-src"},
		Retries: retries,
		Backoff: time.Millisecond,
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPusherDeliversToCollector: pushes land, seqs increase, final marks
// the source done.
func TestPusherDeliversToCollector(t *testing.T) {
	col := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	reg := NewRegistry()
	c := reg.Counter("work_total")
	p := testPusher(t, srv.URL, 1)

	c.Add(3)
	if err := p.Push(reg); err != nil {
		t.Fatal(err)
	}
	c.Add(4)
	if err := p.PushFinal(reg); err != nil {
		t.Fatal(err)
	}

	if v, ok := col.Merged().CounterValue("work_total"); !ok || v != 7 {
		t.Fatalf("merged work_total = %d (ok=%v), want 7", v, ok)
	}
	srcs := col.Sources()
	if len(srcs) != 1 || srcs[0].Seq != 2 || !srcs[0].Final {
		t.Fatalf("sources = %+v, want one final source at seq 2", srcs)
	}
}

// TestPusherAuth: a pusher with the collector's token gets through the
// BearerAuth gate; one without is rejected permanently (401, no retries).
func TestPusherAuth(t *testing.T) {
	col := NewCollector(CollectorConfig{})
	var requests atomic.Int64
	authed := BearerAuth("s3cret", col.Handler())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		authed.ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := NewRegistry()
	reg.Counter("work_total").Add(5)

	good, err := NewPusher(PusherConfig{
		Addr: srv.URL, Source: Source{ID: "good"}, AuthToken: "s3cret",
		Retries: 1, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Push(reg); err != nil {
		t.Fatal(err)
	}
	if v, ok := col.Merged().CounterValue("work_total"); !ok || v != 5 {
		t.Fatalf("merged work_total = %d (ok=%v), want 5", v, ok)
	}

	bad, err := NewPusher(PusherConfig{
		Addr: srv.URL, Source: Source{ID: "bad"}, AuthToken: "wrong",
		Retries: 3, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	requests.Store(0)
	err = bad.Push(reg)
	if err == nil || !strings.Contains(err.Error(), "rejected") || !strings.Contains(err.Error(), "401") {
		t.Fatalf("wrong token pushed: %v", err)
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("401 was sent %d times, want 1 (permanent, no retry)", got)
	}
	if srcs := col.Sources(); len(srcs) != 1 {
		t.Fatalf("unauthenticated push reached the collector: %+v", srcs)
	}
}

// TestPusherRetriesOn5xx: transient server errors are retried with backoff
// until one attempt lands, and every attempt resends the same bytes (hence
// the same seq).
func TestPusherRetriesOn5xx(t *testing.T) {
	var attempts atomic.Int64
	var mu sync.Mutex
	var bodies []string
	col := NewCollector(CollectorConfig{})
	inner := col.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(body))
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		if attempts.Add(1) <= 2 {
			http.Error(w, "try later", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := NewRegistry()
	reg.Counter("x_total").Inc()
	if err := testPusher(t, srv.URL, 3).Push(reg); err != nil {
		t.Fatalf("push should have survived two 503s: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if bodies[0] == "" || bodies[1] != bodies[0] || bodies[2] != bodies[0] {
		t.Fatalf("retries resent different bodies:\n%q", bodies)
	}
	if v, ok := col.Merged().CounterValue("x_total"); !ok || v != 1 {
		t.Fatalf("merged x_total = %d (ok=%v), want 1", v, ok)
	}
}

// TestPusherGivesUpAfterRetries: the retry budget is bounded.
func TestPusherGivesUpAfterRetries(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	err := testPusher(t, srv.URL, 2).Push(NewRegistry())
	if err == nil || !strings.Contains(err.Error(), "after 3 attempt(s)") {
		t.Fatalf("err = %v, want failure after 3 attempts", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

// TestPusherNoRetryOn4xx: a rejected envelope is not resent.
func TestPusherNoRetryOn4xx(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "bad envelope", http.StatusBadRequest)
	}))
	defer srv.Close()
	err := testPusher(t, srv.URL, 5).Push(NewRegistry())
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("err = %v, want rejection", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry on 4xx)", got)
	}
}

// TestPusherRetryIdempotence: a retry after a lost response re-sends the
// same seq, which the collector deduplicates — total counts stay exact.
func TestPusherRetryIdempotence(t *testing.T) {
	var attempts atomic.Int64
	col := NewCollector(CollectorConfig{})
	inner := col.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// First attempt: the collector ingests, but the response is lost
		// (emulated by a 500 AFTER ingest).
		if attempts.Add(1) == 1 {
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			http.Error(w, "response lost", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := NewRegistry()
	reg.Counter("exact_total").Add(11)
	if err := testPusher(t, srv.URL, 2).Push(reg); err != nil {
		t.Fatal(err)
	}
	if v, _ := col.Merged().CounterValue("exact_total"); v != 11 {
		t.Fatalf("merged exact_total = %d, want 11 (duplicate push double-counted?)", v)
	}
	srcs := col.Sources()
	if len(srcs) != 1 || srcs[0].Duplicates != 1 {
		t.Fatalf("sources = %+v, want 1 duplicate recorded", srcs)
	}
}

// TestPusherConcurrentPushesOrdered: concurrent pushes serialize, so the
// collector's final state is the registry's final state.
func TestPusherConcurrentPushesOrdered(t *testing.T) {
	col := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	reg := NewRegistry()
	c := reg.Counter("n_total")
	p := testPusher(t, srv.URL, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Inc()
			if err := p.Push(reg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := p.PushFinal(reg); err != nil {
		t.Fatal(err)
	}
	if v, _ := col.Merged().CounterValue("n_total"); v != 8 {
		t.Fatalf("merged n_total = %d, want 8", v)
	}
}

// TestStartPeriodic: the background loop pushes on its interval and stop
// flushes a final snapshot.
func TestStartPeriodic(t *testing.T) {
	col := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	reg := NewRegistry()
	reg.Counter("beat_total").Inc()
	p := testPusher(t, srv.URL, 1)
	stop := p.StartPeriodic(reg, 10*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for len(col.Sources()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // idempotent
		t.Fatal(err)
	}
	srcs := col.Sources()
	if len(srcs) != 1 || !srcs[0].Final {
		t.Fatalf("sources after stop = %+v, want one final source", srcs)
	}
	if v, _ := col.Merged().CounterValue("beat_total"); v != 1 {
		t.Fatalf("beat_total = %d, want 1", v)
	}
}

// TestNilPusherIsNoOp: optional wiring must not branch at call sites.
func TestNilPusherIsNoOp(t *testing.T) {
	var p *Pusher
	if err := p.Push(NewRegistry()); err != nil {
		t.Fatal(err)
	}
	if err := p.PushFinal(nil); err != nil {
		t.Fatal(err)
	}
	if err := p.StartPeriodic(nil, time.Second)(); err != nil {
		t.Fatal(err)
	}
}
