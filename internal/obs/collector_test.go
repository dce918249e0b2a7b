package obs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func wireFor(t *testing.T, id string, seq uint64, final bool, reg *Registry) *WireSnapshot {
	t.Helper()
	return &WireSnapshot{
		Version:  WireVersion,
		Source:   Source{ID: id, Host: "h", PID: 1},
		Seq:      seq,
		Final:    final,
		Snapshot: reg.Snapshot(),
	}
}

// TestCollectorMergeMatchesInProcess: the collector's merged view over N
// pushed sources equals the registry one process would build merging the
// same registries directly.
func TestCollectorMergeMatchesInProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	col := NewCollector(CollectorConfig{})
	inProc := NewRegistry()
	for i := 0; i < 5; i++ {
		reg := randomRegistry(rng)
		inProc.Merge(reg)
		if _, err := col.Ingest(wireFor(t, fmt.Sprintf("src-%d", i), 1, false, reg)); err != nil {
			t.Fatal(err)
		}
	}
	if want, got := inProc.Snapshot(), col.Merged(); !reflect.DeepEqual(want, got) {
		t.Fatalf("merged view differs:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestCollectorDuplicateAndStalePushes: re-ingesting the same or an older
// seq refreshes liveness but never regresses the stored state.
func TestCollectorDuplicateAndStalePushes(t *testing.T) {
	col := NewCollector(CollectorConfig{})
	r1 := NewRegistry()
	r1.Counter("x_total").Add(1)
	r2 := NewRegistry()
	r2.Counter("x_total").Add(5)

	if applied, err := col.Ingest(wireFor(t, "w", 1, false, r1)); err != nil || !applied {
		t.Fatalf("first push: applied=%v err=%v", applied, err)
	}
	if applied, err := col.Ingest(wireFor(t, "w", 2, false, r2)); err != nil || !applied {
		t.Fatalf("second push: applied=%v err=%v", applied, err)
	}
	// A retried (duplicate seq) and an out-of-order (older seq) push are
	// both absorbed without changing state.
	for _, seq := range []uint64{2, 1} {
		if applied, err := col.Ingest(wireFor(t, "w", seq, false, r1)); err != nil || applied {
			t.Fatalf("seq %d: applied=%v err=%v, want ignored", seq, applied, err)
		}
	}
	if v, ok := col.Merged().CounterValue("x_total"); !ok || v != 5 {
		t.Fatalf("merged x_total = %d (ok=%v), want 5", v, ok)
	}
	srcs := col.Sources()
	if len(srcs) != 1 || srcs[0].Pushes != 4 || srcs[0].Duplicates != 2 || srcs[0].Seq != 2 {
		t.Fatalf("source status = %+v", srcs)
	}
}

// TestCollectorStaleEviction: silent non-final sources are evicted after
// the staleness window; final sources survive indefinitely.
func TestCollectorStaleEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	col := NewCollector(CollectorConfig{Stale: time.Minute, Now: func() time.Time { return now }})
	live := NewRegistry()
	live.Counter("live_total").Inc()
	dead := NewRegistry()
	dead.Counter("dead_total").Inc()
	done := NewRegistry()
	done.Counter("done_total").Inc()

	col.Ingest(wireFor(t, "dead", 1, false, dead))
	col.Ingest(wireFor(t, "done", 1, true, done))
	now = now.Add(45 * time.Second)
	col.Ingest(wireFor(t, "live", 1, false, live))

	// 45s later: "dead" is 90s silent (evicted), "live" 45s (kept),
	// "done" 90s silent but final (kept).
	now = now.Add(45 * time.Second)
	merged := col.Merged()
	if _, ok := merged.CounterValue("dead_total"); ok {
		t.Fatal("stale source not evicted from merge")
	}
	if _, ok := merged.CounterValue("live_total"); !ok {
		t.Fatal("fresh source evicted")
	}
	if _, ok := merged.CounterValue("done_total"); !ok {
		t.Fatal("final source evicted")
	}
	if col.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", col.Evicted())
	}
	// A re-push resurrects an evicted source.
	col.Ingest(wireFor(t, "dead", 2, false, dead))
	if _, ok := col.Merged().CounterValue("dead_total"); !ok {
		t.Fatal("re-pushed source missing")
	}
}

// TestCollectorHandlerPushAndScrape exercises the HTTP surface end to end:
// push via POST, scrape the merged /metrics, read /sources, / and /dump.
func TestCollectorHandlerPushAndScrape(t *testing.T) {
	col := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	reg := NewRegistry()
	reg.SetHelp("pushed_total", "Pushed.")
	reg.Counter("pushed_total").Add(3)
	var body bytes.Buffer
	if err := EncodeWire(&body, wireFor(t, "w1", 1, false, reg)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+PushPath, "application/json", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("push status = %d", resp.StatusCode)
	}

	code, metrics, hdr := get(t, srv, "/metrics")
	if code != http.StatusOK || hdr.Get("Content-Type") != ContentType {
		t.Fatalf("/metrics: code=%d type=%q", code, hdr.Get("Content-Type"))
	}
	if !strings.Contains(metrics, "# HELP pushed_total Pushed.") || !strings.Contains(metrics, "pushed_total 3") {
		t.Fatalf("/metrics body:\n%s", metrics)
	}

	if code, body, _ := get(t, srv, "/sources"); code != http.StatusOK || !strings.Contains(body, "w1") {
		t.Fatalf("/sources: code=%d body=%q", code, body)
	}
	if code, body, _ := get(t, srv, "/"); code != http.StatusOK || !strings.Contains(body, "1 source(s)") {
		t.Fatalf("dashboard: code=%d body=%q", code, body)
	}
	if code, body, _ := get(t, srv, "/dump"); code != http.StatusOK || !strings.Contains(body, `"wire_version"`) {
		t.Fatalf("/dump: code=%d body=%q", code, body)
	}

	// GET on /push is rejected; a malformed body is a 400 and leaves the
	// collector untouched.
	resp, err = http.Get(srv.URL + PushPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /push status = %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+PushPath, "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed push status = %d", resp.StatusCode)
	}
	if n := len(col.Sources()); n != 1 {
		t.Fatalf("sources after bad push = %d, want 1", n)
	}
}

// errAfterReader yields its prefix then fails, emulating a worker whose
// connection drops mid-push.
type errAfterReader struct {
	data []byte
	off  int
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, errors.New("connection reset mid-push")
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestCollectorDisconnectMidPush: a push whose body dies partway through
// must be rejected whole — no partial ingest, prior state intact.
func TestCollectorDisconnectMidPush(t *testing.T) {
	col := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	// Establish good state first.
	reg := NewRegistry()
	reg.Counter("x_total").Add(7)
	var good bytes.Buffer
	if err := EncodeWire(&good, wireFor(t, "w", 1, false, reg)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+PushPath, "application/json", bytes.NewReader(good.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Now a push that breaks after half the bytes. The client may see a
	// transport error or a non-200; either way the collector must not
	// apply it.
	reg2 := NewRegistry()
	reg2.Counter("x_total").Add(9999)
	var big bytes.Buffer
	if err := EncodeWire(&big, wireFor(t, "w", 2, false, reg2)); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+PushPath,
		&errAfterReader{data: big.Bytes()[:big.Len()/2]})
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(big.Len()) // promise more than will arrive
	if resp, err := http.DefaultClient.Do(req); err == nil {
		if resp.StatusCode == http.StatusOK {
			t.Fatal("mid-push disconnect returned 200")
		}
		resp.Body.Close()
	}

	if v, ok := col.Merged().CounterValue("x_total"); !ok || v != 7 {
		t.Fatalf("state after broken push: x_total = %d (ok=%v), want 7", v, ok)
	}
	srcs := col.Sources()
	if len(srcs) != 1 || srcs[0].Seq != 1 {
		t.Fatalf("source after broken push = %+v, want seq 1", srcs)
	}
}

// TestCollectorDumpRoundTrips: the archival dump carries the merged
// snapshot and ledger as JSON.
func TestCollectorDump(t *testing.T) {
	col := NewCollector(CollectorConfig{Now: func() time.Time { return time.Unix(5, 0) }})
	reg := NewRegistry()
	reg.Counter("n_total").Add(2)
	col.Ingest(wireFor(t, "w", 1, true, reg))
	var buf bytes.Buffer
	if err := col.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"wire_version": 1`, `"n_total"`, `"final": true`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("dump missing %q:\n%s", want, buf.String())
		}
	}
}

var _ io.Reader = (*errAfterReader)(nil)

// TestCollectorRejectsUnmergeablePush: envelopes the merge cannot hold — a
// negative counter, one family under two kinds, or a family whose kind
// differs from another source's — are rejected with 400 and store
// nothing, so the merged view (and /metrics, which renders it) keeps
// answering. A source may still change a family's kind in its own next
// push, since that replaces its previous state.
func TestCollectorRejectsUnmergeablePush(t *testing.T) {
	col := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()
	push := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+PushPath, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	env := func(id string, seq int, snap string) string {
		return fmt.Sprintf(`{"version":1,"source":{"id":%q},"seq":%d,"snapshot":%s}`, id, seq, snap)
	}
	for _, bad := range []string{
		env("evil", 1, `{"counters":[{"name":"x","value":-1}]}`),
		env("evil", 1, `{"counters":[{"name":"x","value":1}],"gauges":[{"name":"x","value":2}]}`),
		env("evil", 1, `{"gauges":[{"name":"x","value":1}],"histograms":[{"name":"x","value":{"count":0,"sum":0,"min":0,"max":0}}]}`),
	} {
		if code := push(bad); code != http.StatusBadRequest {
			t.Fatalf("push %s = %d, want 400", bad, code)
		}
	}
	if n := len(col.Sources()); n != 0 {
		t.Fatalf("rejected pushes stored %d source(s)", n)
	}

	if code := push(env("a", 1, `{"counters":[{"name":"x","value":3}]}`)); code != http.StatusOK {
		t.Fatalf("source a push = %d", code)
	}
	if code := push(env("b", 1, `{"gauges":[{"name":"x","value":2}]}`)); code != http.StatusBadRequest {
		t.Fatalf("source b re-kinding a's counter = %d, want 400", code)
	}
	if code, body, _ := get(t, srv, "/metrics"); code != http.StatusOK || !strings.Contains(body, "x 3") {
		t.Fatalf("/metrics after rejected pushes: code=%d body=%q", code, body)
	}
	if code := push(env("a", 2, `{"gauges":[{"name":"x","value":4}]}`)); code != http.StatusOK {
		t.Fatalf("source a re-kinding its own family = %d, want 200", code)
	}
	if v, ok := col.Merged().GaugeValue("x"); !ok || v != 4 {
		t.Fatalf("merged x = %v (ok=%v), want gauge 4", v, ok)
	}
}
