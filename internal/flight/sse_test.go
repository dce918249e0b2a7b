package flight

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// sseProbe is an http.ResponseWriter and http.Flusher that notes, at its
// first Flush, whether the recorder already holds a subscriber, and then
// ends the request.
type sseProbe struct {
	rec        *Recorder
	cancel     context.CancelFunc
	header     http.Header
	body       bytes.Buffer
	flushes    int
	subscribed bool
}

func (p *sseProbe) Header() http.Header         { return p.header }
func (p *sseProbe) Write(b []byte) (int, error) { return p.body.Write(b) }
func (p *sseProbe) WriteHeader(int)             {}

func (p *sseProbe) Flush() {
	p.flushes++
	if p.flushes == 1 {
		p.rec.mu.Lock()
		p.subscribed = len(p.rec.subs) > 0
		p.rec.mu.Unlock()
		p.cancel()
	}
}

// TestEventStreamSubscribesBeforePreamble is the regression for the SSE
// race: a client that has read the preamble may trigger a dossier at once,
// so the handler must be subscribed by the time the preamble is flushed —
// otherwise the writer fans that dossier out to nobody and it is lost.
func TestEventStreamSubscribesBeforePreamble(t *testing.T) {
	rec := New(Config{})
	defer rec.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &sseProbe{rec: rec, cancel: cancel, header: http.Header{}}
	rec.serveEvents(w, httptest.NewRequest(http.MethodGet, "/events", nil).WithContext(ctx))

	if w.flushes == 0 || !strings.HasPrefix(w.body.String(), ":") {
		t.Fatalf("no preamble flushed (%d flushes, body %q)", w.flushes, w.body.String())
	}
	if !w.subscribed {
		t.Fatal("preamble flushed before the handler subscribed")
	}
	rec.mu.Lock()
	left := len(rec.subs)
	rec.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d subscribers left after the request ended, want 0", left)
	}
}
