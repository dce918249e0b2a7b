package obs

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// PushPath is the collector endpoint wire snapshots are POSTed to.
const PushPath = "/push"

// PusherConfig configures a push client.
type PusherConfig struct {
	// Addr is the collector's address ("host:port" or "http://host:port").
	Addr string
	// Source identifies this process; zero means DefaultSource().
	Source Source
	// Timeout bounds one HTTP attempt (default 5s).
	Timeout time.Duration
	// Retries is the number of re-attempts after a failed push (default 3).
	// Network errors and 5xx responses are retried; 4xx responses are not —
	// a rejected envelope will not improve by resending.
	Retries int
	// Backoff is the initial retry delay, doubling per attempt and capped
	// at 1s (default 100ms).
	Backoff time.Duration
	// AuthToken, when non-empty, is sent as a bearer Authorization header
	// with every push (the collector's -auth-token).
	AuthToken string
	// Client substitutes the HTTP client (tests); nil builds one from
	// Timeout.
	Client *http.Client
	// Logf, when non-nil, receives transient push warnings (retries).
	Logf func(format string, args ...any)
}

// Pusher streams registry snapshots to a collector with bounded
// retry/backoff. Pushes are serialized by an internal mutex so sequence
// numbers and snapshot states leave in a consistent order — a later push
// always carries a superset of a former one's counts. All methods are
// no-ops on a nil receiver, so call sites can wire an optional pusher
// without branching.
type Pusher struct {
	mu     sync.Mutex
	cfg    PusherConfig
	url    string
	client *http.Client
	seq    uint64
}

// NewPusher builds a push client for the collector at cfg.Addr.
func NewPusher(cfg PusherConfig) (*Pusher, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("obs: pusher needs a collector address")
	}
	if cfg.Source.ID == "" {
		cfg.Source = DefaultSource(cfg.Source.Labels...)
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	return &Pusher{cfg: cfg, url: BaseURL(cfg.Addr) + PushPath, client: HTTPClient(cfg.Client, cfg.Timeout)}, nil
}

// Push snapshots reg and sends it. Nil receiver or nil registry is a no-op.
func (p *Pusher) Push(reg *Registry) error { return p.push(reg, false) }

// PushFinal sends reg's state marked final: the collector keeps a final
// source even past the staleness window, since no further pushes are
// expected from it.
func (p *Pusher) PushFinal(reg *Registry) error { return p.push(reg, true) }

func (p *Pusher) push(reg *Registry, final bool) error {
	if p == nil || reg == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	ws := &WireSnapshot{Source: p.cfg.Source, Seq: p.seq, Final: final, Snapshot: reg.Snapshot()}
	var body bytes.Buffer
	if err := EncodeWire(&body, ws); err != nil {
		return err
	}
	// The body is encoded once and resent verbatim, so a retry after a lost
	// response carries the same seq and the collector deduplicates it.
	policy := RetryPolicy{
		Attempts: p.cfg.Retries + 1,
		Backoff:  p.cfg.Backoff,
		Logf:     p.cfg.Logf,
	}
	return policy.Do(fmt.Sprintf("obs: push to %s", p.url), func() error {
		return p.attempt(body.Bytes())
	})
}

func (p *Pusher) attempt(body []byte) error {
	err := PostJSON(p.client, p.url, p.cfg.AuthToken, nil, body, nil)
	if IsPermanent(err) {
		// A rejected envelope will not improve by resending.
		return Permanent(fmt.Errorf("obs: push to %s rejected: %v", p.url, err))
	}
	return err
}

// StartPeriodic pushes reg every interval until the returned stop func is
// called; stop sends one last final push and returns its error. Periodic
// push errors are transient (the next tick retries from current state) and
// reported via Logf only.
func (p *Pusher) StartPeriodic(reg *Registry, interval time.Duration) (stop func() error) {
	if p == nil || reg == nil {
		return func() error { return nil }
	}
	var finalErr error
	stopTicker := StartTicker(interval, func() {
		if err := p.Push(reg); err != nil && p.cfg.Logf != nil {
			p.cfg.Logf("%v", err)
		}
	}, func() { finalErr = p.PushFinal(reg) })
	return func() error {
		stopTicker()
		return finalErr
	}
}
