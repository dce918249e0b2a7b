package flight

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rtopex/internal/obs"
)

// ShipperConfig configures dossier shipping from a worker's spool to a
// fleet daemon's dossier store.
type ShipperConfig struct {
	// Addr is the daemon's address ("host:port" or "http://host:port");
	// the shipper POSTs to obs.DossierPushPath on it.
	Addr string
	// Source identifies this worker (the X-Rtopex-Dossier-Source header).
	Source string
	// AuthToken, when non-empty, is sent as a bearer Authorization header.
	AuthToken string
	// Timeout bounds one HTTP attempt (default 5s).
	Timeout time.Duration
	// Retry is the per-dossier retry schedule (zero value: 3 attempts).
	Retry obs.RetryPolicy
	// Client substitutes the HTTP client (tests).
	Client *http.Client
	// Logf, when non-nil, receives ship warnings.
	Logf func(format string, args ...any)
}

// Shipper pushes spooled dossiers to a fleet daemon over the existing
// authed push plane. It remembers what it has shipped, so periodic
// ShipNew calls send each dossier once; a dossier the daemon rejects
// permanently (4xx) is marked shipped and never resent.
type Shipper struct {
	cfg    ShipperConfig
	url    string
	client *http.Client

	mu      sync.Mutex
	shipped map[string]struct{} // spool file base names
	sent    int64
	failed  int64
}

// NewShipper builds a shipper for the daemon at cfg.Addr.
func NewShipper(cfg ShipperConfig) (*Shipper, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("flight: shipper needs a daemon address")
	}
	if cfg.Retry.Attempts < 1 {
		cfg.Retry.Attempts = 3
	}
	if cfg.Retry.Logf == nil {
		cfg.Retry.Logf = cfg.Logf
	}
	return &Shipper{
		cfg:     cfg,
		url:     obs.BaseURL(cfg.Addr) + obs.DossierPushPath,
		client:  obs.HTTPClient(cfg.Client, cfg.Timeout),
		shipped: map[string]struct{}{},
	}, nil
}

// ShipNew ships every not-yet-shipped dossier in the spool, oldest first,
// and returns how many were sent. A transport failure leaves the dossier
// unshipped for the next call; a permanent rejection consumes it.
func (s *Shipper) ShipNew(spool *Spool) (int, error) {
	if s == nil || spool == nil {
		return 0, nil
	}
	var firstErr error
	sent := 0
	for _, path := range spool.List() {
		name := filepath.Base(path)
		s.mu.Lock()
		_, done := s.shipped[name]
		s.mu.Unlock()
		if done {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			// Evicted between List and read: gone for good.
			if os.IsNotExist(err) {
				s.mark(name)
			}
			continue
		}
		// RetryPolicy.Do returns permanent errors unwrapped, so record
		// permanence where the attempt still carries the marker.
		permanent := false
		err = s.cfg.Retry.Do(fmt.Sprintf("flight: ship %s to %s", name, s.url), func() error {
			err := s.attempt(raw)
			if obs.IsPermanent(err) {
				permanent = true
			}
			return err
		})
		switch {
		case err == nil:
			s.mark(name)
			sent++
			s.mu.Lock()
			s.sent++
			s.mu.Unlock()
		case permanent:
			// The daemon rejected the document; resending cannot help.
			s.mark(name)
			s.noteFail(name, err)
		default:
			s.noteFail(name, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return sent, firstErr
}

func (s *Shipper) mark(name string) {
	s.mu.Lock()
	s.shipped[name] = struct{}{}
	s.mu.Unlock()
}

func (s *Shipper) noteFail(name string, err error) {
	s.mu.Lock()
	s.failed++
	s.mu.Unlock()
	if s.cfg.Logf != nil {
		s.cfg.Logf("flight: ship %s: %v", name, err)
	}
}

// Sent reports dossiers successfully shipped.
func (s *Shipper) Sent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent
}

func (s *Shipper) attempt(raw []byte) error {
	var header http.Header
	if s.cfg.Source != "" {
		header = http.Header{obs.DossierSourceHeader: {s.cfg.Source}}
	}
	return obs.PostJSON(s.client, s.url, s.cfg.AuthToken, header, raw, nil)
}

// StartPeriodic ships new dossiers every interval until the returned stop
// func is called; stop performs one final ship.
func (s *Shipper) StartPeriodic(spool *Spool, interval time.Duration) (stop func()) {
	if s == nil || spool == nil {
		return func() {}
	}
	ship := func() { _, _ = s.ShipNew(spool) }
	return obs.StartTicker(interval, ship, ship)
}
