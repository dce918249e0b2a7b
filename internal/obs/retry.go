package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// RetryPolicy is the bounded-retry/backoff schedule shared by every HTTP
// client in the fleet: the push client (Pusher) and the sweep-fleet lease
// client both drive their attempts through it, so "how a worker survives a
// flaky coordinator" is defined in exactly one place.
//
// The schedule: up to Attempts tries, sleeping Backoff before the first
// retry and doubling per retry up to Cap. An attempt that returns an error
// wrapped by Permanent stops the loop immediately — resending will not
// change the answer (the pusher maps HTTP 4xx here).
type RetryPolicy struct {
	// Attempts is the total number of tries (first attempt included);
	// values < 1 mean 1.
	Attempts int
	// Backoff is the delay before the first retry, doubling per retry
	// (default 100ms).
	Backoff time.Duration
	// Cap bounds the grown backoff (default 1s).
	Cap time.Duration
	// Sleep substitutes the delay function (tests); nil means time.Sleep.
	Sleep func(time.Duration)
	// Logf, when non-nil, receives one line per transient failure.
	Logf func(format string, args ...any)
}

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so RetryPolicy.Do stops retrying and returns it
// (unwrapped) at once. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err carries the Permanent marker.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Do runs attempt under the policy. On success it returns nil; on a
// permanent error it returns that error immediately (unwrapped); when the
// budget is exhausted it returns the last error annotated with the attempt
// count. desc names the operation in log lines and the final error.
func (p RetryPolicy) Do(desc string, attempt func() error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := p.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	cap := p.Cap
	if cap <= 0 {
		cap = time.Second
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		err := attempt()
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
		lastErr = err
		if i < attempts-1 {
			if p.Logf != nil {
				p.Logf("%s attempt %d/%d failed (%v), retrying in %s", desc, i+1, attempts, err, backoff)
			}
			sleep(backoff)
			backoff *= 2
			if backoff > cap {
				backoff = cap
			}
		}
	}
	return fmt.Errorf("%s failed after %d attempt(s): %v", desc, attempts, lastErr)
}

// BaseURL normalizes a daemon address ("host:port" or "http://host:port/")
// into the URL prefix a request path is appended to.
func BaseURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/")
}

// HTTPClient returns c, or when c is nil a client that bounds one attempt
// by timeout (≤ 0 means 5s).
func HTTPClient(c *http.Client, timeout time.Duration) *http.Client {
	if c != nil {
		return c
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &http.Client{Timeout: timeout}
}

// PostJSON is one attempt of the fleet's authenticated JSON POST, shaped
// for RetryPolicy.Do: transport errors and 5xx answers come back plain (to
// be retried), 4xx answers wrapped by Permanent — a rejected request will
// not improve by resending. header carries extra request headers (may be
// nil); a non-nil out receives the decoded 200 response.
func PostJSON(client *http.Client, url, authToken string, header http.Header, body []byte, out any) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return Permanent(err)
	}
	for k, v := range header {
		req.Header[k] = v
	}
	req.Header.Set("Content-Type", "application/json")
	AuthHeader(req, authToken)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return Permanent(err)
		}
		return err
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// StartTicker calls tick every interval (≤ 0 means 2s) on its own
// goroutine until the returned stop is called. stop waits for the loop to
// exit, then runs final once; later calls wait for that and do nothing.
func StartTicker(interval time.Duration, tick, final func()) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				tick()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
			final()
		})
	}
}
