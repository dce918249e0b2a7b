package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// Ingest wraps a Store with content-hash dedup: the merge point a
// distributed sweep funnels worker results through. The first record per
// key wins and is appended; a later record with the same key and identical
// canonical bytes is counted as a duplicate and dropped (the re-leased-
// then-zombie-completes case — records are deterministic, so both copies
// are byte-identical); a later record with the same key but different
// bytes is an error (two workers disagree on a deterministic artifact,
// which means version skew or corruption, never a race to tolerate).
//
// sweep.Run itself writes through an Ingest too, so a single-process sweep
// has the same structural guarantee: one record per key, no matter what a
// timed-out unit's abandoned goroutine does afterwards.
type Ingest struct {
	mu    sync.Mutex
	store *Store
	seen  map[string]string // artifact key → hex content hash
}

// NewIngest wraps store. prior records (a resumed store's survivors) are
// registered and re-appended via Add, so the rewritten store starts on a
// clean line boundary with dedup state primed.
func NewIngest(store *Store, prior []*Record) (*Ingest, error) {
	in := &Ingest{store: store, seen: make(map[string]string, len(prior))}
	for _, r := range prior {
		if _, err := in.Add(r); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// Add appends r unless its key is already present. Returns whether the
// record was appended; a same-key-different-content collision is an error.
func (in *Ingest) Add(r *Record) (added bool, err error) {
	line, err := r.MarshalLine()
	if err != nil {
		return false, err
	}
	sum := sha256.Sum256(line)
	hash := hex.EncodeToString(sum[:8])
	in.mu.Lock()
	defer in.mu.Unlock()
	if prev, ok := in.seen[r.Key]; ok {
		if prev != hash {
			return false, fmt.Errorf("sweep: key %s (%s): conflicting record content (have hash %s, got %s)",
				r.Key, r.Experiment, prev, hash)
		}
		return false, nil
	}
	if in.store != nil {
		if err := in.store.AppendLine(line); err != nil {
			return false, err
		}
	}
	in.seen[r.Key] = hash
	return true, nil
}
