package sweep

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"rtopex/internal/harness"
	"rtopex/internal/obs"
)

// SchemaVersion tags the artifact-record layout. Bump it when Record's
// JSON shape changes, and keep readers for prior versions.
//
// History: v1 is the original layout; v2 adds the optional embedded obs
// snapshot. v1 records are still readable — a missing snapshot simply means
// no obs gating. Records written while seeds came from registry position
// also carry a "shard" field, which readers ignore.
const SchemaVersion = 2

// readableSchemas are the record versions ReadStore accepts.
var readableSchemas = map[int]bool{1: true, 2: true}

// Record is one artifact: the full table an experiment produced under one
// resolved configuration, keyed by a content hash of that configuration.
// Records are stored one-per-line as JSON (a JSON-lines store), so a sweep
// can stream them out as units finish and a killed sweep leaves a valid
// store behind.
type Record struct {
	Schema     int    `json:"schema"`
	Key        string `json:"key"`
	Experiment string `json:"experiment"`
	// Replica distinguishes repeated runs of the same experiment under
	// different derived seeds. (root seed, Experiment, Replica) determine
	// Config.Seed via DeriveSeed, so they are stable across subset runs and
	// resumes.
	Replica int                     `json:"replica,omitempty"`
	Config  harness.ResolvedOptions `json:"config"`
	// Measured marks wall-clock-dependent artifacts (see harness.Spec):
	// they are stored for inspection but exempt from byte-identical
	// reproducibility and skipped by Compare.
	Measured bool           `json:"measured,omitempty"`
	Table    *harness.Table `json:"table"`
	// Obs is the observability snapshot derived deterministically from the
	// table (schema ≥ 2): per-column value histograms and means, usable as
	// extra Compare gates. Absent in v1 records and in failed conversions.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// Key computes the content hash an artifact is stored under: the first 16
// hex digits of SHA-256 over the canonical JSON of (experiment id,
// resolved configuration). Two runs agree on a key exactly when they would
// run the same experiment code path with the same inputs.
func Key(experiment string, cfg harness.ResolvedOptions) string {
	doc, err := json.Marshal(struct {
		Experiment string                  `json:"experiment"`
		Config     harness.ResolvedOptions `json:"config"`
	}{experiment, cfg})
	if err != nil {
		// Marshaling a plain struct of scalars cannot fail.
		panic(fmt.Sprintf("sweep: key marshal: %v", err))
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:8])
}

// MarshalLine renders the record as its canonical store line (JSON + '\n').
// The encoding is deterministic: identical records produce identical bytes,
// which is what the sweep determinism guarantee is stated over.
func (r *Record) MarshalLine() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("sweep: marshal record %s: %v", r.Key, err)
	}
	return append(b, '\n'), nil
}

// Store is an append-only JSON-lines artifact file. Append is safe for
// concurrent use by the sweep workers; every record is flushed to the OS
// before Append returns, so a killed sweep loses at most the record being
// written.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// CreateStore creates (or truncates) a store file, making parent
// directories as needed.
func CreateStore(path string) (*Store, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Store{f: f, path: path}, nil
}

// Append writes one record line and syncs it.
func (s *Store) Append(r *Record) error {
	line, err := r.MarshalLine()
	if err != nil {
		return err
	}
	return s.AppendLine(line)
}

// AppendLine writes one pre-marshaled record line (as produced by
// MarshalLine) and syncs it.
func (s *Store) AppendLine(line []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(line); err != nil {
		return fmt.Errorf("sweep: append to %s: %v", s.path, err)
	}
	return s.f.Sync()
}

// Close closes the underlying file.
func (s *Store) Close() error { return s.f.Close() }

// ReadStore loads every record of a JSON-lines store. Blank lines are
// skipped; a truncated or malformed trailing line (a sweep killed
// mid-write) is tolerated with a warning error only if it is the last
// line, otherwise the store is rejected.
func ReadStore(path string) ([]*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*Record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24) // grows as lines need, up to 16 MiB
	line := 0
	var pendingErr error
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		if pendingErr != nil {
			return nil, pendingErr
		}
		var r Record
		if err := json.Unmarshal(text, &r); err != nil {
			// Defer the decision: only fatal if more lines follow.
			pendingErr = fmt.Errorf("sweep: %s line %d: %v", path, line, err)
			continue
		}
		if !readableSchemas[r.Schema] {
			return nil, fmt.Errorf("sweep: %s line %d: schema %d, this reader handles up to %d",
				path, line, r.Schema, SchemaVersion)
		}
		recs = append(recs, &r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// pendingErr on the final line means a mid-write kill: drop the
	// partial record so -resume recomputes it.
	return recs, nil
}

// IndexByKey maps records by artifact key; on duplicates the last wins
// (a resumed store may legitimately repeat a key only if a prior run was
// killed between write and sync, so later records are fresher).
func IndexByKey(recs []*Record) map[string]*Record {
	idx := make(map[string]*Record, len(recs))
	for _, r := range recs {
		idx[r.Key] = r
	}
	return idx
}
