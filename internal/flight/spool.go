package flight

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// SpoolConfig bounds an on-disk dossier spool.
type SpoolConfig struct {
	// Dir is the spool directory (created if missing).
	Dir string
	// MaxDossiers caps the file count (default 128; < 0 disables).
	MaxDossiers int
	// MaxBytes caps the spool's total size (default 64 MiB; < 0 disables).
	MaxBytes int64
}

// Spool is a capped directory of dossier files: writes evict the oldest
// dossiers once either cap is exceeded, so a long-running worker under a
// miss storm keeps the freshest forensics and a bounded disk footprint.
// File names are "dossier-<seq>-<trigger>.json"; the zero-padded sequence
// makes lexical order capture order.
type Spool struct {
	mu       sync.Mutex
	dir      string
	max      int
	maxBytes int64
	files    []spoolFile // oldest first
	bytes    int64
	evicted  int64
}

type spoolFile struct {
	name string
	size int64
}

// NewSpool opens (and, on restart, rescans) a spool directory.
func NewSpool(cfg SpoolConfig) (*Spool, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("flight: spool needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Spool{dir: cfg.Dir, max: cfg.MaxDossiers, maxBytes: cfg.MaxBytes}
	if s.max == 0 {
		s.max = 128
	}
	if s.maxBytes == 0 {
		s.maxBytes = 64 << 20
	}
	// Resume: existing dossier files count against the caps, oldest first.
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "dossier-") || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		s.files = append(s.files, spoolFile{name: e.Name(), size: info.Size()})
		s.bytes += info.Size()
	}
	sort.Slice(s.files, func(i, j int) bool { return s.files[i].name < s.files[j].name })
	return s, nil
}

// Write spools one dossier and returns its path, evicting the oldest
// dossiers as needed to respect the caps.
func (s *Spool) Write(d *Dossier) (string, error) {
	name := fmt.Sprintf("dossier-%06d-%s.json", d.Seq, d.Trigger)
	path := filepath.Join(s.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := d.WriteJSON(f); err != nil {
		f.Close()
		os.Remove(path)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return "", err
	}
	info, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.files = append(s.files, spoolFile{name: name, size: info.Size()})
	s.bytes += info.Size()
	var evict []string
	for len(s.files) > 1 &&
		((s.max > 0 && len(s.files) > s.max) || (s.maxBytes > 0 && s.bytes > s.maxBytes)) {
		old := s.files[0]
		s.files = s.files[1:]
		s.bytes -= old.size
		s.evicted++
		evict = append(evict, filepath.Join(s.dir, old.name))
	}
	s.mu.Unlock()
	for _, p := range evict {
		os.Remove(p)
	}
	return path, nil
}

// Len reports the spooled dossier count.
func (s *Spool) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}

// Evicted reports how many dossiers the caps have pushed out.
func (s *Spool) Evicted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// List returns the spooled dossier paths, oldest first.
func (s *Spool) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.files))
	for i, f := range s.files {
		out[i] = filepath.Join(s.dir, f.name)
	}
	return out
}
