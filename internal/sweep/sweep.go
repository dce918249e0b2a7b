// Package sweep is the experiment-sweep engine: it splits the harness
// registry into (experiment × replica) units, runs them on a bounded
// worker pool, and streams each finished table into a JSON-lines artifact
// store keyed by a content hash of the unit's resolved configuration.
//
// Determinism is the core contract. Every unit derives its seed from a
// stable hash of (root seed, experiment id, replica), never from registry
// position, worker identity or completion order, so a parallel sweep produces
// byte-identical artifact records to a serial one — the store differs only
// in line order. That makes three things cheap:
//
//   - resume: a re-run skips every unit whose key already has a record
//     (checkpointing falls out of the store being content-addressed);
//   - regression gating: Compare diffs a fresh sweep against checked-in
//     golden baselines, exactly;
//   - fault isolation: a unit that panics or exceeds its timeout degrades
//     the sweep (reported as a Failure) instead of killing it.
package sweep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"runtime"
	"sort"
	"sync"
	"time"

	"rtopex/internal/harness"
	"rtopex/internal/obs"
)

// Config describes one sweep.
type Config struct {
	// IDs are the experiment ids to run; empty means the whole registry.
	IDs []string
	// Workers bounds the pool; ≤ 0 means runtime.NumCPU().
	Workers int
	// Options are the base scale knobs. Options.Seed (after defaulting) is
	// the sweep's root seed; each unit replaces it with a derived seed.
	Options harness.Options
	// Replicas runs every experiment this many times under distinct
	// derived seeds (≤ 0 means 1) — the (experiment × config) grid.
	Replicas int
	// Timeout bounds one unit's run; ≤ 0 disables. A timed-out unit is
	// reported as a Failure and its goroutine abandoned (experiments are
	// pure compute with no cancellation points); the abandoned goroutine
	// can never write the unit's store key, so a re-run — or a fleet
	// re-lease — is free to claim it (see ExecuteUnit).
	Timeout time.Duration
	// SkipMeasured excludes wall-clock-dependent experiments (fig4), whose
	// artifacts can never be byte-identical across runs.
	SkipMeasured bool
	// StorePath, when non-empty, streams records into a JSON-lines store.
	StorePath string
	// Resume skips units whose key already has a record in StorePath.
	Resume bool
	// Progress, when non-nil, receives one line per unit completion.
	Progress io.Writer
	// Obs, when non-nil, receives live sweep progress (units total/done/
	// failed/reused, worker occupancy, per-unit wall-time histogram) and
	// every finished table's summary gauges — the series `rtopex -http`
	// exposes for scraping mid-sweep.
	Obs *obs.Registry
	// Push, when non-nil (requires Obs), streams the live registry to a
	// central collector: one push after every finished unit plus a final
	// push when the sweep ends. Per-unit push failures are transient and
	// only logged (the next unit's push carries a superset of the state);
	// a failed final push is the sweep's error, since the collector's
	// merged view would silently miss this worker's results.
	Push *obs.Pusher

	// runFn substitutes the experiment runner in tests; nil means
	// harness.Run.
	runFn func(id string, o harness.Options) (*harness.Table, error)
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

func (c Config) replicas() int {
	if c.Replicas > 0 {
		return c.Replicas
	}
	return 1
}

// DeriveSeed computes a unit's seed from the sweep's root seed, the
// experiment id and the replica index. The hash (FNV-1a 64) is stable
// across processes, platforms and Go versions, and independent of worker
// scheduling and of which other experiments are registered — the root of
// the parallel-equals-serial guarantee. A zero result is mapped to 1
// because harness.Options treats seed 0 as "use the default".
func DeriveSeed(root uint64, id string, replica int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], root)
	h.Write(b[:])
	io.WriteString(h, id)
	binary.LittleEndian.PutUint64(b[:], uint64(replica))
	h.Write(b[:])
	s := h.Sum64()
	if s == 0 {
		s = 1
	}
	return s
}

// Unit is one schedulable run: one experiment under one resolved
// configuration.
type Unit struct {
	Spec    harness.Spec
	Replica int
	Options harness.Options
	Key     string
}

// Units expands a config into its unit list, in deterministic (experiment,
// replica) order. Unknown ids are an error.
func Units(cfg Config) ([]Unit, error) {
	specOf := map[string]harness.Spec{}
	for _, s := range harness.Specs() {
		specOf[s.ID] = s
	}
	ids := cfg.IDs
	if len(ids) == 0 {
		ids = harness.IDs()
	} else {
		ids = append([]string(nil), ids...)
		sort.Strings(ids)
	}
	root := cfg.Options.Resolve().Seed
	var units []Unit
	for _, id := range ids {
		spec, ok := specOf[id]
		if !ok {
			return nil, fmt.Errorf("sweep: unknown experiment %q", id)
		}
		if cfg.SkipMeasured && spec.Measured {
			continue
		}
		for rep := 0; rep < cfg.replicas(); rep++ {
			o := cfg.Options
			o.Seed = DeriveSeed(root, id, rep)
			units = append(units, Unit{
				Spec:    spec,
				Replica: rep,
				Options: o,
				Key:     Key(id, o.Resolve()),
			})
		}
	}
	return units, nil
}

// Failure reports one unit that did not produce an artifact.
type Failure struct {
	Unit     Unit
	Err      string
	TimedOut bool
}

// Result summarizes one sweep.
type Result struct {
	// Records holds every artifact available after the sweep: freshly
	// computed ones plus, on resume, the reused ones — everything a
	// baseline comparison needs. Order is completion order.
	Records []*Record
	// Reused counts units satisfied from the store without recomputation.
	Reused int
	// Ran counts units actually executed.
	Ran int
	// Failures lists units that panicked, errored or timed out.
	Failures []Failure
	// Wall is the sweep's elapsed time; Busy sums per-unit durations. On a
	// multicore machine Busy/Wall measures the worker-pool speedup.
	Wall, Busy time.Duration
}

// Speedup is the parallel efficiency ratio Busy/Wall.
func (r *Result) Speedup() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return r.Busy.Seconds() / r.Wall.Seconds()
}

// SortedRecords returns the records in deterministic (experiment, replica)
// order, for rendering and for order-insensitive store comparison.
func (r *Result) SortedRecords() []*Record {
	return SortRecords(r.Records)
}

// SortRecords returns a copy of recs in (experiment, replica) order.
func SortRecords(recs []*Record) []*Record {
	out := append([]*Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Experiment != out[j].Experiment {
			return out[i].Experiment < out[j].Experiment
		}
		return out[i].Replica < out[j].Replica
	})
	return out
}

// Run executes the sweep.
func Run(cfg Config) (*Result, error) {
	if cfg.Push != nil && cfg.Obs == nil {
		return nil, errors.New("sweep: Config.Push requires Config.Obs (the registry being pushed)")
	}
	units, err := Units(cfg)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	var ingest *Ingest
	existing := map[string]*Record{}
	if cfg.StorePath != "" {
		var prior []*Record
		if cfg.Resume {
			recs, rerr := ReadStore(cfg.StorePath)
			if rerr != nil && !isNotExist(rerr) {
				return nil, rerr
			}
			existing = IndexByKey(recs)
			// Keep only each key's index winner (the freshest copy), in file
			// order, so the rewrite below never carries stale duplicates.
			for _, r := range recs {
				if existing[r.Key] == r {
					prior = append(prior, r)
				}
			}
		}
		store, err := CreateStore(cfg.StorePath)
		if err != nil {
			return nil, err
		}
		defer store.Close()
		// Rewrite the surviving records so a store truncated by a mid-write
		// kill is repaired (the partial trailing line is dropped) and fresh
		// appends start on a clean line boundary. All writes go through the
		// deduping Ingest, so a key can never gain a second record — the
		// guard that makes abandoning a timed-out unit safe.
		ingest, err = NewIngest(store, prior)
		if err != nil {
			return nil, err
		}
	}

	// Partition into reused and pending before launching workers, so the
	// progress denominator is stable.
	var pending []Unit
	for _, u := range units {
		if rec, ok := existing[u.Key]; ok && cfg.Resume {
			res.Records = append(res.Records, rec)
			res.Reused++
			continue
		}
		pending = append(pending, u)
	}

	sw := newSweepObs(cfg.Obs, cfg.Push, len(units), len(pending), res.Reused, cfg.workers())

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		done     int
		firstErr error
	)
	start := time.Now()
	jobs := make(chan Unit)
	progress := func(u Unit, status string, d time.Duration) {
		if cfg.Progress == nil {
			return
		}
		done++
		fmt.Fprintf(cfg.Progress, "[%*d/%d] %-22s %-8s %6.2fs\n",
			len(fmt.Sprint(len(pending))), done, len(pending), u.Spec.ID, status, d.Seconds())
	}
	for w := 0; w < cfg.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range jobs {
				sw.unitStarted()
				t0 := time.Now()
				rec, fail := runUnit(cfg, u)
				d := time.Since(t0)
				sw.unitFinished(u, rec, fail, d)
				mu.Lock()
				res.Ran++
				res.Busy += d
				switch {
				case fail != nil:
					res.Failures = append(res.Failures, *fail)
					status := "FAIL"
					if fail.TimedOut {
						status = "TIMEOUT"
					}
					progress(u, status, d)
				default:
					res.Records = append(res.Records, rec)
					if ingest != nil {
						if _, err := ingest.Add(rec); err != nil && firstErr == nil {
							firstErr = err
						}
					}
					progress(u, "ok", d)
				}
				mu.Unlock()
			}
		}()
	}
	for _, u := range pending {
		jobs <- u
	}
	close(jobs)
	wg.Wait()
	res.Wall = time.Since(start)
	if err := sw.finalPush(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}

// runUnit executes one unit with panic recovery and an optional timeout.
func runUnit(cfg Config, u Unit) (*Record, *Failure) {
	return ExecuteUnit(u, cfg.Timeout, cfg.runFn)
}

// RunFunc is the experiment runner a unit execution is parameterized by;
// nil means harness.Run. Fleet workers and tests substitute it.
type RunFunc func(id string, o harness.Options) (*harness.Table, error)

// ExecuteUnit runs one unit with panic recovery and an optional timeout,
// producing either its artifact record or a failure. This is the only
// place records are built, so a worker process and an in-process sweep
// emit byte-identical artifacts for the same unit.
//
// Timeout semantics: a unit that exceeds the timeout is reported as a
// TimedOut failure and its goroutine abandoned (experiments are pure
// compute with no cancellation points). The abandoned goroutine delivers
// its late result into a buffered channel nobody reads — it holds no store
// or ingest reference, so a late finisher can never append a record. The
// unit's store key therefore stays unwritten, free for a re-run (or a
// fleet re-lease) to claim; if a zombie's copy of the record does surface
// later, Ingest dedups it by content hash.
func ExecuteUnit(u Unit, timeout time.Duration, runFn RunFunc) (*Record, *Failure) {
	if runFn == nil {
		runFn = harness.Run
	}
	type outcome struct {
		tb  *harness.Table
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: fmt.Errorf("panic: %v", p)}
			}
		}()
		tb, err := runFn(u.Spec.ID, u.Options)
		ch <- outcome{tb: tb, err: err}
	}()
	var timeoutC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case o := <-ch:
		if o.err != nil {
			return nil, &Failure{Unit: u, Err: o.err.Error()}
		}
		return &Record{
			Schema:     SchemaVersion,
			Key:        u.Key,
			Experiment: u.Spec.ID,
			Replica:    u.Replica,
			Config:     u.Options.Resolve(),
			Measured:   u.Spec.Measured,
			Table:      o.tb,
			// Derived from the table alone, so the record stays a pure
			// function of the unit (the byte-identity guarantee).
			Obs: harness.TableSnapshot(o.tb),
		}, nil
	case <-timeoutC:
		return nil, &Failure{
			Unit:     u,
			Err:      fmt.Sprintf("no result within %s (unit abandoned)", timeout),
			TimedOut: true,
		}
	}
}

func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
