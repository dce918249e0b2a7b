package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rtopex/internal/harness"
)

// tinyOptions keeps the real experiments fast enough for a unit test while
// still exercising the full registry plumbing.
var tinyOptions = harness.Options{Subframes: 120, Samples: 3000, Seed: 11, Quick: true}

// tinyIDs is a cheap, diverse registry subset: trace statistics, model
// fitting, a transport distribution, a full scheduler sweep and a pure
// model table.
var tinyIDs = []string{"fig1", "fig14", "fig15", "fig18", "fig6", "table1"}

func TestDeriveSeed(t *testing.T) {
	a := DeriveSeed(7, "fig15", 3)
	if a != DeriveSeed(7, "fig15", 3) {
		t.Fatal("derivation not stable")
	}
	if a == DeriveSeed(7, "fig15", 4) || a == DeriveSeed(7, "fig16", 3) || a == DeriveSeed(8, "fig15", 3) {
		t.Fatal("derived seeds collide across inputs")
	}
	if DeriveSeed(0, "", 0) == 0 {
		t.Fatal("derived seed of zero would fall back to the harness default")
	}
}

// TestUnitsShardStability pins the seed rule: every unit's seed is
// DeriveSeed(root, experiment id, replica), whatever else is registered, so
// a subset sweep derives the same seed and key for an experiment as a
// full-registry sweep.
func TestUnitsShardStability(t *testing.T) {
	full, err := Units(Config{Options: tinyOptions, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	root := tinyOptions.Resolve().Seed
	for _, u := range full {
		if want := DeriveSeed(root, u.Spec.ID, u.Replica); u.Options.Seed != want {
			t.Fatalf("%s replica %d: seed %d, want DeriveSeed(root, id, replica) = %d",
				u.Spec.ID, u.Replica, u.Options.Seed, want)
		}
	}
	sub, err := Units(Config{Options: tinyOptions, IDs: []string{"fig15"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 1 {
		t.Fatalf("%d units for one id", len(sub))
	}
	var fromFull *Unit
	for i := range full {
		if full[i].Spec.ID == "fig15" && full[i].Replica == 0 {
			fromFull = &full[i]
		}
	}
	if fromFull == nil {
		t.Fatal("fig15 missing from full unit list")
	}
	if sub[0].Key != fromFull.Key || sub[0].Options.Seed != fromFull.Options.Seed {
		t.Fatalf("subset unit %+v != full-registry unit %+v", sub[0], *fromFull)
	}
	if _, err := Units(Config{IDs: []string{"no-such-experiment"}}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestReplicasGetDistinctSeeds(t *testing.T) {
	units, err := Units(Config{Options: tinyOptions, IDs: []string{"fig18"}, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 3 {
		t.Fatalf("%d units, want 3", len(units))
	}
	seen := map[uint64]bool{}
	keys := map[string]bool{}
	for _, u := range units {
		seen[u.Options.Seed] = true
		keys[u.Key] = true
	}
	if len(seen) != 3 || len(keys) != 3 {
		t.Fatalf("replicas share seeds or keys: %v", units)
	}
}

// storeLines reads a store file and returns its non-empty lines sorted,
// for order-insensitive byte comparison.
func storeLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(string(b), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	return lines
}

// TestParallelMatchesSerial is the determinism guarantee: a parallel sweep
// and a serial sweep over the same registry subset produce byte-identical
// artifact stores modulo record order.
func TestParallelMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	serial := filepath.Join(dir, "serial.jsonl")
	parallel := filepath.Join(dir, "parallel.jsonl")

	sres, err := Run(Config{IDs: tinyIDs, Workers: 1, Options: tinyOptions, StorePath: serial})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := Run(Config{IDs: tinyIDs, Workers: 8, Options: tinyOptions, StorePath: parallel})
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Failures) > 0 || len(pres.Failures) > 0 {
		t.Fatalf("failures: serial %v, parallel %v", sres.Failures, pres.Failures)
	}
	sl, pl := storeLines(t, serial), storeLines(t, parallel)
	if len(sl) != len(tinyIDs) {
		t.Fatalf("serial store has %d records, want %d", len(sl), len(tinyIDs))
	}
	for i := range sl {
		if sl[i] != pl[i] {
			t.Fatalf("store line %d differs:\nserial:   %s\nparallel: %s", i, sl[i], pl[i])
		}
	}
}

// countingRun wraps a deterministic fake experiment runner that records how
// often each id executed.
func countingRun() (func(string, harness.Options) (*harness.Table, error), func(string) int) {
	var mu sync.Mutex
	counts := map[string]int{}
	run := func(id string, o harness.Options) (*harness.Table, error) {
		mu.Lock()
		counts[id]++
		mu.Unlock()
		tb := &harness.Table{ID: id, Title: "fake", Columns: []string{"seed"}}
		tb.AddRow(fmt.Sprint(o.Resolve().Seed))
		return tb, nil
	}
	count := func(id string) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[id]
	}
	return run, count
}

// TestResumeAfterKill simulates a sweep killed mid-run: the store retains
// one finished shard plus a half-written record. The resumed sweep must
// reuse the finished shard byte-for-byte, drop the partial record, and
// recompute only the rest.
func TestResumeAfterKill(t *testing.T) {
	ids := []string{"fig1", "fig18", "table1"}
	store := filepath.Join(t.TempDir(), "store.jsonl")

	run, count := countingRun()
	if _, err := Run(Config{IDs: ids, Workers: 1, Options: tinyOptions, StorePath: store, runFn: run}); err != nil {
		t.Fatal(err)
	}
	lines := storeLines(t, store)
	if len(lines) != 3 {
		t.Fatalf("%d records, want 3", len(lines))
	}

	// Simulate the kill: keep the first record whole, truncate the second
	// mid-line, lose the third entirely.
	b, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	raw := strings.SplitAfter(string(b), "\n")
	mangled := raw[0] + raw[1][:len(raw[1])/2]
	if err := os.WriteFile(store, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	keptLine := strings.TrimSuffix(raw[0], "\n")
	keptID := ids[0] // serial run preserves unit order

	run2, count2 := countingRun()
	res, err := Run(Config{IDs: ids, Workers: 1, Options: tinyOptions, StorePath: store,
		Resume: true, runFn: run2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused != 1 || res.Ran != 2 {
		t.Fatalf("reused=%d ran=%d, want 1 and 2", res.Reused, res.Ran)
	}
	if count2(keptID) != 0 {
		t.Fatalf("finished shard %s was recomputed", keptID)
	}
	for _, id := range ids[1:] {
		if count2(id) != 1 {
			t.Fatalf("shard %s ran %d times, want 1", id, count2(id))
		}
	}
	_ = count // first run's counts only validate the fixture
	if len(res.Records) != 3 {
		t.Fatalf("%d records after resume, want 3", len(res.Records))
	}

	// The store must now hold all three records, with the survivor's line
	// byte-identical to the original.
	final := storeLines(t, store)
	if len(final) != 3 {
		t.Fatalf("%d store lines after resume, want 3", len(final))
	}
	found := false
	for _, l := range final {
		if l == keptLine {
			found = true
		}
	}
	if !found {
		t.Fatal("surviving record's bytes changed across resume")
	}

	// A second resume recomputes nothing.
	run3, count3 := countingRun()
	res, err = Run(Config{IDs: ids, Workers: 1, Options: tinyOptions, StorePath: store,
		Resume: true, runFn: run3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused != 3 || res.Ran != 0 {
		t.Fatalf("second resume: reused=%d ran=%d, want 3 and 0", res.Reused, res.Ran)
	}
	for _, id := range ids {
		if count3(id) != 0 {
			t.Fatalf("second resume recomputed %s", id)
		}
	}
}

// TestFaultIsolation pins that a panicking shard and a wedged shard degrade
// the sweep instead of killing it.
func TestFaultIsolation(t *testing.T) {
	ids := []string{"fig1", "fig18", "table1"}
	run := func(id string, o harness.Options) (*harness.Table, error) {
		switch id {
		case "fig1":
			panic("synthetic shard panic")
		case "fig18":
			time.Sleep(5 * time.Second)
			return &harness.Table{ID: id}, nil
		}
		tb := &harness.Table{ID: id, Columns: []string{"v"}}
		tb.AddRow("1")
		return tb, nil
	}
	res, err := Run(Config{IDs: ids, Workers: 2, Options: tinyOptions,
		Timeout: 100 * time.Millisecond, runFn: run})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || res.Records[0].Experiment != "table1" {
		t.Fatalf("records: %+v", res.Records)
	}
	if len(res.Failures) != 2 {
		t.Fatalf("failures: %+v", res.Failures)
	}
	byID := map[string]Failure{}
	for _, f := range res.Failures {
		byID[f.Unit.Spec.ID] = f
	}
	if f := byID["fig1"]; f.TimedOut || !strings.Contains(f.Err, "panic") {
		t.Fatalf("panic failure: %+v", f)
	}
	if f := byID["fig18"]; !f.TimedOut {
		t.Fatalf("timeout failure: %+v", f)
	}
}

// TestTimeoutAbandonsKey is the regression test for the timed-out-unit
// contract: the abandoned goroutine's late result must never reach the
// store, the unit's key stays unwritten (so a resume recomputes it), and
// the resumed record is byte-identical to an untimed run's.
func TestTimeoutAbandonsKey(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.jsonl")
	ids := []string{"fig18", "table1"}

	lateDone := make(chan struct{})
	slow := func(id string, o harness.Options) (*harness.Table, error) {
		tb := &harness.Table{ID: id, Title: "fake", Columns: []string{"seed"}}
		tb.AddRow(fmt.Sprint(o.Resolve().Seed))
		if id == "fig18" {
			defer close(lateDone)
			time.Sleep(300 * time.Millisecond)
		}
		return tb, nil
	}
	res, err := Run(Config{IDs: ids, Workers: 2, Options: tinyOptions,
		Timeout: 50 * time.Millisecond, StorePath: path, runFn: slow})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || !res.Failures[0].TimedOut || res.Failures[0].Unit.Spec.ID != "fig18" {
		t.Fatalf("failures: %+v, want fig18 timed out", res.Failures)
	}

	// Let the abandoned goroutine finish its sleep and deliver its late
	// result into the void, then check it never touched the store.
	<-lateDone
	time.Sleep(20 * time.Millisecond)
	recs, err := ReadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Experiment != "table1" {
		t.Fatalf("store after timeout holds %+v, want only table1", recs)
	}

	// The key is free: a resumed sweep recomputes fig18 (not reused) and
	// lands exactly one record for it, identical to an untimed run's.
	fast := func(id string, o harness.Options) (*harness.Table, error) {
		tb := &harness.Table{ID: id, Title: "fake", Columns: []string{"seed"}}
		tb.AddRow(fmt.Sprint(o.Resolve().Seed))
		return tb, nil
	}
	res2, err := Run(Config{IDs: ids, Workers: 2, Options: tinyOptions,
		StorePath: path, Resume: true, runFn: fast})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reused != 1 || res2.Ran != 1 || len(res2.Failures) != 0 {
		t.Fatalf("resume: reused %d ran %d failures %v", res2.Reused, res2.Ran, res2.Failures)
	}
	recs, err = ReadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	byKey := IndexByKey(recs)
	if len(recs) != 2 || len(byKey) != 2 {
		t.Fatalf("resumed store holds %d lines over %d keys, want 2/2", len(recs), len(byKey))
	}

	ref := filepath.Join(dir, "ref.jsonl")
	if _, err := Run(Config{IDs: ids, Workers: 1, Options: tinyOptions, StorePath: ref, runFn: fast}); err != nil {
		t.Fatal(err)
	}
	got, want := storeLines(t, path), storeLines(t, ref)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed store line %d differs from untimed run:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

func fakeRecord(id string, replica int, cells ...string) *Record {
	tb := &harness.Table{ID: id, Title: id, Columns: []string{"a", "b"}}
	tb.Rows = append(tb.Rows, cells)
	tb.Notes = []string{"note for " + id}
	cfg := harness.ResolvedOptions{Subframes: 10, Samples: 10, Seed: 1}
	return &Record{
		Schema: SchemaVersion, Key: Key(id, cfg), Experiment: id,
		Replica: replica, Config: cfg, Table: tb,
	}
}

func TestCompare(t *testing.T) {
	base := []*Record{fakeRecord("fig15", 0, "1.25", "x"), fakeRecord("fig16", 0, "3", "y")}
	exact := CompareOptions{}

	// Identical sweeps: no drift.
	fresh := []*Record{fakeRecord("fig16", 0, "3", "y"), fakeRecord("fig15", 0, "1.25", "x")}
	if d := Compare(base, fresh, exact); len(d) != 0 {
		t.Fatalf("identical sweeps drifted: %v", d)
	}

	// A perturbed numeric cell fails the gate; the same number written
	// differently does not.
	fresh = []*Record{fakeRecord("fig15", 0, "1.2500001", "x"), fakeRecord("fig16", 0, "3", "y")}
	d := Compare(base, fresh, exact)
	if len(d) != 1 || !strings.Contains(d[0].Where, "cell 0/a") {
		t.Fatalf("perturbed cell not caught: %v", d)
	}
	fresh = []*Record{fakeRecord("fig15", 0, "1.250", "x"), fakeRecord("fig16", 0, "3", "y")}
	if d := Compare(base, fresh, exact); len(d) != 0 {
		t.Fatalf("equal number in another spelling drifted: %v", d)
	}

	// Non-numeric cells compare as text.
	fresh = []*Record{fakeRecord("fig15", 0, "1.25", "z"), fakeRecord("fig16", 0, "3", "y")}
	if d := Compare(base, fresh, exact); len(d) != 1 {
		t.Fatalf("string drift not caught: %v", d)
	}

	// A missing experiment is a drift; an extra fresh one is not.
	fresh = []*Record{fakeRecord("fig15", 0, "1.25", "x"), fakeRecord("fig99", 0, "3", "y")}
	d = Compare(base, fresh, exact)
	if len(d) != 1 || d[0].Where != "missing" || d[0].Experiment != "fig16" {
		t.Fatalf("missing experiment not caught: %v", d)
	}

	// Measured records are skipped unless opted in.
	mbase := []*Record{fakeRecord("fig4", 0, "1", "x")}
	mbase[0].Measured = true
	mfresh := []*Record{fakeRecord("fig4", 0, "2", "x")}
	mfresh[0].Measured = true
	if d := Compare(mbase, mfresh, exact); len(d) != 0 {
		t.Fatalf("measured record gated: %v", d)
	}
	if d := Compare(mbase, mfresh, CompareOptions{IncludeMeasured: true}); len(d) != 1 {
		t.Fatalf("IncludeMeasured ignored: %v", d)
	}

	// A note change is a drift, silenced by IgnoreNotes.
	fresh = []*Record{fakeRecord("fig15", 0, "1.25", "x"), fakeRecord("fig16", 0, "3", "y")}
	fresh[0].Table.Notes = []string{"different note"}
	if d := Compare(base, fresh, exact); len(d) != 1 || !strings.Contains(d[0].Where, "note") {
		t.Fatalf("note drift not caught: %v", d)
	}
	if d := Compare(base, fresh, CompareOptions{IgnoreNotes: true}); len(d) != 0 {
		t.Fatalf("IgnoreNotes not applied: %v", d)
	}

	// Diverging configs report a single config drift, not a cell storm.
	fresh = []*Record{fakeRecord("fig15", 0, "9", "q"), fakeRecord("fig16", 0, "3", "y")}
	fresh[0].Config.Seed = 2
	fresh[0].Key = Key("fig15", fresh[0].Config)
	d = Compare(base, fresh, exact)
	if len(d) != 1 || d[0].Where != "config" {
		t.Fatalf("config drift not caught: %v", d)
	}
}

func TestStoreReadTolerance(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.jsonl")
	st, err := CreateStore(path)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := fakeRecord("fig15", 0, "1", "x"), fakeRecord("fig16", 0, "2", "y")
	if err := st.Append(r1); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(r2); err != nil {
		t.Fatal(err)
	}
	st.Close()

	recs, err := ReadStore(path)
	if err != nil || len(recs) != 2 {
		t.Fatalf("read: %d records, err %v", len(recs), err)
	}
	if idx := IndexByKey(recs); idx[r1.Key] == nil || idx[r2.Key] == nil {
		t.Fatal("index misses keys")
	}

	// Partial trailing line: tolerated (mid-write kill).
	b, _ := os.ReadFile(path)
	if err := os.WriteFile(path, b[:len(b)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err = ReadStore(path)
	if err != nil || len(recs) != 1 {
		t.Fatalf("truncated store: %d records, err %v", len(recs), err)
	}

	// Garbage mid-file: rejected.
	bad := append([]byte("not json\n"), b...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStore(path); err == nil {
		t.Fatal("mid-file garbage accepted")
	}

	// Wrong schema version: rejected. (Build the pattern from SchemaVersion
	// so this keeps biting after future bumps.)
	cur := []byte(fmt.Sprintf(`"schema":%d`, SchemaVersion))
	firstLine := b[:bytes.IndexByte(b, '\n')+1]
	if !bytes.Contains(firstLine, cur) {
		t.Fatalf("store line does not carry %s: %s", cur, firstLine)
	}
	line := bytes.Replace(firstLine, cur, []byte(`"schema":99`), 1)
	if err := os.WriteFile(path, line, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStore(path); err == nil {
		t.Fatal("future schema accepted")
	}

	// Prior schema (v1, no obs snapshot): still readable.
	v1 := bytes.Replace(firstLine, cur, []byte(`"schema":1`), 1)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err = ReadStore(path)
	if err != nil || len(recs) != 1 || recs[0].Schema != 1 {
		t.Fatalf("v1 record rejected: %d records, err %v", len(recs), err)
	}
}
