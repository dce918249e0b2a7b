package rtopex

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestCommandsStartAndPrintUsage builds every cmd/* and examples/* binary
// and runs each command's -h: each must print its usage and exit cleanly (a
// flag registered twice panics at start-up), the daemons that share
// obs.DaemonFlags must list the shared listen/auth/dossier/log flags with
// their own defaults, the binaries that share obs.HistoryFlags must still
// list the history and SLO flags with theirs (sweepd, which has no SLO,
// none), and livebench must list -dilation at the ledger's 2 and no
// cross-subframe -pipeline-* flag. The baseline gates of rtopex and sweepd
// take no -tol. Every example then runs once and must exit 0.
func TestCommandsStartAndPrintUsage(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/...", "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/... ./examples/...: %v\n%s", err, out)
	}
	slo := []string{"slo", "slo-fast", "slo-slow", "slo-pending"}
	daemon := []string{"addr-file", "auth-token", "dossier-dir", "quiet"}
	daemonDefaults := func(listen string, more map[string]string) map[string]string {
		d := map[string]string{"listen": `"` + listen + `"`, "log-format": `"text"`, "log-level": `"info"`}
		for k, v := range more {
			d[k] = v
		}
		return d
	}
	for _, tc := range []struct {
		cmd      string
		defaults map[string]string // flag -> the default its usage prints
		flags    []string
		absent   []string // flag-name prefixes no listed flag may carry
	}{
		{cmd: "benchjson"},
		{cmd: "livebench", flags: slo, absent: []string{"pipeline"},
			defaults: map[string]string{"history-step": "1s", "history-retention": "15m0s", "dilation": "2"}},
		{cmd: "obscollect", flags: append(daemon, slo...),
			defaults: daemonDefaults(":9090", map[string]string{"history-step": "2s", "history-retention": "1h0m0s"})},
		{cmd: "phyprof"},
		{cmd: "rtopex", absent: []string{"tol"}},
		{cmd: "rtoptrace"},
		{cmd: "sweepd", flags: daemon, absent: []string{"history", "slo", "tol"}, defaults: daemonDefaults(":7600", nil)},
		{cmd: "sweepworker"},
	} {
		out, err := exec.Command(filepath.Join(dir, tc.cmd), "-h").CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 2) {
			t.Errorf("%s -h: %v\n%s", tc.cmd, err, out)
			continue
		}
		usage := string(out)
		if !strings.Contains(usage, "Usage") || strings.Contains(usage, "flag redefined") {
			t.Errorf("%s -h printed no clean usage:\n%s", tc.cmd, usage)
		}
		for name, def := range tc.defaults {
			if !regexp.MustCompile(`(?m)^  -` + name + ` \w+\n.*\(default ` + def + `\)$`).MatchString(usage) {
				t.Errorf("%s -h does not list -%s with default %s", tc.cmd, name, def)
			}
		}
		for _, name := range tc.flags {
			if !regexp.MustCompile(`(?m)^  -` + name + `( |$)`).MatchString(usage) {
				t.Errorf("%s -h does not list -%s", tc.cmd, name)
			}
		}
		for _, name := range tc.absent {
			if strings.Contains(usage, "\n  -"+name) {
				t.Errorf("%s -h still lists a -%s flag", tc.cmd, name)
			}
		}
	}
	runs := [][]string{{"rtopex", "-list"}}
	examples, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range examples {
		runs = append(runs, []string{e.Name()})
	}
	for _, args := range runs {
		if out, err := exec.Command(filepath.Join(dir, args[0]), args[1:]...).CombinedOutput(); err != nil {
			t.Errorf("%v: %v\n%s", args, err, out)
		}
	}
}

// TestFullBaselineGateIsExact runs rtopex -baseline on full-store records of
// fig6 and ablation-cache. Unchanged they pass. A 1 % drift in a p50 cell
// fails, and so does a ×1.1 drift in a miss-rate cell and in the record's
// rtopex_table_miss_rate gauge of that column.
func TestFullBaselineGateIsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments at full scale")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rtopex")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/rtopex").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/rtopex: %v\n%s", err, out)
	}
	// gate writes the fig6 and ablation-cache records of the full store,
	// with mutate applied, and returns rtopex -baseline's exit code and log.
	gate := func(mutate func(map[string]*SweepRecord)) (int, string) {
		t.Helper()
		recs, err := ReadSweepStore("testdata/baselines/full.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		byID := map[string]*SweepRecord{}
		var lines []byte
		for _, r := range recs {
			if r.Experiment == "fig6" || r.Experiment == "ablation-cache" {
				byID[r.Experiment] = r
			}
		}
		mutate(byID)
		for _, r := range byID {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(append(lines, b...), '\n')
		}
		path := filepath.Join(dir, "baseline.jsonl")
		if err := os.WriteFile(path, lines, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, "-exp", "fig6,ablation-cache", "-skip-measured", "-baseline", path).CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatal(err)
		}
		if exit != nil {
			return exit.ExitCode(), string(out)
		}
		return 0, string(out)
	}
	// scale multiplies the cell of row 0 in column col by f, and the
	// column's gauges named in gauges.
	scale := func(id, col string, f float64, gauges ...string) func(map[string]*SweepRecord) {
		return func(byID map[string]*SweepRecord) {
			r := byID[id]
			c := 0
			for c < len(r.Table.Columns) && r.Table.Columns[c] != col {
				c++
			}
			if c == len(r.Table.Columns) {
				t.Fatalf("%s has no column %q", id, col)
			}
			v, err := strconv.ParseFloat(r.Table.Rows[0][c], 64)
			if err != nil || v == 0 {
				t.Fatalf("%s cell 0/%s = %q: want a nonzero number", id, col, r.Table.Rows[0][c])
			}
			r.Table.Rows[0][c] = strconv.FormatFloat(v*f, 'g', -1, 64)
			for _, name := range gauges {
				found := false
				for i, g := range r.Obs.Gauges {
					for _, l := range g.Labels {
						if g.Name == name && l.Key == "column" && l.Value == col {
							r.Obs.Gauges[i].Value *= f
							found = true
						}
					}
				}
				if !found {
					t.Fatalf("%s has no %s gauge for column %q", id, name, col)
				}
			}
		}
	}

	if code, out := gate(func(map[string]*SweepRecord) {}); code != 0 {
		t.Fatalf("unchanged full-store records: exit %d\n%s", code, out)
	}
	for _, tc := range []struct {
		id, col string
		f       float64
		gauges  []string
		want    []string
	}{
		{"fig6", "p50", 1.01, nil, []string{"cell 0/p50"}},
		{"ablation-cache", "with_cache", 1.1, []string{"rtopex_table_miss_rate"},
			[]string{"cell 0/with_cache", "obs gauge rtopex_table_miss_rate"}},
	} {
		code, out := gate(scale(tc.id, tc.col, tc.f, tc.gauges...))
		if code != 1 {
			t.Errorf("%s cell 0/%s ×%v: exit %d, want 1\n%s", tc.id, tc.col, tc.f, code, out)
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s cell 0/%s ×%v: the gate does not report %q\n%s", tc.id, tc.col, tc.f, w, out)
			}
		}
	}
}

// TestExpPrintsStoredTable pins that rtopex -exp and the sweep store share
// one seed rule: `rtopex -exp fig6 -quick` prints exactly the table of the
// quick store's fig6 record.
func TestExpPrintsStoredTable(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rtopex")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/rtopex").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/rtopex: %v\n%s", err, out)
	}
	recs, err := ReadSweepStore("testdata/baselines/quick.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, r := range recs {
		if r.Experiment == "fig6" {
			want = r.Table.String() + "\n"
		}
	}
	if want == "" {
		t.Fatal("quick store has no fig6 record")
	}
	got, err := exec.Command(bin, "-exp", "fig6", "-quick").Output()
	if err != nil {
		t.Fatalf("rtopex -exp fig6 -quick: %v", err)
	}
	if string(got) != want {
		t.Fatalf("rtopex -exp fig6 -quick printed\n%s\nthe quick store's fig6 record holds\n%s", got, want)
	}
}
