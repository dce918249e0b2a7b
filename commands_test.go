package rtopex

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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
// cross-subframe -pipeline-* flag. Every example then runs once and must
// exit 0.
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
		{cmd: "rtopex"},
		{cmd: "rtoptrace"},
		{cmd: "sweepd", flags: daemon, absent: []string{"history", "slo"}, defaults: daemonDefaults(":7600", nil)},
		{cmd: "sweepworker"},
		{cmd: "tracegen"},
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
	runs := [][]string{{"tracegen", "-n", "10", "-stats"}, {"rtopex", "-list"}}
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
