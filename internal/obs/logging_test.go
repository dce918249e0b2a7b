package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"strings"
	"testing"
)

func TestLogFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := LogFlags(fs)
	if err := fs.Parse([]string{"-log-format", "json", "-log-level", "debug"}); err != nil {
		t.Fatal(err)
	}
	if c.Format != "json" || c.Level != "debug" {
		t.Fatalf("parsed config: %+v", c)
	}
}

func TestLoggerTextDefault(t *testing.T) {
	var buf bytes.Buffer
	l, err := (&LogConfig{}).Logger("sweepd", &buf)
	if err != nil {
		t.Fatal(err)
	}
	logf := Printf(l)
	logf("sweep resolved: %d/%d done", 12, 12)
	line := buf.String()
	// Scripts grep daemon logs for these substrings; the text handler must
	// keep the formatted message findable.
	if !strings.Contains(line, "sweep resolved: 12/12 done") {
		t.Fatalf("message not greppable in %q", line)
	}
	if !strings.Contains(line, "component=sweepd") {
		t.Fatalf("missing component attribute in %q", line)
	}
	// Debug is below the default info level.
	buf.Reset()
	l.Debug("hidden")
	if buf.Len() != 0 {
		t.Fatalf("debug record emitted at info level: %q", buf.String())
	}
}

func TestLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	l, err := (&LogConfig{Format: "json", Level: "warn"}).Logger("obscollect", &buf)
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hidden")
	l.Warn("shown")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want exactly the warn record, got %q", buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["msg"] != "shown" || rec["component"] != "obscollect" || rec["level"] != "WARN" {
		t.Fatalf("unexpected record: %v", rec)
	}
}

func TestLoggerRejectsUnknown(t *testing.T) {
	if _, err := (&LogConfig{Format: "xml"}).Logger("x", nil); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := (&LogConfig{Level: "loud"}).Logger("x", nil); err == nil {
		t.Fatal("unknown level accepted")
	}
}

func TestPrintfNil(t *testing.T) {
	if Printf(nil) != nil {
		t.Fatal("Printf(nil) should be nil so daemons can pass it straight to Logf fields")
	}
}
