package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestRunSmoke drives the whole command on the smallest sweep model.Fit
// accepts: 2 antenna counts × 4 MCS × 2 SNRs × 1 trial = 16 observations.
func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	args := strings.Fields("-trials 1 -mcs-step 9 -antennas 1,2 -snrs 10,30")
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"measurements: 16", "go-phy (measured)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunRejectsDecoderFlag: there is one decoder, so the flag that used to
// select one is an unknown flag, not a silently accepted no-op.
func TestRunRejectsDecoderFlag(t *testing.T) {
	err := run([]string{"-decoder", "float"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-decoder") {
		t.Fatalf("run -decoder float: err = %v, want an unknown-flag error", err)
	}
}
