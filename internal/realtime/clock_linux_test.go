package realtime

import (
	"runtime"
	"syscall"
	"testing"
)

// TestTimerSlackRestored: the feeder's thread runs at 1 ns timer slack and
// goes back to the runtime's thread pool with the slack it had.
func TestTimerSlackRestored(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	slack := func() uintptr {
		v, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_GET_TIMERSLACK, 0, 0)
		if errno != 0 {
			t.Skipf("PR_GET_TIMERSLACK: %v", errno)
		}
		return v
	}
	before := slack()
	restore := tightenTimerSlack()
	if got := slack(); got != 1 {
		t.Fatalf("timer slack %d ns inside the feeder, want 1", got)
	}
	restore()
	if got := slack(); got != before {
		t.Fatalf("timer slack %d ns after restore, want %d", got, before)
	}
}
