//go:build linux

package realtime

import (
	"syscall"
	"time"
)

// guard is how much of each wait the feeder takes off Go's timer. Go 1.24's
// netpoller rounds every timer wait up to whole milliseconds, so time.Sleep
// wakes up to 1 ms late on an idle runtime; guard is that granule plus a
// scheduling margin.
const guard = 1200 * time.Microsecond

// sleepUntil returns at or after t, within tens of µs of it. The bulk of the
// wait is a time.Sleep, which parks the goroutine and leaves its P to the
// workers; the last guard is nanosleep(2) on the feeder's locked thread. The
// loop re-reads the clock, so neither an EINTR nor an early return can
// release a subframe before its due time.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - guard; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// tightenTimerSlack sets the calling thread's timer slack to 1 ns, so the
// kernel does not defer sleepUntil's nanosleep by its default 50 µs, and
// returns the call that restores the previous slack. The caller must hold
// its OS thread (runtime.LockOSThread) until it has called restore.
func tightenTimerSlack() (restore func()) {
	prev, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_GET_TIMERSLACK, 0, 0)
	if errno != 0 {
		return func() {}
	}
	syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
	return func() { syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, prev, 0) }
}
