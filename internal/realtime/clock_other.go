//go:build !linux

package realtime

import "time"

// guard is zero here: the whole wait is one time.Sleep, with no finer sleep
// to hand the last stretch to.
const guard = 0

// sleepUntil returns at or after t. time.Sleep never returns early, but it
// wakes as late as the platform's timer granularity allows.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// tightenTimerSlack has no timer slack to change outside Linux.
func tightenTimerSlack() (restore func()) { return func() {} }
