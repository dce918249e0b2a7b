package realtime

import (
	"testing"
	"time"
)

// TestSleepUntilNeverEarly: whatever the distance to the target, sleepUntil
// returns at or after it. Only that lower bound is asserted; how late a
// wake-up lands depends on the host. A target already passed returns at
// once: the hour-old one would otherwise outlast the test binary's timeout.
func TestSleepUntilNeverEarly(t *testing.T) {
	offsets := []time.Duration{
		-time.Hour, // in the past
		0,          // now
		10 * time.Microsecond,
		500 * time.Microsecond,
		guard - 50*time.Microsecond, // all of it below the guard
		guard + 50*time.Microsecond, // a coarse sleep shorter than the granule
		3 * time.Millisecond,
	}
	for _, off := range offsets {
		target := time.Now().Add(off)
		sleepUntil(target)
		if now := time.Now(); now.Before(target) {
			t.Errorf("offset %v: returned %v before the target", off, target.Sub(now))
		}
	}
}
