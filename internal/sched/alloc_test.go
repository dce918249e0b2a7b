package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"rtopex/internal/trace"
)

// tracedDigest runs w under s with every event retained and hashes the full
// event log followed by the metrics document.
func tracedDigest(t *testing.T, w *Workload, s Scheduler) (string, *Metrics) {
	t.Helper()
	ring := trace.NewRing(0)
	m, err := RunConfigured(w, s, RunConfig{Cores: 8, Tracer: ring})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	log := &trace.EventLog{Scheduler: m.Scheduler, Cores: 8, Events: ring.Events()}
	if err := log.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(h).Encode(m); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), m
}

// TestEventLogMatchesPreRefactorCapture pins the simulator's observable
// behaviour: a jittery traced run's full event log and metrics must repeat
// exactly and equal the digest captured on the same seed at commit 880584c,
// before the engine's queue and the schedulers' per-job state were made
// allocation-free. RT-OPEX's run is the one with teeth: a preempted batch
// recomputed by its owner while the next task already reuses the same host
// is where a stale batch-completion event acting on a recycled batch would
// show up, as a different migrate-complete sequence.
func TestEventLogMatchesPreRefactorCapture(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Scheduler
		want string
	}{
		{"rt-opex", func() Scheduler { return NewRTOPEX(2) }, "ef542cf85fa7cfe815f8edcc25d714dfed1ce1cb7fa782e953b99e4f3b6a01ff"},
		{"rt-opex-nowait", func() Scheduler { r := NewRTOPEX(2); r.NoWait = true; return r }, "d2180b24076efa9dafb483089c3d04f7ff1e2c5f1f35fe372e17d4871a509edb"},
		{"partitioned", func() Scheduler { return NewPartitioned(2) }, "eba0c3839c5af19eade9973caad67ef6e5163a9083190ca2adeb53e1a2047b81"},
		{"global", func() Scheduler { return NewGlobal() }, "51ee921aa073387d1ada6e16ba6559f6125a287596e597ef9ce0eef3d2170b9c"},
	}
	for _, c := range cases {
		w := jitteryWorkload(t, 2000, 13)
		a, m := tracedDigest(t, w, c.mk())
		b, _ := tracedDigest(t, w, c.mk())
		if a != b {
			t.Errorf("%s: two runs of one workload differ: %s vs %s", c.name, a, b)
		}
		if c.name == "rt-opex" && (m.Preemptions == 0 || m.Recoveries == 0) {
			t.Errorf("rt-opex run has %d preemptions, %d recoveries; the capture does not exercise recovery",
				m.Preemptions, m.Recoveries)
		}
		// The workload's task times pass through libm, whose last-ulp
		// rounding (and FMA fusing) differs by architecture; the capture is
		// from amd64.
		if runtime.GOARCH != "amd64" {
			continue
		}
		if a != c.want {
			t.Errorf("%s: digest %s, captured before the rewrite %s", c.name, a, c.want)
		}
	}
}

// TestRunAllocationCeiling holds a run to the allocations that do not grow
// with its length: the schedulers' per-core state, the metrics' slices and
// the engine's heap. The arrival lane enters the engine without a closure
// per job and the serial executor's continuations are bound per core, so a
// closure per job or per phase, a slice per planned task or a boxed queue
// entry each add at least one allocation per subframe and break the
// ceiling twenty times over.
func TestRunAllocationCeiling(t *testing.T) {
	w := jitteryWorkload(t, 2000, 3)
	jobs := 0
	for _, bs := range w.Jobs {
		jobs += len(bs)
	}
	for _, c := range []struct {
		name    string
		mk      func() Scheduler
		ceiling float64 // allocations per subframe
	}{
		{"rt-opex", func() Scheduler { return NewRTOPEX(2) }, 0.05},
		{"partitioned", func() Scheduler { return NewPartitioned(2) }, 0.05},
		{"global", func() Scheduler { return NewGlobal() }, 0.05},
	} {
		perRun := testing.AllocsPerRun(3, func() {
			if _, err := Run(w, c.mk(), 8); err != nil {
				t.Fatal(err)
			}
		})
		if got := perRun / float64(jobs); got > c.ceiling {
			t.Errorf("%s: %.2f allocations per subframe, ceiling %v", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %.2f allocations per subframe", c.name, got)
		}
	}
}
