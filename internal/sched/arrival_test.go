package sched

import (
	"cmp"
	"encoding/json"
	"math"
	"slices"
	"sync"
	"testing"

	"rtopex/internal/lte"
	"rtopex/internal/model"
	"rtopex/internal/trace"
	"rtopex/internal/transport"
)

// stableArrivalOrder is the reference for a workload's arrival lane: the
// basestation-major concatenation of its jobs, stable-sorted by Arrival.
func stableArrivalOrder(w *Workload) []*Job {
	var ref []*Job
	for bs := range w.Jobs {
		for j := range w.Jobs[bs] {
			ref = append(ref, &w.Jobs[bs][j])
		}
	}
	slices.SortStableFunc(ref, func(a, b *Job) int { return cmp.Compare(a.Arrival, b.Arrival) })
	return ref
}

// TestArrivalLaneIsStableSort: the arrival lane equals a stable sort of
// the basestation-major concatenation by Arrival, in the three shapes that
// stress the merge — downlink runs after each basestation's uplink run, a
// transport wide enough to reorder one basestation's own arrivals, and
// arrivals that tie across basestations.
func TestArrivalLaneIsStableSort(t *testing.T) {
	cfg := func(tr transport.Sampler, downlink bool) WorkloadConfig {
		return WorkloadConfig{
			Basestations: 4, Subframes: 300, Antennas: 2, Bandwidth: lte.BW10MHz,
			SNRdB: 30, Lm: 4,
			Params: model.PaperGPP, Jitter: model.DefaultJitter, IterLaw: model.DefaultIterationLaw,
			Profiles: trace.DefaultProfiles, FixedMCS: -1,
			IncludeDownlink: downlink,
			Transport:       tr,
			ExpectedRTT2US:  550,
			Seed:            9,
		}
	}
	cases := []struct {
		name  string
		cfg   WorkloadConfig
		teeth func(w *Workload) bool // the case exercises what it names
	}{
		{"downlink", cfg(jitteryTransport{mean: 550, spread: 120}, true), func(w *Workload) bool {
			return w.Jobs[0][len(w.Jobs[0])-1].Tx
		}},
		{"wide-spread", cfg(jitteryTransport{mean: 1500, spread: 1400}, false), func(w *Workload) bool {
			for _, jobs := range w.Jobs {
				for j := 1; j < len(jobs); j++ {
					if jobs[j].Arrival < jobs[j-1].Arrival {
						return true
					}
				}
			}
			return false
		}},
		{"cross-bs-ties", cfg(transport.FixedPath{OneWay: 550}, true), func(w *Workload) bool {
			return w.Jobs[0][3].Arrival == w.Jobs[1][3].Arrival
		}},
	}
	for _, c := range cases {
		w, err := BuildWorkload(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !c.teeth(w) {
			t.Fatalf("%s: the workload does not have the shape the case names", c.name)
		}
		got, at := w.arrivalLane()
		want := stableArrivalOrder(w)
		if len(got) != len(want) || len(at) != len(want) {
			t.Fatalf("%s: lane of %d jobs and %d times, want %d", c.name, len(got), len(at), len(want))
		}
		for i := range want {
			if got[i] != want[i] || at[i] != want[i].Arrival {
				t.Fatalf("%s: lane entry %d is bs %d job %d at %v, stable sort says bs %d job %d at %v",
					c.name, i, got[i].BS, got[i].Index, at[i], want[i].BS, want[i].Index, want[i].Arrival)
			}
		}
	}
}

// TestWorkloadSharedAcrossGoroutines: goroutines whose runs of one workload
// are its first compute its arrival lane once between them (run it under
// -race) and each gets the metrics a serial run of the same job set gets.
func TestWorkloadSharedAcrossGoroutines(t *testing.T) {
	encode := func(m *Metrics) string {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	serial, err := Run(jitteryWorkload(t, 500, 4), NewRTOPEX(2), 8)
	if err != nil {
		t.Fatal(err)
	}
	want := encode(serial)

	w := jitteryWorkload(t, 500, 4)
	got := make([]*Metrics, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := Run(w, NewRTOPEX(2), 8)
			if err != nil {
				t.Error(err)
			}
			got[g] = m
		}()
	}
	wg.Wait()
	for g, m := range got {
		if m == nil || encode(m) != want {
			t.Errorf("goroutine %d: metrics differ from a serial run", g)
		}
	}
}

// TestNaNArrivalPanics: a NaN arrival is a workload bug, and the run
// panics on it as the engine's At does.
func TestNaNArrivalPanics(t *testing.T) {
	w := jitteryWorkload(t, 50, 1)
	w.Jobs[2][7].Arrival = math.NaN()
	defer func() {
		if recover() == nil {
			t.Fatal("a workload with a NaN arrival ran")
		}
	}()
	Run(w, NewPartitioned(2), 8)
}

// BenchmarkArrivalOrder is the one-off cost a workload's first run pays
// for its arrival lane: 4 basestations × 10 000 subframes under jittery
// transport, the sim-rtopex workload's shape.
func BenchmarkArrivalOrder(b *testing.B) {
	w := jitteryWorkload(b, 10_000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		(&Workload{Jobs: w.Jobs}).arrivalLane()
	}
}
