package flight

import (
	"fmt"
	"io"
	"strings"

	"rtopex/internal/trace"
)

// Stage is one pipeline phase of the triggering subframe, as reconstructed
// from the dossier window.
type Stage struct {
	Name    string
	StartUS float64
	DurUS   float64
}

// StageBreakdown reconstructs the triggering subframe's per-stage timing
// from the window: each EvPhase opens a stage that runs until the next
// phase (or the terminal finish/drop), so the stage durations sum exactly
// to the subframe's measured completion time (start → finish). ok is false
// when the window holds no phase events for the subframe (e.g. the ring
// had already overwritten them).
func StageBreakdown(d *Dossier) (stages []Stage, startUS, endUS float64, ok bool) {
	bs, sf := d.TriggerEvent.BS, d.TriggerEvent.Subframe
	startUS, endUS = -1, -1
	var phases []trace.Event
	for _, e := range d.Window {
		if e.BS != bs || e.Subframe != sf {
			continue
		}
		switch e.Event {
		case trace.EvStart:
			startUS = e.Time
		case trace.EvPhase:
			phases = append(phases, e)
		case trace.EvFinish, trace.EvDrop:
			endUS = e.Time
		}
	}
	if len(phases) == 0 || endUS < 0 {
		return nil, 0, 0, false
	}
	if startUS < 0 {
		// Ring overwrote the start; the first phase entry coincides with it
		// in the simulator's pipeline, so fall back to that.
		startUS = phases[0].Time
	}
	for i, p := range phases {
		end := endUS
		if i+1 < len(phases) {
			end = phases[i+1].Time
		}
		stages = append(stages, Stage{Name: p.Text(), StartUS: p.Time, DurUS: end - p.Time})
	}
	return stages, startUS, endUS, true
}

// WritePostMortem renders a dossier as a human-readable miss post-mortem:
// what tripped, the stage timeline against the budget, the scheduler and
// migration state at the trigger, core utilization, and the Go-runtime
// reading. This is the `rtoptrace -dossier` output.
func WritePostMortem(w io.Writer, d *Dossier) error {
	bw := &strings.Builder{}
	label := d.Label
	if label == "" {
		label = "?"
	}
	fmt.Fprintf(bw, "miss dossier #%d — %s at t=%.1f µs (run %q, bs %d sf %d, core %d)\n",
		d.Seq, d.Trigger, d.TriggerEvent.Time, label, d.TriggerEvent.BS, d.TriggerEvent.Subframe, d.TriggerEvent.Core)
	fmt.Fprintf(bw, "trigger event: %s %q\n", d.TriggerEvent.Event, d.TriggerEvent.Text())

	if d.DeadlineUS > 0 || d.BudgetUS > 0 {
		bw.WriteString("\nbudget window:\n")
		if d.ArrivalUS > 0 || d.DeadlineUS > 0 {
			fmt.Fprintf(bw, "  arrival %.1f µs, deadline %.1f µs", d.ArrivalUS, d.DeadlineUS)
			if d.BudgetUS > 0 {
				fmt.Fprintf(bw, " (%.0f µs budget)", d.BudgetUS)
			}
			bw.WriteByte('\n')
		} else {
			fmt.Fprintf(bw, "  budget %.0f µs\n", d.BudgetUS)
		}
	}

	if stages, start, end, ok := StageBreakdown(d); ok {
		fmt.Fprintf(bw, "\nstage timeline (bs %d sf %d):\n", d.TriggerEvent.BS, d.TriggerEvent.Subframe)
		fmt.Fprintf(bw, "  %-8s %12s %12s", "stage", "start µs", "dur µs")
		if d.BudgetUS > 0 {
			fmt.Fprintf(bw, " %12s", "% of budget")
		}
		bw.WriteByte('\n')
		for _, s := range stages {
			fmt.Fprintf(bw, "  %-8s %12.1f %12.1f", s.Name, s.StartUS, s.DurUS)
			if d.BudgetUS > 0 {
				fmt.Fprintf(bw, " %11.1f%%", 100*s.DurUS/d.BudgetUS)
			}
			bw.WriteByte('\n')
		}
		fmt.Fprintf(bw, "  completion (start→end): %.1f µs\n", end-start)
		if d.DeadlineUS > 0 {
			if over := end - d.DeadlineUS; over > 0 {
				fmt.Fprintf(bw, "  overshot deadline by %.1f µs\n", over)
			} else {
				fmt.Fprintf(bw, "  slack remaining at end: %.1f µs\n", -over)
			}
		}
	} else {
		fmt.Fprintf(bw, "\nstage timeline: unavailable (no phase events for bs %d sf %d in window)\n",
			d.TriggerEvent.BS, d.TriggerEvent.Subframe)
	}

	if migs := migrationEvents(d); len(migs) > 0 {
		bw.WriteString("\nmigration activity in window (triggering subframe):\n")
		for _, e := range migs {
			fmt.Fprintf(bw, "  t=%.1f core %d %s %s\n", e.Time, e.Core, e.Event, e.Text())
		}
	}

	if d.Sched != nil {
		bw.WriteString("\nscheduler state at trigger:\n")
		s := d.Sched
		fmt.Fprintf(bw, "  scheduler %q, t=%.1f µs\n", s.Scheduler, s.NowUS)
		if len(s.QueueDepths) > 0 {
			fmt.Fprintf(bw, "  queue depths %v\n", s.QueueDepths)
		}
		fmt.Fprintf(bw, "  running jobs %d, in-flight migration batches %d, pending engine events %d\n",
			s.RunningJobs, s.InFlightBatches, s.PendingEngineEvents)
	}

	if len(d.Cores) > 0 {
		bw.WriteString("\ncore accounting (run start → trigger):\n")
		for i, r := range d.Cores {
			fmt.Fprintf(bw, "  core %d: busy %5.1f%%  migration %5.1f%%  idle %5.1f%%\n",
				i, 100*r.Busy, 100*r.Migration, 100*r.Idle)
		}
	}

	if d.Runtime != nil {
		rt := d.Runtime
		fmt.Fprintf(bw, "\ngo runtime: heap %.1f MiB, gc cycles %d, goroutines %d, gc pause p50 %.0f µs p99 %.0f µs\n",
			float64(rt.HeapObjectsBytes)/(1<<20), rt.GCCycles, rt.Goroutines,
			rt.GCPauseP50S*1e6, rt.GCPauseP99S*1e6)
	}

	if n := len(d.Window); n > 0 {
		fmt.Fprintf(bw, "\nwindow: %d events (%d pre + %d post) spanning %.1f–%.1f µs",
			n, d.PreEvents, d.PostEvents, d.Window[0].Time, d.Window[n-1].Time)
		if d.RingDropped > 0 {
			fmt.Fprintf(bw, " (ring dropped %d older events)", d.RingDropped)
		}
		bw.WriteByte('\n')
	}
	_, err := io.WriteString(w, bw.String())
	return err
}

// migrationEvents filters the window down to migration-lifecycle events
// owned by the triggering subframe.
func migrationEvents(d *Dossier) []trace.Event {
	bs, sf := d.TriggerEvent.BS, d.TriggerEvent.Subframe
	var out []trace.Event
	for _, e := range d.Window {
		if e.BS != bs || e.Subframe != sf {
			continue
		}
		switch e.Event {
		case trace.EvMigPlan, trace.EvMigComplete, trace.EvMigPreempt,
			trace.EvMigConsume, trace.EvMigWait, trace.EvMigRecompute, trace.EvMigAbandon:
			out = append(out, e)
		}
	}
	return out
}
