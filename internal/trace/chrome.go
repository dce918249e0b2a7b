package trace

// Chrome trace_event export: renders an EventLog in the JSON format the
// chrome://tracing and Perfetto UIs load, so a run's per-core schedule can
// be inspected interactively instead of through the ASCII timeline. Each
// core becomes one thread lane carrying B/E duration slices for jobs, their
// pipeline phases nested inside, and hosted migration batches; arrivals and
// the owner-side batch resolutions render as instant events. Times are
// already microseconds, the trace_event native unit.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one trace_event record. Field order fixes the JSON key
// order, so the export is deterministic.
type chromeEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// chromeTID maps a core to its thread lane. Core −1 (no core chosen yet:
// arrivals) gets the dedicated transport lane 0; core c is lane c+1.
func chromeTID(core int) int {
	if core < 0 {
		return 0
	}
	return core + 1
}

// WriteChromeTrace serializes the log for chrome://tracing / Perfetto
// ("Trace Event Format", JSON object form). The output is deterministic:
// identical logs produce byte-identical documents.
func (l *EventLog) WriteChromeTrace(w io.Writer) error {
	evs := make([]Event, len(l.Events))
	copy(evs, l.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })

	var out []chromeEvent
	emit := func(e chromeEvent) { out = append(out, e) }
	instant := func(ev Event, name string, args map[string]string) {
		emit(chromeEvent{Name: name, Phase: "i", TS: ev.Time,
			PID: 1, TID: chromeTID(ev.Core), Scope: "t", Args: args})
	}
	jobName := func(ev Event) string { return fmt.Sprintf("sf %d:%d", ev.BS, ev.Subframe) }

	// Replay state per core: the open job slice and its open phase slice.
	type open struct {
		job   string
		phase bool
	}
	jobs := map[int]*open{}
	batches := map[int]string{} // host core → open batch slice name
	maxCore := -1
	closePhase := func(core int, t float64) {
		if o := jobs[core]; o != nil && o.phase {
			emit(chromeEvent{Name: "phase", Phase: "E", TS: t, PID: 1, TID: chromeTID(core)})
			o.phase = false
		}
	}
	closeJob := func(core int, t float64, outcome string) {
		o := jobs[core]
		if o == nil {
			return
		}
		closePhase(core, t)
		var args map[string]string
		if outcome != "" {
			args = map[string]string{"outcome": outcome}
		}
		emit(chromeEvent{Name: o.job, Phase: "E", TS: t, PID: 1, TID: chromeTID(core), Args: args})
		delete(jobs, core)
	}
	for _, ev := range evs {
		if ev.Core > maxCore {
			maxCore = ev.Core
		}
		switch ev.Event {
		case EvArrive:
			instant(ev, "arrive "+jobName(ev), nil)
		case EvStart:
			// A start on a core with a still-open job means the trace lost
			// that job's terminal event (ring overflow); close it first so
			// the B/E nesting stays balanced.
			closeJob(ev.Core, ev.Time, "")
			jobs[ev.Core] = &open{job: jobName(ev)}
			emit(chromeEvent{Name: jobName(ev), Phase: "B", TS: ev.Time, PID: 1, TID: chromeTID(ev.Core)})
		case EvPhase:
			if o := jobs[ev.Core]; o != nil {
				closePhase(ev.Core, ev.Time)
				emit(chromeEvent{Name: ev.Text(), Phase: "B", TS: ev.Time, PID: 1, TID: chromeTID(ev.Core)})
				o.phase = true
			}
		case EvDrop:
			if jobs[ev.Core] != nil {
				closeJob(ev.Core, ev.Time, "drop")
			}
			instant(ev, "drop "+jobName(ev), map[string]string{"at": ev.Text()})
		case EvFinish:
			closeJob(ev.Core, ev.Time, ev.Text())
		case EvMigPlan:
			name := "batch " + jobName(ev)
			batches[ev.Core] = name
			emit(chromeEvent{Name: name, Phase: "B", TS: ev.Time, PID: 1, TID: chromeTID(ev.Core),
				Args: map[string]string{"what": ev.Text()}})
		case EvMigComplete, EvMigPreempt, EvMigAbandon:
			if name, ok := batches[ev.Core]; ok {
				emit(chromeEvent{Name: name, Phase: "E", TS: ev.Time, PID: 1, TID: chromeTID(ev.Core),
					Args: map[string]string{"end": ev.Event.String()}})
				delete(batches, ev.Core)
			} else {
				instant(ev, ev.Event.String()+" "+jobName(ev), nil)
			}
		case EvMigConsume, EvMigWait, EvMigRecompute:
			var args map[string]string
			if d := ev.Text(); d != "" {
				args = map[string]string{"detail": d}
			}
			instant(ev, ev.Event.String()+" "+jobName(ev), args)
		}
	}
	// Slices still open at the end of the trace never got their terminal
	// event (truncated run): close them at the last timestamp so viewers
	// don't discard them.
	last := 0.0
	if len(evs) > 0 {
		last = evs[len(evs)-1].Time
	}
	for core := 0; core <= maxCore; core++ {
		closeJob(core, last, "")
		if name, ok := batches[core]; ok {
			emit(chromeEvent{Name: name, Phase: "E", TS: last, PID: 1, TID: chromeTID(core)})
		}
	}

	// Metadata names the process and lanes. Chrome sorts lanes by tid, so
	// the transport lane leads and cores follow in order.
	nCores := l.Cores
	if maxCore+1 > nCores {
		nCores = maxCore + 1
	}
	proc := "rtopex"
	if l.Scheduler != "" {
		proc = "rtopex " + l.Scheduler
	}
	meta := []chromeEvent{{Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]string{"name": proc}}}
	meta = append(meta, chromeEvent{Name: "thread_name", Phase: "M", PID: 1, TID: 0,
		Args: map[string]string{"name": "transport"}})
	for c := 0; c < nCores; c++ {
		meta = append(meta, chromeEvent{Name: "thread_name", Phase: "M", PID: 1, TID: chromeTID(c),
			Args: map[string]string{"name": fmt.Sprintf("core %d", c)}})
	}
	all := append(meta, out...)

	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, e := range all {
		if i > 0 {
			bw.WriteString(",\n")
		}
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("trace: chrome export: %v", err)
		}
		bw.Write(b)
	}
	fmt.Fprintln(bw, "]}")
	return bw.Flush()
}
