package realtime

import (
	"rtopex/internal/obs"
	"rtopex/internal/phy"
)

// liveObs caches the registry handles the live run's hot paths update, so
// workers touch only atomics (and one histogram mutex), never the registry
// map lock. All methods are no-ops on a nil receiver.
type liveObs struct {
	subframes  *obs.Counter
	decoded    *obs.Counter
	decodeFail *obs.Counter
	missed     *obs.Counter
	dropped    *obs.Counter
	procUS     *obs.Histogram
	lateUS     *obs.Histogram
	decodeIt   *obs.Histogram
	stageUS    map[phy.TaskName]*obs.Histogram
}

func newLiveObs(reg *obs.Registry) *liveObs {
	if reg == nil {
		return nil
	}
	reg.SetHelp("rtopex_live_subframes_total", "Subframes released to the live PHY chain.")
	reg.SetHelp("rtopex_live_decoded_total", "Subframes decoded within the deadline.")
	reg.SetHelp("rtopex_live_decode_fail_total", "Subframes whose channel code failed to converge within the deadline.")
	reg.SetHelp("rtopex_live_missed_total", "Subframes completed after the deadline, decoded or not.")
	reg.SetHelp("rtopex_live_dropped_total", "Subframes dropped because the core was still busy.")
	reg.SetHelp("rtopex_live_proc_us", "Per-subframe wall-clock processing time.")
	reg.SetHelp("rtopex_live_late_us", "Tardiness of subframes that missed the deadline.")
	reg.SetHelp("rtopex_live_stage_us", "Per-pipeline-stage wall-clock time, labelled by stage.")
	reg.SetHelp("rtopex_phy_decode_iterations", "Turbo iterations per code block before CRC early termination (0 = raw-systematic precheck hit).")
	stageUS := make(map[phy.TaskName]*obs.Histogram, 4)
	for _, name := range []phy.TaskName{phy.TaskFFT, phy.TaskChEst, phy.TaskDemod, phy.TaskDecode} {
		stageUS[name] = reg.Histogram("rtopex_live_stage_us", obs.L("stage", string(name)))
	}
	return &liveObs{
		subframes:  reg.Counter("rtopex_live_subframes_total"),
		decoded:    reg.Counter("rtopex_live_decoded_total"),
		decodeFail: reg.Counter("rtopex_live_decode_fail_total"),
		missed:     reg.Counter("rtopex_live_missed_total"),
		dropped:    reg.Counter("rtopex_live_dropped_total"),
		procUS:     reg.Histogram("rtopex_live_proc_us"),
		lateUS:     reg.Histogram("rtopex_live_late_us"),
		decodeIt:   reg.Histogram("rtopex_phy_decode_iterations"),
		stageUS:    stageUS,
	}
}

// stage books the wall-clock time of one pipeline stage of one subframe.
func (l *liveObs) stage(name phy.TaskName, us float64) {
	if l == nil {
		return
	}
	if h := l.stageUS[name]; h != nil {
		h.Observe(us)
	}
}

// processed books one completed subframe under its single outcome, the
// EvFinish detail ("ack"/"late"/"decodefail"); lateUS is the tardiness of a
// late one.
func (l *liveObs) processed(outcome string, procUS, lateUS float64) {
	if l == nil {
		return
	}
	l.subframes.Inc()
	l.procUS.Observe(procUS)
	switch outcome {
	case "ack":
		l.decoded.Inc()
	case "decodefail":
		l.decodeFail.Inc()
	case "late":
		l.missed.Inc()
		l.lateUS.Observe(lateUS)
	}
}

// decodeIterations books the per-code-block turbo iteration counts of one
// decoded subframe — the early-termination shape the scheduler exploits
// (most blocks stop after one iteration at operating SNR; the histogram
// exposes the tail that runs to the cap).
func (l *liveObs) decodeIterations(blockIters []int) {
	if l == nil {
		return
	}
	for _, it := range blockIters {
		l.decodeIt.Observe(float64(it))
	}
}

func (l *liveObs) drop() {
	if l == nil {
		return
	}
	l.subframes.Inc()
	l.dropped.Inc()
}
