package sched

import "fmt"

// Outcome classifies how a subframe left the system.
type Outcome int

// Subframe outcomes.
const (
	// OutcomeACK: decoded successfully within the deadline.
	OutcomeACK Outcome = iota
	// OutcomeDropped: the scheduler's slack check dropped the subframe
	// before or during processing — a deadline miss.
	OutcomeDropped
	// OutcomeLate: processing finished after the deadline — a miss.
	OutcomeLate
	// OutcomeDecodeFail: processing met the deadline but the channel code
	// did not converge within Lm iterations (a NACK caused by the radio
	// link, not the scheduler). Not counted as a deadline miss.
	OutcomeDecodeFail
)

// BSMetrics aggregates per-basestation counters.
type BSMetrics struct {
	Jobs, ACK, Dropped, Late, DecodeFail int
}

// MissRate is the deadline-miss fraction (dropped + late).
func (b BSMetrics) MissRate() float64 {
	if b.Jobs == 0 {
		return 0
	}
	return float64(b.Dropped+b.Late) / float64(b.Jobs)
}

// Metrics collects everything the evaluation figures need from one run.
type Metrics struct {
	Scheduler string
	PerBS     []BSMetrics

	// Gaps record, for every subframe processed to completion, the unused
	// budget Deadline − finish. This is the scheduling gap of Fig. 16: the
	// idle window a partitioned core exposes for migration, which narrows
	// as RTT/2 eats into Tmax.
	Gaps []float64

	// Overruns record, for every subframe that completed *after* its
	// deadline (Late), the overshoot finish − Deadline — the
	// late-completion distribution, kept separate from Gaps (which would
	// otherwise need zero-clamping; see the ROADMAP note). Schedulers that
	// terminate late jobs exactly at the deadline (global) record a zero
	// overshoot. Drops record nothing (they never finish) and downlink (Tx)
	// jobs are excluded, as with Gaps.
	Overruns []float64

	// ProcTimes are realized processing durations (start → completion) of
	// jobs that ran to completion.
	ProcTimes []float64
	// RecordProcMCS, when ≥ 0, restricts ProcTimes to that MCS (Fig. 19's
	// MCS-27 distribution). Set before the run.
	RecordProcMCS int

	// Migration accounting (RT-OPEX only).
	FFTSubtasksTotal       int
	FFTSubtasksMigrated    int
	DecodeSubtasksTotal    int
	DecodeSubtasksMigrated int
	FFTBatches             int
	DecodeBatches          int
	MigrationBatches       int
	Preemptions            int // migrated batches preempted by the host core's own job
	Recoveries             int // batches whose results were recomputed locally

	// Downlink (Tx-processing) jobs, tallied separately from the uplink
	// deadline-miss metric.
	TxJobs   int
	TxMisses int
}

// TxMissRate is the downlink-encoding deadline-miss fraction.
func (m *Metrics) TxMissRate() float64 {
	if m.TxJobs == 0 {
		return 0
	}
	return float64(m.TxMisses) / float64(m.TxJobs)
}

// NewMetrics creates metrics for nBS basestations.
func NewMetrics(scheduler string, nBS int) *Metrics {
	return &Metrics{Scheduler: scheduler, PerBS: make([]BSMetrics, nBS), RecordProcMCS: -1}
}

// Record books one job outcome. procTime is the realized processing
// duration for jobs that ran to completion (ACK/Late/DecodeFail); pass a
// negative value for drops. Downlink (Tx) jobs are tallied separately so
// the headline deadline-miss rate remains the paper's uplink metric.
func (m *Metrics) Record(j *Job, o Outcome, procTime float64) {
	if j.Tx {
		m.TxJobs++
		if o == OutcomeDropped || o == OutcomeLate {
			m.TxMisses++
		}
		return
	}
	b := &m.PerBS[j.BS]
	b.Jobs++
	switch o {
	case OutcomeACK:
		b.ACK++
	case OutcomeDropped:
		b.Dropped++
	case OutcomeLate:
		b.Late++
	case OutcomeDecodeFail:
		b.DecodeFail++
	}
	if procTime >= 0 && (m.RecordProcMCS < 0 || m.RecordProcMCS == j.MCS) {
		m.ProcTimes = append(m.ProcTimes, procTime)
	}
}

// RecordGap books a subframe's completion against the deadline. ACK and
// DecodeFail completions record their unused budget Deadline − finish into
// Gaps — the usable migration window of Fig. 16. Late completions record
// their overshoot finish − Deadline into Overruns. Drops record nothing
// (no finish exists), and downlink (Tx) jobs are excluded: both series are
// uplink metrics.
func (m *Metrics) RecordGap(j *Job, o Outcome, finish float64) {
	if j.Tx {
		return
	}
	switch o {
	case OutcomeACK, OutcomeDecodeFail:
		m.Gaps = append(m.Gaps, j.Deadline-finish)
	case OutcomeLate:
		m.Overruns = append(m.Overruns, finish-j.Deadline)
	}
}

// Jobs returns the total number of completed-or-dropped subframes.
func (m *Metrics) Jobs() int {
	n := 0
	for _, b := range m.PerBS {
		n += b.Jobs
	}
	return n
}

// Misses returns the total deadline misses.
func (m *Metrics) Misses() int {
	n := 0
	for _, b := range m.PerBS {
		n += b.Dropped + b.Late
	}
	return n
}

// MissRate is the overall deadline-miss fraction.
func (m *Metrics) MissRate() float64 {
	j := m.Jobs()
	if j == 0 {
		return 0
	}
	return float64(m.Misses()) / float64(j)
}

// MigratedFFTFraction is the fraction of FFT subtasks that were migrated.
func (m *Metrics) MigratedFFTFraction() float64 {
	if m.FFTSubtasksTotal == 0 {
		return 0
	}
	return float64(m.FFTSubtasksMigrated) / float64(m.FFTSubtasksTotal)
}

// MigratedDecodeFraction is the fraction of decode subtasks migrated.
func (m *Metrics) MigratedDecodeFraction() float64 {
	if m.DecodeSubtasksTotal == 0 {
		return 0
	}
	return float64(m.DecodeSubtasksMigrated) / float64(m.DecodeSubtasksTotal)
}

// MeanDecodeBatchSize is the average number of decode subtasks per
// migration batch — the per-opportunity migration depth that shrinks as
// transport latency narrows the usable gaps (Fig. 16 right).
func (m *Metrics) MeanDecodeBatchSize() float64 {
	if m.DecodeBatches == 0 {
		return 0
	}
	return float64(m.DecodeSubtasksMigrated) / float64(m.DecodeBatches)
}

// GapFractionAbove returns the fraction of recorded gaps exceeding x µs
// (Fig. 16 left).
func (m *Metrics) GapFractionAbove(x float64) float64 {
	if len(m.Gaps) == 0 {
		return 0
	}
	n := 0
	for _, g := range m.Gaps {
		if g > x {
			n++
		}
	}
	return float64(n) / float64(len(m.Gaps))
}

func (m *Metrics) String() string {
	return fmt.Sprintf("%s: jobs=%d missRate=%.3g (dropped=%d late=%d) decodeFail=%d",
		m.Scheduler, m.Jobs(), m.MissRate(), m.totalDropped(), m.totalLate(), m.totalDecodeFail())
}

func (m *Metrics) totalDropped() int {
	n := 0
	for _, b := range m.PerBS {
		n += b.Dropped
	}
	return n
}

func (m *Metrics) totalLate() int {
	n := 0
	for _, b := range m.PerBS {
		n += b.Late
	}
	return n
}

func (m *Metrics) totalDecodeFail() int {
	n := 0
	for _, b := range m.PerBS {
		n += b.DecodeFail
	}
	return n
}
