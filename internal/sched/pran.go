package sched

import (
	"sort"

	"rtopex/internal/trace"
)

// PRAN is the comparator modeled on PRAN (Wu et al., HotNets 2014, Table 2
// row 1): compute resources are a *dynamic* shared pool and processing is
// split at subtask granularity, but — unlike RT-OPEX — the split is decided
// *before* the subframe is processed, from load information alone. The
// planner sizes each subframe's fan-out so that the *predicted* processing
// time fits the budget, predicting the turbo decoder at PredictL
// iterations; when the channel demands more iterations than predicted, the
// plan is wrong and the subframe runs long. That inability to "account for
// processing time variations due to channel conditions" is exactly the
// paper's criticism (§6).
type PRAN struct {
	// PredictL is the iteration count the planner assumes (default 2, the
	// typical value at the evaluation SNR).
	PredictL int
	// MaxFanout bounds how many cores one subframe may claim (default 4).
	MaxFanout int
	// ForkOverheadUS is charged once per parallelized task.
	ForkOverheadUS float64

	env   *Env
	busy  []bool
	queue []*Job // EDF-ordered
}

// NewPRAN creates the planner-based comparator with its defaults.
func NewPRAN() *PRAN {
	return &PRAN{PredictL: 2, MaxFanout: 4, ForkOverheadUS: 20}
}

// Name implements Scheduler.
func (p *PRAN) Name() string { return "pran" }

// Attach implements Scheduler.
func (p *PRAN) Attach(env *Env) {
	p.env = env
	p.busy = make([]bool, env.Cores)
}

// OnArrival implements Scheduler.
func (p *PRAN) OnArrival(j *Job) {
	if !p.tryStart(j) {
		p.enqueue(j)
	}
}

func (p *PRAN) freeCores() int {
	n := 0
	for _, b := range p.busy {
		if !b {
			n++
		}
	}
	return n
}

// plannedWidth returns the smallest fan-out whose predicted span fits the
// remaining budget, or 0 if even MaxFanout does not fit.
func (p *PRAN) plannedWidth(j *Job, now float64) int {
	for w := 1; w <= p.MaxFanout; w++ {
		if now+p.span(j, w, p.predictedDecode(j)) <= j.Deadline {
			return w
		}
	}
	return 0
}

// predictedDecode is the planner's decode-time estimate: actual per-
// iteration work, assumed PredictL iterations.
func (p *PRAN) predictedDecode(j *Job) float64 {
	perIter := j.Tasks.Decode / float64(j.L)
	return perIter * float64(p.PredictL)
}

// span computes a subframe's processing time when fanned over w cores.
func (p *PRAN) span(j *Job, w int, decode float64) float64 {
	part := func(serial float64, subtasks int) float64 {
		width := w
		if subtasks < width {
			width = subtasks
		}
		if width < 1 {
			width = 1
		}
		t := serial / float64(width)
		if width > 1 {
			t += p.ForkOverheadUS
		}
		return t
	}
	return part(j.Tasks.FFT, j.FFTSubtasks) + j.Tasks.Demod + part(decode, j.DecodeSubtasks)
}

// tryStart claims cores for j if the plan admits it right now.
func (p *PRAN) tryStart(j *Job) bool {
	now := p.env.Eng.Now()
	w := p.plannedWidth(j, now)
	if w == 0 {
		// The plan says it cannot fit at any width: drop up front.
		p.env.emit(-1, j, trace.EvDrop, "plan")
		p.env.M.Record(j, OutcomeDropped, -1)
		return true
	}
	if p.freeCores() < w {
		return false
	}
	claimed := make([]int, 0, w)
	for i := range p.busy {
		if !p.busy[i] {
			p.busy[i] = true
			claimed = append(claimed, i)
			if len(claimed) == w {
				break
			}
		}
	}
	p.env.emitArg(now, claimed[0], j, trace.EvStart, "w=", trace.RenderInt, float64(w))
	// Execute with the ACTUAL decode time over the planned width; the
	// plan is never revised at runtime.
	actual := p.span(j, w, p.actualDecodeWithJitter(j))
	finish := now + actual
	out := OutcomeACK
	switch {
	case finish > j.Deadline:
		out = OutcomeLate
	case !j.Decodable:
		out = OutcomeDecodeFail
	}
	p.env.emitAt(finish, claimed[0], j, trace.EvFinish, outcomeDetail(out))
	p.env.Eng.At(finish, func() {
		p.env.M.Record(j, out, actual)
		for _, c := range claimed {
			p.busy[c] = false
		}
		p.drain()
	})
	return true
}

// actualDecodeWithJitter folds the platform-error strike into the decode
// task (parity with the other schedulers' per-job error budget).
func (p *PRAN) actualDecodeWithJitter(j *Job) float64 {
	d := j.Tasks.Decode
	if j.Index%(2+j.L) >= 2 {
		d += j.JitterUS
		if d < 0 {
			d = 0
		}
	}
	return d
}

func (p *PRAN) enqueue(j *Job) {
	i := sort.Search(len(p.queue), func(i int) bool { return p.queue[i].Deadline > j.Deadline })
	p.queue = append(p.queue, nil)
	copy(p.queue[i+1:], p.queue[i:])
	p.queue[i] = j
}

// drain admits queued subframes as cores free up, dropping expired ones.
func (p *PRAN) drain() {
	now := p.env.Eng.Now()
	for len(p.queue) > 0 {
		j := p.queue[0]
		if j.Deadline <= now {
			p.queue = p.queue[1:]
			p.env.M.Record(j, OutcomeDropped, -1)
			continue
		}
		if !p.tryStart(j) {
			return
		}
		p.queue = p.queue[1:]
	}
}

// Finalize implements Scheduler.
func (p *PRAN) Finalize() {
	for _, j := range p.queue {
		p.env.M.Record(j, OutcomeDropped, -1)
	}
	p.queue = nil
}

var _ Scheduler = (*PRAN)(nil)
