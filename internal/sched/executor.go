package sched

import (
	"strconv"

	"rtopex/internal/trace"
)

// serialCore is a core that serialExec runs jobs on. A core runs one job at
// a time, so the running job's outcome lives here, and the continuation
// that frees the core is bound once per core, when the scheduler attaches,
// rather than allocated per job.
type serialCore struct {
	id   int
	busy bool
	job  *Job
	out  Outcome
	proc float64 // realized processing time; -1 for a drop
	// free fires on the engine when the core becomes free: it calls release
	// and then hands the core to the scheduler's next job.
	free func()
}

// release records the finished job's outcome and marks the core idle.
func (c *serialCore) release(env *Env) {
	env.M.Record(c.job, c.out, c.proc)
	env.M.RecordGap(c.job, c.out, env.Eng.Now())
	c.busy = false
}

// freeAt schedules the core's free continuation at t with the job's outcome.
func (c *serialCore) freeAt(env *Env, t float64, out Outcome, proc float64) {
	c.out, c.proc = out, proc
	env.Eng.At(t, c.free)
}

// serialExec runs one job's task sequence (FFT → demod → L decode
// iterations) on a single core, with the slack-based deadline enforcement
// of §4.1: before each task (and before each decode iteration — the finest
// granularity at which the receiver can abandon work), the executor checks
// whether the step's estimated time fits the remaining budget and drops the
// subframe otherwise.
//
// extra is time consumed before the chain starts (dispatch overhead, cache
// refill). The job's platform-error term strikes one phase, chosen
// deterministically per job, so both drop-on-slack and late-completion
// outcomes occur, as on the real platform.
//
// If terminateAtDeadline is set (the global scheduler's behavior), a job
// still running at its deadline is cut off there and the core freed at the
// deadline; otherwise the job runs to natural completion and is late.
//
// The core is busy from now until its free continuation fires, at the
// moment the core becomes free.
func serialExec(env *Env, c *serialCore, j *Job, extra float64, terminateAtDeadline bool) {
	c.busy, c.job = true, j
	start := env.Eng.Now()
	t := start + extra
	if env.Trace != nil {
		env.emit(c.id, j, trace.EvStart, "")
	}

	// Phase i's estimate is the FFT, the demod, then one decode iteration
	// each; its actual duration adds the jitter where it strikes.
	n := 2 + j.L
	perIter := j.Tasks.Decode / float64(j.L)
	strike := j.Index % n
	for i := 0; i < n; i++ {
		est := perIter
		switch i {
		case 0:
			est = j.Tasks.FFT
		case 1:
			est = j.Tasks.Demod
		}
		if t+est > j.Deadline {
			// Slack insufficient: drop now and free the core.
			at := t
			if at < start {
				at = start
			}
			if env.Trace != nil {
				env.emitAt(at, c.id, j, trace.EvDrop, serialPhaseName(i))
			}
			c.freeAt(env, at, OutcomeDropped, -1)
			return
		}
		if env.Trace != nil {
			env.emitAt(t, c.id, j, trace.EvPhase, serialPhaseName(i))
		}
		actual := est
		if i == strike {
			actual += j.JitterUS
			if actual < 0 {
				actual = 0
			}
		}
		t += actual
		if terminateAtDeadline && t > j.Deadline {
			if env.Trace != nil {
				env.emitAt(j.Deadline, c.id, j, trace.EvFinish, outcomeDetail(OutcomeLate))
			}
			c.freeAt(env, j.Deadline, OutcomeLate, j.Deadline-start)
			return
		}
	}

	finish := t
	out := OutcomeACK
	switch {
	case finish > j.Deadline:
		out = OutcomeLate
	case !j.Decodable:
		out = OutcomeDecodeFail
	}
	if env.Trace != nil {
		env.emitAt(finish, c.id, j, trace.EvFinish, outcomeDetail(out))
	}
	c.freeAt(env, finish, out, finish-start)
}

// decodePhaseNames covers the iteration caps in use (the paper's Lm is 4);
// serialPhaseName falls back to formatting beyond it.
var decodePhaseNames = [...]string{
	"decode0", "decode1", "decode2", "decode3", "decode4", "decode5", "decode6", "decode7",
}

// serialPhaseName labels serialExec's phase i for the trace.
func serialPhaseName(i int) string {
	switch {
	case i == 0:
		return "fft"
	case i == 1:
		return "demod"
	case i-2 < len(decodePhaseNames):
		return decodePhaseNames[i-2]
	}
	return "decode" + strconv.Itoa(i-2)
}

// outcomeDetail is the trace detail string of a terminal outcome.
func outcomeDetail(o Outcome) string {
	switch o {
	case OutcomeACK:
		return "ack"
	case OutcomeDropped:
		return "drop"
	case OutcomeLate:
		return "late"
	case OutcomeDecodeFail:
		return "decodefail"
	}
	return "unknown"
}
