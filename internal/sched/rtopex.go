package sched

import (
	"math"

	"rtopex/internal/trace"
)

// RTOPEX is the paper's contribution (§3.2): a partitioned schedule
// underneath, plus opportunistic migration of parallelizable subtasks (FFT
// and turbo decode) into the idle gaps of other cores at runtime.
//
// A processing thread reaching a parallelizable task queries the shared CPU
// state, predicts each idle core's free window fck from the deterministic
// subframe arrival pattern, and applies Algorithm 1 to choose how many
// subtasks to offload. Migrated batches execute on the host core until they
// finish or the host's own subframe arrives (preemption). When the local
// thread finishes its share, it consumes ready results; results that are
// not ready are either awaited (when that is provably cheaper) or
// recomputed locally — the recovery path that makes RT-OPEX never worse
// than the serial baseline.
type RTOPEX struct {
	// CoresPerBS is the underlying partitioned schedule's ⌈Tmax⌉.
	CoresPerBS int
	// DeltaUS is the migration overhead δ (§4.4 measures ≈18–20 µs per
	// migrated task). By default it is charged once per migrated batch,
	// matching the measurement ("the cost of migration is fixed across the
	// subtasks" — one OAI context fetch per migration); set PerSubtaskDelta
	// for Algorithm 1's literal ⌊fck/(tp+δ)⌋ accounting.
	DeltaUS         float64
	PerSubtaskDelta bool
	// MigrateFFT / MigrateDecode enable migration per task type.
	MigrateFFT    bool
	MigrateDecode bool
	// GreedyAll is an ablation that drops requirements R2/R3 and offloads
	// as much as the free windows allow.
	GreedyAll bool
	// NoWait is an ablation forcing the paper-literal recovery: the local
	// thread never waits for an unfinished batch, always recomputing,
	// even when the batch is within microseconds of completion.
	NoWait bool

	env   *Env
	cores []*rcore

	// planTask's candidate hosts, their free windows and Algorithm 1's
	// counts; scratch reused across calls.
	hosts  []*rcore
	free   []float64
	counts []int
	// spare holds batches ready for reuse: released by their owner and
	// past their completion event (see recycle).
	spare []*migBatch
}

type rcore struct {
	id   int
	bs   int // owning basestation under the partitioned schedule
	slot int // subframe phase: handles indices ≡ slot (mod CoresPerBS)

	running bool
	batch   *migBatch // non-nil while hosting a migrated batch
	pending []*Job

	// A core runs one job at a time, so the running job's phase state lives
	// here and the five continuations of a subframe are bound once in Attach
	// rather than allocated per phase.
	job     *Job
	start   float64     // when the job got the core
	strike  int         // phase the job's jitter strikes
	at      float64     // when the scheduled continuation fires
	batches []*migBatch // the current parallel task's migrated batches

	fftLocalDone, fftJoined, demodDone, decodeLocalDone, decodeJoined func()
}

// migBatch is a set of subtasks executing on a host core on behalf of a
// job running elsewhere.
type migBatch struct {
	host        *rcore
	owner       *Job // the job whose subtasks the batch carries
	decode      bool // decode batch (else FFT)
	count       int
	tp          float64
	start       float64
	preemptedAt float64 // < 0 when not preempted
	released    bool    // owner consumed or abandoned the batch
	ended       bool    // the natural-completion event has fired
	complete    func()  // that event, bound when the batch is first allocated
}

// NewRTOPEX creates an RT-OPEX scheduler with the paper's defaults.
func NewRTOPEX(coresPerBS int) *RTOPEX {
	if coresPerBS < 1 {
		coresPerBS = 1
	}
	return &RTOPEX{
		CoresPerBS:    coresPerBS,
		DeltaUS:       20,
		MigrateFFT:    true,
		MigrateDecode: true,
	}
}

// Name implements Scheduler.
func (r *RTOPEX) Name() string { return "rt-opex" }

// Attach implements Scheduler.
func (r *RTOPEX) Attach(env *Env) {
	r.env = env
	r.cores = make([]*rcore, env.Cores)
	for i := range r.cores {
		c := &rcore{id: i, bs: i / r.CoresPerBS, slot: i % r.CoresPerBS}
		c.fftLocalDone = func() {
			c.at = r.join(c.at, c.job.FFTSubtaskUS, c.batches)
			env.Eng.At(c.at, c.fftJoined)
		}
		c.fftJoined = func() { r.phaseDemod(c, c.at) }
		c.demodDone = func() { r.phaseDecode(c, c.at) }
		c.decodeLocalDone = func() {
			c.at = r.join(c.at, c.job.DecodeSubtaskUS, c.batches)
			env.Eng.At(c.at, c.decodeJoined)
		}
		c.decodeJoined = func() { r.finishDecode(c, c.at) }
		r.cores[i] = c
	}
}

// OnArrival implements Scheduler.
func (r *RTOPEX) OnArrival(j *Job) {
	idx := j.BS*r.CoresPerBS + j.Index%r.CoresPerBS
	if idx >= len(r.cores) {
		r.env.M.Record(j, OutcomeDropped, -1)
		return
	}
	c := r.cores[idx]
	if c.running {
		c.pending = append(c.pending, j)
		return
	}
	if c.batch != nil && c.batch.preemptedAt < 0 {
		// The host's own subframe preempts the migrated batch (state 2 →
		// state 3 in Fig. 12).
		c.batch.preemptedAt = r.env.Eng.Now()
		r.env.M.Preemptions++
		r.env.emit(c.id, c.batch.owner, trace.EvMigPreempt, "")
		c.batch = nil
	}
	r.startJob(c, j)
}

func (r *RTOPEX) startJob(c *rcore, j *Job) {
	now := r.env.Eng.Now()
	c.running = true
	c.job, c.start = j, now
	// Jitter strike phase: same per-job placement rule as serialExec so
	// workloads are comparable across schedulers.
	c.strike = j.Index % (2 + j.L)
	r.env.emit(c.id, j, trace.EvStart, "")
	r.phaseFFT(c, now)
}

// phaseFFT runs the FFT task, migrating subtasks if enabled.
func (r *RTOPEX) phaseFFT(c *rcore, now float64) {
	j := c.job
	r.env.emit(c.id, j, trace.EvPhase, "fft")
	r.env.M.FFTSubtasksTotal += j.FFTSubtasks
	local := r.planTask(c, now, j.FFTSubtasks, j.FFTSubtaskUS, r.MigrateFFT, false)
	localTime := float64(local) * j.FFTSubtaskUS
	if now+localTime > j.Deadline {
		r.abandon(c.batches, now)
		r.env.emit(c.id, j, trace.EvDrop, "fft")
		r.finishJob(c, OutcomeDropped, -1, now)
		return
	}
	r.env.M.FFTSubtasksMigrated += migratedCount(c.batches)
	if c.strike == 0 {
		localTime = math.Max(0, localTime+j.JitterUS)
	}
	c.at = now + localTime
	r.env.Eng.At(c.at, c.fftLocalDone)
}

// phaseDemod runs the (serial) demod task.
func (r *RTOPEX) phaseDemod(c *rcore, now float64) {
	j := c.job
	if now+j.Tasks.Demod > j.Deadline {
		r.env.emit(c.id, j, trace.EvDrop, "demod")
		r.finishJob(c, OutcomeDropped, -1, now)
		return
	}
	r.env.emit(c.id, j, trace.EvPhase, "demod")
	actual := j.Tasks.Demod
	if c.strike == 1 {
		actual = math.Max(0, actual+j.JitterUS)
	}
	c.at = now + actual
	r.env.Eng.At(c.at, c.demodDone)
}

// phaseDecode runs the decode task, migrating code blocks if enabled.
func (r *RTOPEX) phaseDecode(c *rcore, now float64) {
	j := c.job
	r.env.emit(c.id, j, trace.EvPhase, "decode")
	r.env.M.DecodeSubtasksTotal += j.DecodeSubtasks
	local := r.planTask(c, now, j.DecodeSubtasks, j.DecodeSubtaskUS, r.MigrateDecode, true)
	localTime := float64(local) * j.DecodeSubtaskUS
	if now+localTime > j.Deadline {
		r.abandon(c.batches, now)
		r.env.emit(c.id, j, trace.EvDrop, "decode")
		r.finishJob(c, OutcomeDropped, -1, now)
		return
	}
	r.env.M.DecodeSubtasksMigrated += migratedCount(c.batches)
	if c.strike >= 2 {
		localTime = math.Max(0, localTime+j.JitterUS)
	}
	c.at = now + localTime
	r.env.Eng.At(c.at, c.decodeLocalDone)
}

// finishDecode completes the job once its decode task has joined at finish.
func (r *RTOPEX) finishDecode(c *rcore, finish float64) {
	out := OutcomeACK
	switch {
	case finish > c.job.Deadline:
		out = OutcomeLate
	case !c.job.Decodable:
		out = OutcomeDecodeFail
	}
	r.finishJob(c, out, finish-c.start, finish)
}

func (r *RTOPEX) finishJob(c *rcore, out Outcome, proc float64, at float64) {
	j := c.job
	r.env.M.Record(j, out, proc)
	r.env.M.RecordGap(j, out, at)
	if out != OutcomeDropped {
		// Drops already emitted EvDrop with the failing phase.
		r.env.emitAt(at, c.id, j, trace.EvFinish, outcomeDetail(out))
	}
	c.running = false
	if len(c.pending) > 0 {
		next := c.pending[0]
		c.pending = c.pending[1:]
		r.startJob(c, next)
	}
}

// planTask applies Algorithm 1 across currently idle cores and installs the
// migrated batches in c.batches. It returns the number of subtasks kept
// local.
func (r *RTOPEX) planTask(c *rcore, now float64, subtasks int, tp float64, enabled bool, decode bool) int {
	c.batches = c.batches[:0]
	if !enabled || subtasks <= 1 || tp <= 0 {
		return subtasks
	}
	j := c.job
	hosts, free := r.hosts[:0], r.free[:0]
	for _, k := range r.cores {
		if k == c || k.running || k.batch != nil {
			continue
		}
		// The usable window is bounded both by the host's next own
		// subframe and by the migrating job's deadline: a batch completing
		// past the deadline cannot save the subframe.
		fck := math.Min(r.predictedNextPreemption(k, now), j.Deadline) - now
		if fck <= 0 {
			continue
		}
		hosts = append(hosts, k)
		free = append(free, fck)
	}
	r.hosts, r.free = hosts, free
	if len(hosts) == 0 {
		return subtasks
	}
	r.counts = algorithm1Into(r.counts, subtasks, tp, r.DeltaUS, r.PerSubtaskDelta, r.GreedyAll, free)
	local := subtasks
	for i, n := range r.counts {
		if n <= 0 {
			continue
		}
		b := r.newBatch()
		b.host, b.owner, b.decode, b.count, b.tp, b.start = hosts[i], j, decode, n, tp, now
		b.preemptedAt, b.released, b.ended = -1, false, false
		hosts[i].batch = b
		local -= n
		c.batches = append(c.batches, b)
		r.env.M.MigrationBatches++
		if decode {
			r.env.M.DecodeBatches++
		} else {
			r.env.M.FFTBatches++
		}
		r.env.emitArg(r.env.Eng.Now(), b.host.id, j, trace.EvMigPlan, planPrefix(decode), trace.RenderInt, float64(n))
		r.env.Eng.At(r.batchEnd(b), b.complete)
	}
	return local
}

// newBatch takes a batch from the spare list or allocates one, binding its
// completion event once.
func (r *RTOPEX) newBatch() *migBatch {
	if n := len(r.spare); n > 0 {
		b := r.spare[n-1]
		r.spare = r.spare[:n-1]
		return b
	}
	b := &migBatch{}
	b.complete = func() {
		// Natural completion releases the host (state 2 → state 1).
		if b.host.batch == b && b.preemptedAt < 0 {
			b.host.batch = nil
			r.env.emit(b.host.id, b.owner, trace.EvMigComplete, "")
		}
		b.ended = true
		r.recycle(b)
	}
	return b
}

// recycle makes b reusable once nothing refers to it any more: its owner
// has released it and its completion event has fired. Either can come
// first — a preempted or abandoned batch is released before its event, a
// consumed one after — and reusing a batch whose event is still queued
// would let that stale event release the next tenant's host.
func (r *RTOPEX) recycle(b *migBatch) {
	if b.released && b.ended {
		r.spare = append(r.spare, b)
	}
}

// batchEnd is the natural completion time of a batch on its host.
func (r *RTOPEX) batchEnd(b *migBatch) float64 {
	if r.PerSubtaskDelta {
		return b.start + float64(b.count)*(b.tp+r.DeltaUS)
	}
	return b.start + r.DeltaUS + float64(b.count)*b.tp
}

// completedBy returns how many of the batch's subtasks finished by time t.
func (r *RTOPEX) completedBy(b *migBatch, t float64) int {
	var done float64
	if r.PerSubtaskDelta {
		done = (t - b.start) / (b.tp + r.DeltaUS)
	} else {
		done = (t - b.start - r.DeltaUS) / b.tp
	}
	n := int(math.Floor(done))
	if n < 0 {
		n = 0
	}
	if n > b.count {
		n = b.count
	}
	return n
}

// join resolves all migrated batches when the local share completes at
// localFinish: ready results are consumed; preempted or slow batches are
// recovered by local recomputation (or awaited when provably cheaper and
// NoWait is unset). It returns the task completion time.
func (r *RTOPEX) join(localFinish, tp float64, batches []*migBatch) float64 {
	finish := localFinish
	var recovery float64
	for _, b := range batches {
		switch {
		case b.preemptedAt >= 0:
			// Result not ready: host was preempted (state 6 recovery).
			unfinished := b.count - r.completedBy(b, b.preemptedAt)
			if unfinished > 0 {
				recovery += float64(unfinished) * tp
				r.env.M.Recoveries++
				r.env.emitArg(localFinish, b.host.id, b.owner, trace.EvMigRecompute,
					"n= preempted", trace.RenderInt, float64(unfinished))
			} else {
				// Preempted after every subtask finished: results usable.
				r.env.emitAt(localFinish, b.host.id, b.owner, trace.EvMigConsume, "")
			}
		default:
			end := r.batchEnd(b)
			if end <= localFinish {
				r.env.emitAt(localFinish, b.host.id, b.owner, trace.EvMigConsume, "")
				break // result ready
			}
			// Batch still running: recompute or wait, whichever is
			// cheaper (recompute-only when NoWait).
			unfinished := b.count - r.completedBy(b, localFinish)
			recompute := float64(unfinished) * tp
			wait := end - localFinish
			if r.NoWait || recompute < wait {
				recovery += recompute
				r.env.M.Recoveries++
				r.env.emitArg(localFinish, b.host.id, b.owner, trace.EvMigRecompute,
					"n= slow", trace.RenderInt, float64(unfinished))
				// Host abandons the rest of the batch immediately.
				if b.host.batch == b {
					b.host.batch = nil
				}
			} else {
				r.env.emitArg(localFinish, b.host.id, b.owner, trace.EvMigWait, "us", trace.RenderG3, wait)
				if end > finish {
					finish = end
				}
			}
		}
		b.released = true
		r.recycle(b)
	}
	return finish + recovery
}

// abandon cancels planned batches when the owner drops the job, reversing
// the migration counters planTask booked: an abandoned batch never ran on
// behalf of a completed subframe, so counting it would inflate the
// migration fractions of Fig. 16 with work that was thrown away.
func (r *RTOPEX) abandon(batches []*migBatch, now float64) {
	for _, b := range batches {
		r.env.M.MigrationBatches--
		if b.decode {
			r.env.M.DecodeBatches--
		} else {
			r.env.M.FFTBatches--
		}
		r.env.emitAt(now, b.host.id, b.owner, trace.EvMigAbandon, "")
		if b.host.batch == b && b.preemptedAt < 0 {
			b.host.batch = nil
		}
		b.released = true
		r.recycle(b)
	}
}

// predictedNextPreemption estimates when core k must next be surrendered to
// its own subframe: the scheduler knows the deterministic 1 ms frame clock
// (the watchdog's global reference time) and the expected transport
// latency, so the next preemption is the earliest expected arrival
// gen + E[RTT/2] after now. This correctly accounts for in-flight
// subframes — ones already generated but still crossing the transport —
// which would otherwise preempt a freshly placed batch almost immediately.
// Past the end of the trace it returns +Inf.
func (r *RTOPEX) predictedNextPreemption(k *rcore, now float64) float64 {
	c := float64(r.CoresPerBS)
	// Expected arrivals for this core: (slot + m·c)·1000 + E[RTT/2].
	first := float64(k.slot)*1000 + r.env.ExpectedRTT2
	t := first
	if now >= first {
		m := math.Ceil((now - first) / (1000 * c))
		t = first + m*1000*c
		if t <= now {
			t += 1000 * c
		}
	}
	// Index bound: no arrivals after the last subframe.
	idx := k.slot + int((t-first)/1000+0.5)
	if idx >= r.env.SubframesPerBS {
		return math.Inf(1)
	}
	return t
}

// planPrefix opens a planned batch's trace detail with its task type; the
// batch's subtask count follows the '='.
func planPrefix(decode bool) string {
	if decode {
		return "decode n="
	}
	return "fft n="
}

func migratedCount(batches []*migBatch) int {
	n := 0
	for _, b := range batches {
		n += b.count
	}
	return n
}

// Finalize implements Scheduler.
func (r *RTOPEX) Finalize() {}

// Algorithm1 is the migration allocation of the paper's Alg. 1: given P
// subtasks of duration tp, the migration overhead δ, and the free time
// windows of candidate idle cores, it returns how many subtasks to offload
// to each core. The three requirements:
//
//	R1: noff ≤ limoff — the batch must fit the core's free window;
//	R2: S − noff ≥ maxoff — keep at least as many local subtasks as the
//	    largest batch already offloaded, so the local thread finishes last;
//	R3: noff ≤ ⌊S/2⌋ — never offload more than remain.
//
// greedy drops R2/R3 (ablation). perSubtaskDelta charges δ per subtask in
// limoff (the listing's ⌊fck/(tp+δ)⌋); otherwise δ is charged once per
// batch.
func Algorithm1(p int, tp, delta float64, perSubtaskDelta, greedy bool, free []float64) []int {
	return algorithm1Into(nil, p, tp, delta, perSubtaskDelta, greedy, free)
}

// algorithm1Into is Algorithm1 writing its counts into dst's backing array
// when that is large enough for one count per window.
func algorithm1Into(dst []int, p int, tp, delta float64, perSubtaskDelta, greedy bool, free []float64) []int {
	if cap(dst) < len(free) {
		dst = make([]int, len(free))
	}
	counts := dst[:len(free)]
	clear(counts)
	if p <= 1 || tp <= 0 {
		return counts
	}
	s := p
	maxoff := 0
	for k := range free {
		if s <= 1 {
			break
		}
		var limoff int
		if perSubtaskDelta {
			limoff = int(math.Floor(free[k] / (tp + delta)))
		} else {
			if free[k] <= delta {
				continue
			}
			limoff = int(math.Floor((free[k] - delta) / tp))
		}
		noff := limoff
		if !greedy {
			noff = min3(s-maxoff, limoff, s/2)
		} else if noff > s-1 {
			noff = s - 1
		}
		if noff <= 0 {
			continue
		}
		if noff > maxoff {
			maxoff = noff
		}
		counts[k] = noff
		s -= noff
	}
	return counts
}

func min3(a, b, c int) int {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

var _ Scheduler = (*RTOPEX)(nil)
var _ Scheduler = (*Partitioned)(nil)
var _ Scheduler = (*Global)(nil)
