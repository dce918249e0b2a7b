package sched

import (
	"math"
	"sort"
)

// CacheModel captures the global scheduler's cache-thrashing overhead
// (§4.4, Fig. 19): when a core picks up a subframe of a different
// basestation than it last processed, its working set (OAI-style per-BS
// state, subframe buffers) must be refetched, adding a heavy-tailed refill
// penalty. Partitioned cores never switch basestations and never pay it.
type CacheModel struct {
	Enabled bool
	// MeanUS and Sigma parameterize the lognormal refill penalty. The
	// defaults put the bulk around 40–60 µs with a tail reaching ~150 µs,
	// which reproduces Fig. 19's ~80 µs inflation for the slowest decile.
	MedianUS float64
	Sigma    float64
}

// DefaultCacheModel is the Fig. 19 calibration.
var DefaultCacheModel = CacheModel{Enabled: true, MedianUS: 45, Sigma: 0.5}

// Global is the shared-queue scheduler of §3.1.2: arrivals enter one queue;
// a dispatcher hands the earliest-deadline job to an idle core (EDF equals
// FIFO when all basestations share a transport delay). A job still running
// at its deadline is terminated. Its overheads — per-dispatch locking and
// cache refills on basestation switches — are what make it underperform
// partitioned in the paper despite its flexibility.
type Global struct {
	// DispatchOverheadUS models the shared-queue locking and semaphore
	// wakeup cost per dispatch.
	DispatchOverheadUS float64
	Cache              CacheModel

	env       *Env
	cores     []*gcore
	queue     []*Job   // kept sorted by deadline (EDF)
	idleCores []*gcore // scratch to avoid per-arrival allocation
}

type gcore struct {
	serialCore
	lastBS int
}

// NewGlobal creates a global scheduler with the paper's default overheads.
func NewGlobal() *Global {
	return &Global{DispatchOverheadUS: 15, Cache: DefaultCacheModel}
}

// Name implements Scheduler.
func (g *Global) Name() string { return "global" }

// Attach implements Scheduler.
func (g *Global) Attach(env *Env) {
	g.env = env
	g.cores = make([]*gcore, env.Cores)
	for i := range g.cores {
		c := &gcore{serialCore: serialCore{id: i}, lastBS: -1}
		c.free = func() {
			c.release(env)
			g.drain(c)
		}
		g.cores[i] = c
	}
}

// OnArrival implements Scheduler.
func (g *Global) OnArrival(j *Job) {
	if c := g.idleCore(); c != nil {
		g.dispatch(c, j)
		return
	}
	g.enqueue(j)
}

// idleCore picks uniformly among idle cores: the semaphore wakeup order of
// the real implementation is effectively arbitrary, and random choice is
// what makes cache reuse degrade as the core count grows.
func (g *Global) idleCore() *gcore {
	idle := g.idleCores[:0]
	for _, c := range g.cores {
		if !c.busy {
			idle = append(idle, c)
		}
	}
	g.idleCores = idle
	if len(idle) == 0 {
		return nil
	}
	return idle[g.env.RNG.Intn(len(idle))]
}

func (g *Global) enqueue(j *Job) {
	i := sort.Search(len(g.queue), func(i int) bool { return g.queue[i].Deadline > j.Deadline })
	g.queue = append(g.queue, nil)
	copy(g.queue[i+1:], g.queue[i:])
	g.queue[i] = j
}

func (g *Global) dispatch(c *gcore, j *Job) {
	extra := g.DispatchOverheadUS
	if g.Cache.Enabled && c.lastBS != j.BS {
		extra += g.env.RNG.LogNormal(math.Log(g.Cache.MedianUS), g.Cache.Sigma)
	}
	c.lastBS = j.BS
	serialExec(g.env, &c.serialCore, j, extra, true)
}

// drain hands the next feasible queued job to a freed core, dropping jobs
// whose deadlines already passed.
func (g *Global) drain(c *gcore) {
	now := g.env.Eng.Now()
	for len(g.queue) > 0 {
		j := g.queue[0]
		g.queue = g.queue[1:]
		if j.Deadline <= now {
			g.env.M.Record(j, OutcomeDropped, -1)
			continue
		}
		g.dispatch(c, j)
		return
	}
}

// Finalize implements Scheduler: queued jobs that never got a core are
// misses.
func (g *Global) Finalize() {
	for _, j := range g.queue {
		g.env.M.Record(j, OutcomeDropped, -1)
	}
	g.queue = nil
}
