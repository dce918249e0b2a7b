package sched

import "fmt"

// Partitioned is the offline-partitioned scheduler of §3.1.1: basestation i
// owns cores [i·c, (i+1)·c) where c = ⌈Tmax⌉ (in milliseconds), and
// subframe j of basestation i runs on core i·c + (j mod c). Each subframe
// therefore has its core to itself for c milliseconds — longer than its
// processing budget — so partitioned never queues; all its misses come from
// processing-time variation.
type Partitioned struct {
	// CoresPerBS is the paper's ⌈Tmax⌉; 2 in the evaluation setup.
	CoresPerBS int

	env   *Env
	cores []*pcore
}

type pcore struct {
	serialCore
	pending []*Job // overflow queue; only populated under pathological overrun
}

// NewPartitioned creates a partitioned scheduler with c cores per BS.
func NewPartitioned(coresPerBS int) *Partitioned {
	if coresPerBS < 1 {
		coresPerBS = 1
	}
	return &Partitioned{CoresPerBS: coresPerBS}
}

// Name implements Scheduler.
func (p *Partitioned) Name() string { return fmt.Sprintf("partitioned-%d", p.CoresPerBS) }

// Attach implements Scheduler.
func (p *Partitioned) Attach(env *Env) {
	p.env = env
	p.cores = make([]*pcore, env.Cores)
	for i := range p.cores {
		c := &pcore{serialCore: serialCore{id: i}}
		c.free = func() {
			c.release(env)
			if len(c.pending) > 0 {
				next := c.pending[0]
				c.pending = c.pending[1:]
				p.start(c, next)
			}
		}
		p.cores[i] = c
	}
}

// coreFor returns the core assigned to a job by the offline schedule.
func (p *Partitioned) coreFor(j *Job) (*pcore, error) {
	idx := j.BS*p.CoresPerBS + j.Index%p.CoresPerBS
	if idx >= len(p.cores) {
		return nil, fmt.Errorf("sched: partitioned schedule needs core %d but only %d exist", idx, len(p.cores))
	}
	return p.cores[idx], nil
}

// OnArrival implements Scheduler.
func (p *Partitioned) OnArrival(j *Job) {
	c, err := p.coreFor(j)
	if err != nil {
		// Misconfigured run: count as drop rather than crash the sim.
		p.env.M.Record(j, OutcomeDropped, -1)
		return
	}
	if c.busy {
		// A prior job overran past this arrival (rare platform spike).
		c.pending = append(c.pending, j)
		return
	}
	p.start(c, j)
}

func (p *Partitioned) start(c *pcore, j *Job) {
	serialExec(p.env, &c.serialCore, j, 0, false)
}

// Finalize implements Scheduler.
func (p *Partitioned) Finalize() {}
