package sched

import "testing"

func TestDownlinkJobsCompeteForCores(t *testing.T) {
	base := testWorkload(t, 1, 550, 80).Cfg
	base.Subframes = 6000
	base.IncludeDownlink = true
	w, err := BuildWorkload(base)
	if err != nil {
		t.Fatal(err)
	}
	// Per BS: 6000 rx + 5999 tx jobs.
	if len(w.Jobs[0]) != 6000+5999 {
		t.Fatalf("jobs per BS = %d", len(w.Jobs[0]))
	}
	for _, s := range []Scheduler{NewPartitioned(2), NewRTOPEX(2), NewGlobal()} {
		m, err := Run(w, s, 8)
		if err != nil {
			t.Fatal(err)
		}
		if m.Jobs() != 24000 {
			t.Fatalf("%s: rx jobs %d, want 24000", m.Scheduler, m.Jobs())
		}
		if m.TxJobs != 4*5999 {
			t.Fatalf("%s: tx jobs %d, want %d", m.Scheduler, m.TxJobs, 4*5999)
		}
	}
}

func TestDownlinkLoadRaisesUplinkMisses(t *testing.T) {
	base := testWorkload(t, 1, 600, 81).Cfg
	base.Subframes = 8000
	uplinkOnly, _ := BuildWorkload(base)
	base.IncludeDownlink = true
	duplex, _ := BuildWorkload(base)

	for _, mk := range []func() Scheduler{
		func() Scheduler { return NewPartitioned(2) },
		func() Scheduler { return NewRTOPEX(2) },
	} {
		a, _ := Run(uplinkOnly, mk(), 8)
		b, _ := Run(duplex, mk(), 8)
		if b.MissRate() < a.MissRate() {
			t.Fatalf("%s: downlink load reduced uplink misses (%v -> %v)",
				a.Scheduler, a.MissRate(), b.MissRate())
		}
	}
	// RT-OPEX must still beat partitioned under duplex load.
	p, _ := Run(duplex, NewPartitioned(2), 8)
	r, _ := Run(duplex, NewRTOPEX(2), 8)
	if r.MissRate() >= p.MissRate() {
		t.Fatalf("RT-OPEX (%v) not below partitioned (%v) under duplex load",
			r.MissRate(), p.MissRate())
	}
	if r.TxJobs == 0 || p.TxJobs == 0 {
		t.Fatal("tx jobs not accounted")
	}
}
