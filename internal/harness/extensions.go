package harness

import (
	"fmt"

	"rtopex/internal/lte"
	"rtopex/internal/model"
	"rtopex/internal/sched"
	"rtopex/internal/trace"
	"rtopex/internal/transport"
)

func init() {
	register("table2", "Qualitative comparison of C-RAN scheduling approaches", table2)
	register("ext-parallel", "Static parallelism (BigStation-style) vs RT-OPEX", extParallel)
	register("ext-hetero", "Heterogeneous basestations (§5.D generality)", extHetero)
	register("ext-transport", "Jittery transport path instead of fixed delays", extTransport)
}

// table2 renders the paper's Table 2, extended with this repository's
// quantitative backing where the comparator is implemented.
func table2(Options) (*Table, error) {
	t := &Table{ID: "table2", Title: "Related scheduling approaches in C-RAN",
		Columns: []string{"system", "migration", "compute_resources", "granularity", "implemented_as"}}
	t.AddRow("PRAN", "planned", "dynamic", "subtask", "—")
	t.AddRow("CloudIQ", "no", "fixed", "task", "sched.Partitioned")
	t.AddRow("WiBench", "no", "fixed", "subtask", "—")
	t.AddRow("BigStation", "no", "fixed", "subtask", "sched.StaticParallel")
	t.AddRow("RT-OPEX", "yes", "fixed/dynamic", "subtask", "sched.RTOPEX")
	t.Notes = append(t.Notes,
		"Table 2 is qualitative in the paper; run ext-parallel for the quantitative BigStation-style comparison")
	return t, nil
}

// extParallel compares RT-OPEX against static subtask parallelism at equal
// and at matched-resource core counts.
func extParallel(o Options) (*Table, error) {
	t := &Table{ID: "ext-parallel", Title: "RT-OPEX vs static parallelism, miss rate vs RTT/2",
		Columns: []string{"rtt2_us", "rt-opex(8c)", "static-2(8c)", "static-4(16c)", "partitioned(8c)"},
		Kinds:   []Kind{Plain, Rate, Rate, Rate, Rate}}
	for _, rtt2 := range []float64{450, 550, 650} {
		w, err := paperWorkload(o, rtt2, -1, 20)
		if err != nil {
			return nil, err
		}
		r, err := sched.Run(w, sched.NewRTOPEX(2), 8)
		if err != nil {
			return nil, err
		}
		s2, err := sched.Run(w, sched.NewStaticParallel(2), 8)
		if err != nil {
			return nil, err
		}
		s4, err := sched.Run(w, sched.NewStaticParallel(4), 16)
		if err != nil {
			return nil, err
		}
		p, err := sched.Run(w, sched.NewPartitioned(2), 8)
		if err != nil {
			return nil, err
		}
		t.AddRow(rtt2, r.MissRate(), s2.MissRate(), s4.MissRate(), p.MissRate())
	}
	t.Notes = append(t.Notes,
		"static parallelism is strong when the chain is restructured for it (the paper's Fig. 4 shows the split itself is cheap), but its fan-out is fixed at design time: static-4 needs 16 cores for the same 4 basestations, and any loss of cores breaks the schedule outright (§5.B)",
		"RT-OPEX reaches within a small factor of static-2 from an unmodified serial chain, and unlike the static split it automatically exploits whatever cores happen to be idle")
	return t, nil
}

// extHetero mixes a heavy macro cell with light IoT-style cells.
func extHetero(o Options) (*Table, error) {
	w, err := sched.BuildWorkload(sched.WorkloadConfig{
		Basestations: 4,
		Subframes:    o.subframes(),
		Antennas:     2,
		// BS1 is a 4-antenna macro cell; BS3/BS4 are single-antenna
		// small cells — §5.D's heterogeneous pool.
		PerBSAntennas: []int{4, 2, 1, 1},
		Bandwidth:     lte.BW10MHz,
		SNRdB:         30,
		Lm:            4,
		Params:        model.PaperGPP,
		Jitter:        model.DefaultJitter,
		IterLaw:       model.DefaultIterationLaw,
		Profiles: []trace.Profile{
			trace.DefaultProfiles[3], // heavy load on the macro
			trace.DefaultProfiles[2],
			trace.DefaultProfiles[0], // light IoT-ish cells
			trace.DefaultProfiles[0],
		},
		FixedMCS:       -1,
		Transport:      transport.FixedPath{OneWay: 550},
		ExpectedRTT2US: 550,
		Seed:           o.seed() + 21,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "ext-hetero", Title: "Heterogeneous basestations (4/2/1/1 antennas), RTT/2 = 550 µs",
		Columns: []string{"scheduler", "miss_total", "miss_bs1(macro)", "miss_bs3(small)", "decode_migrated"},
		Kinds:   []Kind{Plain, Rate, Rate, Rate, Plain}}
	for _, s := range []sched.Scheduler{sched.NewPartitioned(2), sched.NewGlobal(), sched.NewRTOPEX(2)} {
		m, err := sched.Run(w, s, 8)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.Scheduler, m.MissRate(), m.PerBS[0].MissRate(), m.PerBS[2].MissRate(),
			m.MigratedDecodeFraction())
	}
	t.Notes = append(t.Notes,
		"the paper argues RT-OPEX shines when traffic and channel conditions vary widely across basestations: the lightly loaded small cells donate their idle cycles to the macro cell")
	return t, nil
}

// extTransport swaps the fixed delays for a sampled fronthaul+cloud path,
// exercising the preemption/recovery machinery that fixed delays never
// trigger.
func extTransport(o Options) (*Table, error) {
	t := &Table{ID: "ext-transport", Title: "Jittery transport (fronthaul + cloud tail) vs fixed delay",
		Columns: []string{"fronthaul_km", "e[rtt2]_us", "partitioned", "rt-opex", "preemptions", "recoveries"},
		Kinds:   []Kind{Plain, Plain, Rate, Rate, Plain, Plain}}
	for _, km := range []float64{20, 40, 60, 80} {
		path := transport.Path{
			Fronthaul: transport.Fronthaul{DistanceKm: km, SwitchUS: 10},
			Cloud:     transport.NewCloud(10),
		}
		expected := path.Fronthaul.OneWayUS() + path.Cloud.Mean()
		w, err := sched.BuildWorkload(sched.WorkloadConfig{
			Basestations: 4, Subframes: o.subframes(), Antennas: 2,
			Bandwidth: lte.BW10MHz, SNRdB: 30, Lm: 4,
			Params: model.PaperGPP, Jitter: model.DefaultJitter,
			IterLaw:  model.DefaultIterationLaw,
			Profiles: trace.DefaultProfiles, FixedMCS: -1,
			Transport: path, ExpectedRTT2US: expected,
			Seed: o.seed() + 22,
		})
		if err != nil {
			return nil, err
		}
		p, err := sched.Run(w, sched.NewPartitioned(2), 8)
		if err != nil {
			return nil, err
		}
		r, err := sched.Run(w, sched.NewRTOPEX(2), 8)
		if err != nil {
			return nil, err
		}
		t.AddRow(km, expected, p.MissRate(), r.MissRate(), r.Preemptions, r.Recoveries)
	}
	t.Notes = append(t.Notes,
		"with sampled transport, RT-OPEX's arrival predictions are sometimes wrong: early arrivals preempt hosted batches and the recovery path recomputes them — the §3.2 guarantee keeps the result no worse than partitioned",
		fmt.Sprintf("cloud segment: %s", "10 GbE, Fig. 6 calibration"))
	return t, nil
}
