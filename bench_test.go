package rtopex

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates its experiment at a reduced-but-meaningful scale per
// iteration, so `go test -bench=. -benchmem` both exercises every
// reproduction path and reports the cost of regenerating each artifact.
// The full-scale outputs are produced by `go run ./cmd/rtopex -all`.

import (
	"fmt"
	"testing"

	"rtopex/internal/bits"
	"rtopex/internal/channel"
	"rtopex/internal/phy"
	"rtopex/internal/stats"
)

// benchOpts keeps per-iteration work bounded while preserving each
// experiment's structure (full sweeps, reduced sample counts).
var benchOpts = ExperimentOptions{Quick: true, Subframes: 1500, Samples: 30_000}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := RunExperiment(id, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig01LoadTrace(b *testing.B)          { benchExperiment(b, "fig1") }
func BenchmarkTable1ModelFit(b *testing.B)          { benchExperiment(b, "table1") }
func BenchmarkFig03aProcVsIterations(b *testing.B)  { benchExperiment(b, "fig3a") }
func BenchmarkFig03bProcVsSNR(b *testing.B)         { benchExperiment(b, "fig3b") }
func BenchmarkFig03cProcVsAntennas(b *testing.B)    { benchExperiment(b, "fig3c") }
func BenchmarkFig03dErrorDistribution(b *testing.B) { benchExperiment(b, "fig3d") }
func BenchmarkFig04TaskParallelism(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig06CloudDelay(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkFig07TransportVsAntennas(b *testing.B) {
	benchExperiment(b, "fig7")
}
func BenchmarkFig14LoadCDF(b *testing.B)        { benchExperiment(b, "fig14") }
func BenchmarkFig15DeadlineMiss(b *testing.B)   { benchExperiment(b, "fig15") }
func BenchmarkFig16GapsMigrations(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17MissVsLoad(b *testing.B)     { benchExperiment(b, "fig17") }
func BenchmarkFig18MigrationOverhead(b *testing.B) {
	benchExperiment(b, "fig18")
}
func BenchmarkFig19GlobalCores(b *testing.B) { benchExperiment(b, "fig19") }

func BenchmarkTable2Comparison(b *testing.B) { benchExperiment(b, "table2") }

func BenchmarkAblationAlg1(b *testing.B)        { benchExperiment(b, "ablation-alg1") }
func BenchmarkAblationDelta(b *testing.B)       { benchExperiment(b, "ablation-delta") }
func BenchmarkAblationGranularity(b *testing.B) { benchExperiment(b, "ablation-granularity") }
func BenchmarkAblationCache(b *testing.B)       { benchExperiment(b, "ablation-cache") }
func BenchmarkAblationDispatch(b *testing.B)    { benchExperiment(b, "ablation-dispatch") }
func BenchmarkAblationTaskMigration(b *testing.B) {
	benchExperiment(b, "ablation-task-migration")
}

func BenchmarkExtParallel(b *testing.B)  { benchExperiment(b, "ext-parallel") }
func BenchmarkExtHetero(b *testing.B)    { benchExperiment(b, "ext-hetero") }
func BenchmarkExtTransport(b *testing.B) { benchExperiment(b, "ext-transport") }
func BenchmarkExtPooling(b *testing.B)   { benchExperiment(b, "ext-pooling") }

// BenchmarkSchedulerThroughput measures raw simulation speed: subframes
// scheduled per second under each scheduler.
func BenchmarkSchedulerThroughput(b *testing.B) {
	w, err := BuildWorkload(WorkloadConfig{
		Basestations: 4, Subframes: 5000, Antennas: 2, Bandwidth: BW10MHz,
		SNRdB: 30, Lm: 4,
		Params: PaperGPP, Jitter: DefaultJitter, IterLaw: DefaultIterationLaw,
		Profiles: DefaultTraceProfiles, FixedMCS: -1,
		Transport: FixedTransport{OneWay: 500}, ExpectedRTT2US: 500, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, mk := range []struct {
		name string
		new  func() Scheduler
	}{
		{"partitioned", func() Scheduler { return NewPartitioned(2) }},
		{"global", func() Scheduler { return NewGlobal() }},
		{"rt-opex", func() Scheduler { return NewRTOPEX(2) }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(w, mk.new(), 8); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(20000*b.N)/b.Elapsed().Seconds(), "subframes/s")
		})
	}
}

// benchSubframe builds the canonical MCS-27, 2-antenna, 30 dB subframe the
// PHY benchmarks decode (same seeds as the original BenchmarkPHYEndToEnd).
func benchSubframe(b *testing.B) (*phy.Receiver, [][]complex128, float64) {
	return benchSubframeAt(b, 30)
}

// benchSubframeAt is benchSubframe with the SNR under the caller's control
// (BenchmarkPHYDecodeQuant runs at a moderate SNR so the CRC check doesn't
// trivially pass before the trellis works).
func benchSubframeAt(b *testing.B, snrDB float64) (*phy.Receiver, [][]complex128, float64) {
	b.Helper()
	cfg := PHYConfig{Bandwidth: BW10MHz, MCS: 27, Antennas: 2, RNTI: 1, CellID: 1}
	tx, err := NewTransmitter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(1)
	payload := make([]byte, tx.TBS())
	bits.RandomBits(payload, r.Uint64)
	wave, err := tx.Transmit(payload)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := channel.New(snrDB, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	iq, _ := ch.Apply(wave)
	rx, err := phy.NewReceiver(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return rx, iq, ch.N0()
}

// BenchmarkPHYEndToEnd measures the real Go chain: one full MCS-27
// subframe decode per iteration.
func BenchmarkPHYEndToEnd(b *testing.B) {
	rx, iq, n0 := benchSubframe(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rx.Process(iq, n0)
		if err != nil || !res.OK {
			b.Fatal("decode failed")
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N), "us/subframe")
}

// benchStage isolates one pipeline stage: earlier stages run once to feed
// it, then each iteration re-executes only the target stage's subtasks
// (every stage rewrites its scratch from its inputs, so repeats are exact).
func benchStage(b *testing.B, name phy.TaskName) {
	b.Helper()
	rx, iq, n0 := benchSubframe(b)
	benchStageOn(b, rx, iq, n0, name)
}

func benchStageOn(b *testing.B, rx *phy.Receiver, iq [][]complex128, n0 float64, name phy.TaskName) {
	b.Helper()
	stages, err := rx.Pipeline(iq, n0)
	if err != nil {
		b.Fatal(err)
	}
	var target []func()
	for _, st := range stages {
		if st.Name == name {
			target = st.Subtasks
			break
		}
		for _, sub := range st.Subtasks {
			sub()
		}
	}
	if target == nil {
		b.Fatalf("stage %q not in pipeline", name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sub := range target {
			sub()
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N), "us/stage")
}

func BenchmarkPHYFFT(b *testing.B)    { benchStage(b, phy.TaskFFT) }
func BenchmarkPHYDemod(b *testing.B)  { benchStage(b, phy.TaskDemod) }
func BenchmarkPHYDecode(b *testing.B) { benchStage(b, phy.TaskDecode) }

// BenchmarkPHYDecodeQuant isolates the turbo decode stage at a moderate 24 dB
// SNR, where the CRC check can't accept the raw hard decisions and the
// trellis must run.
func BenchmarkPHYDecodeQuant(b *testing.B) {
	rx, iq, n0 := benchSubframeAt(b, 24)
	benchStageOn(b, rx, iq, n0, phy.TaskDecode)
}

// BenchmarkPHYEndToEndParallel is the parallel fast path: the same subframe
// decoded via a phy.Pool at increasing subtask fan-out. On a single-CPU
// machine the workers>1 rows only add pool overhead; the speedup shows on
// multicore hosts.
func BenchmarkPHYEndToEndParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rx, iq, n0 := benchSubframe(b)
			pool := phy.NewPool(workers)
			defer pool.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := pool.ProcessParallel(rx, iq, n0)
				if err != nil || !res.OK {
					b.Fatal("decode failed")
				}
			}
			b.ReportMetric(float64(workers), "workers")
			b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N), "us/subframe")
		})
	}
}
