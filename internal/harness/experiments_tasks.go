package harness

import (
	"fmt"
	"runtime"
	"time"

	"rtopex/internal/bits"
	"rtopex/internal/channel"
	"rtopex/internal/lte"
	"rtopex/internal/model"
	"rtopex/internal/phy"
	"rtopex/internal/stats"
)

func init() {
	registerMeasured("fig4", "Task execution times on one vs two cores (measured, Go PHY)", fig4)
	register("fig18", "Local vs migrated task processing times", fig18)
}

// measuredConfig is the MCS-27, 2-antenna link of the wall-clock task
// measurements on this repository's own PHY (the paper's Fig. 4 measures
// OAI's).
var measuredConfig = phy.Config{
	Bandwidth: lte.BW10MHz,
	MCS:       27,
	Antennas:  2,
	RNTI:      0x1001,
	CellID:    7,
}

// measuredPipeline builds one decodable measuredConfig subframe and returns
// its samples and noise power.
func measuredPipeline(seed uint64) ([][]complex128, float64, error) {
	tx, err := phy.NewTransmitter(measuredConfig)
	if err != nil {
		return nil, 0, err
	}
	r := stats.NewRNG(seed)
	payload := make([]byte, tx.TBS())
	bits.RandomBits(payload, r.Uint64)
	wave, err := tx.Transmit(payload)
	if err != nil {
		return nil, 0, err
	}
	ch, err := channel.New(30, measuredConfig.Antennas, seed+1)
	if err != nil {
		return nil, 0, err
	}
	iq, _ := ch.Apply(wave)
	return iq, ch.N0(), nil
}

// fig4 measures the FFT and decode tasks of the real Go chain on one vs two
// workers. Absolute times differ from the paper's SSE-optimized OAI build;
// the reproduced claim is the ~2× speedup with small overhead.
func fig4(o Options) (*Table, error) {
	trials := 20
	if o.Quick {
		trials = 5
	}
	// One receiver serves every trial, so they all run on warmed scratch.
	rx, err := phy.NewReceiver(measuredConfig)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "fig4", Title: "Measured Go-PHY task times (ms), MCS 27, N = 2",
		Columns: []string{"task", "cores", "p50_ms", "min_ms"}}
	serial := phy.NewPool(1) // runs the stages that feed the measured one
	defer serial.Close()
	for _, task := range []phy.TaskName{phy.TaskFFT, phy.TaskDecode} {
		for _, workers := range []int{1, 2} {
			pool := phy.NewPool(workers)
			var samples []float64
			for i := 0; i < trials; i++ {
				iq, n0, err := measuredPipeline(o.seed() + uint64(i))
				if err != nil {
					return nil, err
				}
				stages, err := rx.Pipeline(iq, n0)
				if err != nil {
					return nil, err
				}
				for _, st := range stages {
					if st.Name == task {
						start := time.Now()
						pool.Run(st.Subtasks)
						samples = append(samples, time.Since(start).Seconds()*1000)
						break
					}
					serial.Run(st.Subtasks)
				}
			}
			pool.Close()
			t.AddRow(string(task), workers,
				stats.Quantile(samples, 0.5), stats.Summarize(samples).Min)
		}
	}
	t.Notes = append(t.Notes,
		"paper (OAI, Xeon): FFT over 2 cores nearly halves with ≤6 µs overhead; decode drops 980→670 µs",
		"this chain is Go with AVX2 kernels (FFT, demapping, MRC, turbo decode) where the CPU has them, not OAI's SSE PHY, so absolute values differ; the parallel speedup is the claim under test",
		fmt.Sprintf("measured on %d CPU(s) — the 2-worker rows only show a speedup when ≥2 CPUs are available", runtime.NumCPU()))
	return t, nil
}

// fig18 contrasts local and migrated task processing times using the
// calibrated model: migration adds the measured δ ≈ 20 µs context-fetch
// overhead for both task types.
func fig18(o Options) (*Table, error) {
	const delta = 20.0
	d27, err := lte.SubcarrierLoad(27, lte.BW10MHz)
	if err != nil {
		return nil, err
	}
	tasks := model.PaperGPP.Tasks(2, 6, d27, 2)
	t := &Table{ID: "fig18", Title: "Local vs migrated task processing time (µs)",
		Columns: []string{"task", "local_p50", "migrated_p50", "overhead"}}
	t.AddRow("fft", tasks.FFT, tasks.FFT+delta, delta)
	t.AddRow("decode(1 subtask)", tasks.Decode/6, tasks.Decode/6+delta, delta)
	t.AddRow("decode(task)", tasks.Decode, tasks.Decode+delta, delta)
	t.Notes = append(t.Notes,
		"paper: FFT median 108 → 126 µs when migrated (+18 µs); decode overhead ≈20 µs; the cost is a fixed context fetch, independent of subtask type")
	return t, nil
}
