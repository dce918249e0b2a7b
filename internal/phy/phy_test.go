package phy

import (
	"testing"

	"rtopex/internal/bits"
	"rtopex/internal/channel"
	"rtopex/internal/lte"
	"rtopex/internal/stats"
)

func testConfig(mcs, antennas int) Config {
	return Config{
		Bandwidth: lte.BW10MHz,
		MCS:       mcs,
		Antennas:  antennas,
		RNTI:      0x1234,
		CellID:    42,
		Subframe:  0,
	}
}

func randomPayload(t *testing.T, tx *Transmitter, seed uint64) []byte {
	t.Helper()
	p := make([]byte, tx.TBS())
	r := stats.NewRNG(seed)
	bits.RandomBits(p, r.Uint64)
	return p
}

// runLink encodes, passes through the channel and decodes one subframe.
func runLink(t *testing.T, cfg Config, snrDB float64, seed uint64) (payload []byte, res Result) {
	t.Helper()
	tx, err := NewTransmitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload = randomPayload(t, tx, seed)
	wave, err := tx.Transmit(payload)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := channel.New(snrDB, cfg.Antennas, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	iq, _ := ch.Apply(wave)
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err = rx.Process(iq, ch.N0())
	if err != nil {
		t.Fatal(err)
	}
	return payload, res
}

func TestLinkHighSNRAllMCSClasses(t *testing.T) {
	// One MCS per modulation class at 30 dB (the paper's evaluation SNR)
	// must decode cleanly end to end.
	for _, mcs := range []int{0, 5, 13, 21, 27} {
		payload, res := runLink(t, testConfig(mcs, 2), 30, uint64(100+mcs))
		if !res.OK {
			t.Fatalf("MCS %d: decode failed at 30 dB", mcs)
		}
		if bits.HammingDistance(res.Payload, payload) != 0 {
			t.Fatalf("MCS %d: payload corrupted", mcs)
		}
	}
}

func TestLinkSingleAntenna(t *testing.T) {
	payload, res := runLink(t, testConfig(10, 1), 30, 7)
	if !res.OK || bits.HammingDistance(res.Payload, payload) != 0 {
		t.Fatal("single-antenna link failed")
	}
}

func TestLinkFourAntennas(t *testing.T) {
	payload, res := runLink(t, testConfig(27, 4), 25, 8)
	if !res.OK || bits.HammingDistance(res.Payload, payload) != 0 {
		t.Fatal("4-antenna link failed")
	}
}

func TestLink5MHz(t *testing.T) {
	cfg := testConfig(16, 2)
	cfg.Bandwidth = lte.BW5MHz
	payload, res := runLink(t, cfg, 30, 9)
	if !res.OK || bits.HammingDistance(res.Payload, payload) != 0 {
		t.Fatal("5 MHz link failed")
	}
}

func TestLinkFailsAtVeryLowSNR(t *testing.T) {
	// MCS 27 at -5 dB cannot decode; the CRC must catch it (OK=false), and
	// the decoder must have burned its full iteration budget.
	_, res := runLink(t, testConfig(27, 2), -5, 10)
	if res.OK {
		t.Fatal("CRC passed at -5 dB — impossible")
	}
	if res.Iterations != 4 {
		t.Fatalf("iterations = %d, want Lm=4 when decoding fails", res.Iterations)
	}
}

func TestIterationCountRisesAsSNRFalls(t *testing.T) {
	// The paper's Fig. 3(b) mechanism: lower SNR ⇒ more turbo iterations.
	cfg := testConfig(21, 2)
	cfg.MaxIterations = 8
	avg := func(snr float64) float64 {
		sum := 0
		const trials = 5
		for i := 0; i < trials; i++ {
			_, res := runLink(t, cfg, snr, uint64(200+i))
			sum += res.Iterations
		}
		return float64(sum) / trials
	}
	hi, lo := avg(30), avg(11)
	if lo < hi {
		t.Fatalf("iterations at 11 dB (%v) below 30 dB (%v)", lo, hi)
	}
}

func TestCodeBlockCount(t *testing.T) {
	// The paper: "at MCS 27, LTE utilizes 6 code-blocks".
	tx, err := NewTransmitter(testConfig(27, 2))
	if err != nil {
		t.Fatal(err)
	}
	if tx.CodeBlocks() != 6 {
		t.Fatalf("MCS 27 code blocks = %d, want 6", tx.CodeBlocks())
	}
	tx0, _ := NewTransmitter(testConfig(0, 2))
	if tx0.CodeBlocks() != 1 {
		t.Fatalf("MCS 0 code blocks = %d, want 1", tx0.CodeBlocks())
	}
}

func TestPipelineSubtaskCounts(t *testing.T) {
	cfg := testConfig(27, 2)
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := NewTransmitter(cfg)
	wave, _ := tx.Transmit(randomPayload(t, tx, 11))
	ch, _ := channel.New(30, 2, 12)
	iq, _ := ch.Apply(wave)
	stages, err := rx.Pipeline(iq, ch.N0())
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 4 {
		t.Fatalf("%d stages, want 4", len(stages))
	}
	if c := rx.CodeBlocks(); c != 6 {
		t.Fatalf("MCS 27 segments into %d code blocks, want 6", c)
	}
	wants := map[TaskName]int{
		TaskFFT:    2 * 14, // antennas × symbols
		TaskChEst:  2,
		TaskDemod:  12,
		TaskDecode: rx.CodeBlocks(), // one per block: the unit Algorithm 1 migrates
	}
	for _, st := range stages {
		if got := len(st.Subtasks); got != wants[st.Name] {
			t.Errorf("stage %s has %d subtasks, want %d", st.Name, got, wants[st.Name])
		}
	}
}

func TestPipelineSubtasksRunConcurrently(t *testing.T) {
	// Running each stage's subtasks on goroutines must give the same result
	// as serial execution — this is what migration relies on.
	cfg := testConfig(27, 2)
	tx, _ := NewTransmitter(cfg)
	payload := randomPayload(t, tx, 13)
	wave, _ := tx.Transmit(payload)
	ch, _ := channel.New(30, 2, 14)
	iq, _ := ch.Apply(wave)

	rx, _ := NewReceiver(cfg)
	stages, err := rx.Pipeline(iq, ch.N0())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stages {
		done := make(chan struct{}, len(st.Subtasks))
		for _, sub := range st.Subtasks {
			sub := sub
			go func() {
				sub()
				done <- struct{}{}
			}()
		}
		for range st.Subtasks {
			<-done
		}
	}
	res := rx.Result()
	if !res.OK || bits.HammingDistance(res.Payload, payload) != 0 {
		t.Fatal("concurrent pipeline produced a wrong result")
	}
}

func TestReceiverReuseAcrossSubframes(t *testing.T) {
	cfg := testConfig(13, 2)
	tx, _ := NewTransmitter(cfg)
	rx, _ := NewReceiver(cfg)
	ch, _ := channel.New(30, 2, 15)
	for sf := 0; sf < 3; sf++ {
		payload := randomPayload(t, tx, uint64(300+sf))
		wave, _ := tx.Transmit(payload)
		iq, _ := ch.Apply(wave)
		res, err := rx.Process(iq, ch.N0())
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK || bits.HammingDistance(res.Payload, payload) != 0 {
			t.Fatalf("subframe %d failed on reused receiver", sf)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Bandwidth: lte.BW10MHz, MCS: 0, Antennas: 0},
		{Bandwidth: lte.Bandwidth{}, MCS: 0, Antennas: 1},
		{Bandwidth: lte.BW10MHz, MCS: 29, Antennas: 1},
		{Bandwidth: lte.BW10MHz, MCS: -1, Antennas: 1},
		{Bandwidth: lte.BW10MHz, MCS: 28, Antennas: 1}, // above paper max 27
	}
	for i, cfg := range bad {
		if _, err := NewReceiver(cfg); err == nil {
			t.Errorf("config %d accepted by receiver", i)
		}
		if _, err := NewTransmitter(cfg); err == nil {
			t.Errorf("config %d accepted by transmitter", i)
		}
	}
}

func TestTransmitRejectsWrongPayloadSize(t *testing.T) {
	tx, _ := NewTransmitter(testConfig(5, 1))
	if _, err := tx.Transmit(make([]byte, 10)); err == nil {
		t.Fatal("wrong payload size accepted")
	}
}

func TestPipelineRejectsWrongIQ(t *testing.T) {
	rx, _ := NewReceiver(testConfig(5, 2))
	if _, err := rx.Pipeline([][]complex128{make([]complex128, 15360)}, 0.001); err == nil {
		t.Fatal("1 antenna stream accepted for 2-antenna config")
	}
	if _, err := rx.Pipeline([][]complex128{make([]complex128, 100), make([]complex128, 100)}, 0.001); err == nil {
		t.Fatal("short sample stream accepted")
	}
}

func TestWaveformLength(t *testing.T) {
	tx, _ := NewTransmitter(testConfig(13, 1))
	wave, err := tx.Transmit(randomPayload(t, tx, 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(wave) != lte.BW10MHz.SamplesPerSubframe() {
		t.Fatalf("waveform has %d samples, want %d", len(wave), lte.BW10MHz.SamplesPerSubframe())
	}
}

func TestRayleighChannel(t *testing.T) {
	cfg := testConfig(13, 4)
	tx, _ := NewTransmitter(cfg)
	payload := randomPayload(t, tx, 17)
	wave, _ := tx.Transmit(payload)
	ch, _ := channel.New(25, 4, 18)
	ch.Rayleigh = true
	iq, _ := ch.Apply(wave)
	rx, _ := NewReceiver(cfg)
	res, err := rx.Process(iq, ch.N0())
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || bits.HammingDistance(res.Payload, payload) != 0 {
		t.Fatal("Rayleigh 4-antenna link failed at 25 dB")
	}
}

func TestChannelValidation(t *testing.T) {
	if _, err := channel.New(10, 0, 1); err == nil {
		t.Fatal("0 antennas accepted")
	}
}

func BenchmarkTransmitMCS27(b *testing.B) {
	tx, _ := NewTransmitter(testConfig(27, 2))
	r := stats.NewRNG(19)
	payload := make([]byte, tx.TBS())
	bits.RandomBits(payload, r.Uint64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tx.Transmit(payload)
	}
}

func BenchmarkReceiveMCS27N2(b *testing.B) {
	benchReceive(b, 27, 2)
}

func BenchmarkReceiveMCS0N2(b *testing.B) {
	benchReceive(b, 0, 2)
}

func benchReceive(b *testing.B, mcs, antennas int) {
	cfg := testConfig(mcs, antennas)
	tx, _ := NewTransmitter(cfg)
	r := stats.NewRNG(20)
	payload := make([]byte, tx.TBS())
	bits.RandomBits(payload, r.Uint64)
	wave, _ := tx.Transmit(payload)
	ch, _ := channel.New(30, antennas, 21)
	iq, _ := ch.Apply(wave)
	rx, _ := NewReceiver(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rx.Process(iq, ch.N0())
		if err != nil || !res.OK {
			b.Fatal("decode failed in benchmark")
		}
	}
}

func TestLinkOverMultipathChannel(t *testing.T) {
	// Frequency-selective EPA channel: per-subcarrier estimation and MRC
	// must still close the link at moderate MCS.
	cfg := testConfig(13, 2)
	tx, _ := NewTransmitter(cfg)
	payload := randomPayload(t, tx, 50)
	wave, _ := tx.Transmit(payload)
	ch, err := channel.NewMultipath(30, 2, channel.EPA, 51)
	if err != nil {
		t.Fatal(err)
	}
	iq, _ := ch.Apply(wave)
	rx, _ := NewReceiver(cfg)
	res, err := rx.Process(iq, ch.N0())
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || bits.HammingDistance(res.Payload, payload) != 0 {
		t.Fatal("EPA multipath link failed at 30 dB")
	}
}

func TestLinkOverHarderMultipath(t *testing.T) {
	// EVA has 5x the delay spread; 4 antennas of diversity should still
	// close the link at a robust MCS.
	cfg := testConfig(8, 4)
	tx, _ := NewTransmitter(cfg)
	payload := randomPayload(t, tx, 52)
	wave, _ := tx.Transmit(payload)
	ch, err := channel.NewMultipath(25, 4, channel.EVA, 53)
	if err != nil {
		t.Fatal(err)
	}
	iq, _ := ch.Apply(wave)
	rx, _ := NewReceiver(cfg)
	res, err := rx.Process(iq, ch.N0())
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || bits.HammingDistance(res.Payload, payload) != 0 {
		t.Fatal("EVA multipath link failed")
	}
}

func TestBlindNoiseEstimation(t *testing.T) {
	// Passing n0 <= 0 makes the receiver estimate the noise power from the
	// DM-RS; the link must still close and the estimate must be near truth.
	cfg := testConfig(13, 2)
	tx, _ := NewTransmitter(cfg)
	payload := randomPayload(t, tx, 700)
	wave, _ := tx.Transmit(payload)
	ch, _ := channel.New(20, 2, 701)
	iq, _ := ch.Apply(wave)
	rx, _ := NewReceiver(cfg)
	res, err := rx.Process(iq, 0) // blind
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || bits.HammingDistance(res.Payload, payload) != 0 {
		t.Fatal("blind-noise link failed at 20 dB")
	}
	est := rx.EstimateNoise()
	truth := ch.N0()
	if est < truth/2 || est > truth*2 {
		t.Fatalf("noise estimate %v vs truth %v", est, truth)
	}
}
