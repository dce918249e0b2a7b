package rtopex

import (
	"testing"

	"rtopex/internal/bits"
	"rtopex/internal/stats"
)

func TestPublicLinkRoundTrip(t *testing.T) {
	cfg := PHYConfig{Bandwidth: BW10MHz, MCS: 13, Antennas: 2, RNTI: 0x10, CellID: 3}
	tx, err := NewTransmitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(1)
	payload := make([]byte, tx.TBS())
	bits.RandomBits(payload, r.Uint64)
	wave, err := tx.Transmit(payload)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(30, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	iq, _ := ch.Apply(wave)
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rx.Process(iq, ch.N0())
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("decode failed through the public API")
	}
}

func TestPublicSimulation(t *testing.T) {
	w, err := BuildWorkload(WorkloadConfig{
		Basestations: 4, Subframes: 2000, Antennas: 2, Bandwidth: BW10MHz,
		SNRdB: 30, Lm: 4,
		Params: PaperGPP, Jitter: DefaultJitter, IterLaw: DefaultIterationLaw,
		Profiles: DefaultTraceProfiles, FixedMCS: -1,
		Transport: FixedTransport{OneWay: 550}, ExpectedRTT2US: 550, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Simulate(w, NewPartitioned(2), 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Simulate(w, NewRTOPEX(2), 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Simulate(w, NewGlobal(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Jobs() != 8000 || r.Jobs() != 8000 || g.Jobs() != 8000 {
		t.Fatal("jobs not accounted through public API")
	}
	if r.MissRate() > p.MissRate() {
		t.Fatalf("RT-OPEX (%v) worse than partitioned (%v)", r.MissRate(), p.MissRate())
	}
}

func TestPublicExperiments(t *testing.T) {
	specs := ExperimentSpecs()
	if len(specs) < 15 {
		t.Fatalf("only %d experiments registered", len(specs))
	}
	res, err := RunSweep(SweepConfig{IDs: []string{"fig3a"}, Options: ExperimentOptions{Quick: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || len(res.Records[0].Table.Rows) != 28 {
		t.Fatalf("fig3a: %d records, want one of 28 rows", len(res.Records))
	}
	if _, err := RunSweep(SweepConfig{IDs: []string{"missing"}}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPublicComparators(t *testing.T) {
	w, err := BuildWorkload(WorkloadConfig{
		Basestations: 4, Subframes: 1500, Antennas: 2, Bandwidth: BW10MHz,
		SNRdB: 30, Lm: 4,
		Params: PaperGPP, Jitter: DefaultJitter, IterLaw: DefaultIterationLaw,
		Profiles: DefaultTraceProfiles, FixedMCS: -1,
		Transport: FixedTransport{OneWay: 550}, ExpectedRTT2US: 550, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Simulate(w, NewStaticParallel(2), 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs() != 6000 {
		t.Fatalf("%s: jobs %d", m.Scheduler, m.Jobs())
	}
}
