package trace

import (
	"bytes"
	"reflect"
	"testing"
)

func ev(t float64, kind Kind) Event {
	return Event{Time: t, Core: int(t) % 4, BS: 1, Subframe: int(t), Event: kind, Detail: "d"}
}

func TestRingUnbounded(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 100; i++ {
		r.Emit(ev(float64(i), EvStart))
	}
	if r.Len() != 100 || r.Dropped() != 0 {
		t.Fatalf("len %d dropped %d", r.Len(), r.Dropped())
	}
	if got := r.Events(); got[0].Time != 0 || got[99].Time != 99 {
		t.Fatalf("order broken: %v .. %v", got[0], got[99])
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(ev(float64(i), EvPhase))
	}
	if r.Len() != 4 {
		t.Fatalf("len %d", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped %d", r.Dropped())
	}
	got := r.Events()
	for i, e := range got {
		if e.Time != float64(6+i) {
			t.Fatalf("event %d is t=%v, want %v", i, e.Time, 6+i)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestKindTextRoundTrip(t *testing.T) {
	for k := EvArrive; k <= EvMigAbandon; k++ {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("%v -> %s -> %v", k, b, back)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("no-such-event")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func testLog() *EventLog {
	return &EventLog{
		Scheduler: "rt-opex",
		Cores:     4,
		Dropped:   2,
		Events: []Event{
			{Time: 0, Core: -1, BS: 0, Subframe: 0, Event: EvArrive},
			{Time: 550.25, Core: 1, BS: 0, Subframe: 0, Event: EvStart},
			{Time: 560.5, Core: 2, BS: 0, Subframe: 0, Event: EvMigPlan, Detail: "fft n=3"},
			{Time: 600, Core: 2, BS: 0, Subframe: 0, Event: EvMigPreempt},
			{Time: 700.125, Core: 2, BS: 0, Subframe: 0, Event: EvMigRecompute, Detail: "n=2 preempted"},
			{Time: 900, Core: 1, BS: 0, Subframe: 0, Event: EvFinish, Detail: "ack"},
		},
	}
}

func TestEventLogJSONRoundTrip(t *testing.T) {
	log := testLog()
	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEventLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", log, back)
	}
	// Determinism: serializing the same log twice is byte-identical.
	var buf2 bytes.Buffer
	if err := log.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("JSON export not deterministic")
	}
}
