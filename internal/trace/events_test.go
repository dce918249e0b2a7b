package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
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

func TestTeeOfNothingIsNil(t *testing.T) {
	if tr := Tee(); tr != nil {
		t.Fatalf("Tee() = %v, want nil", tr)
	}
	if tr := Tee(nil, nil); tr != nil {
		t.Fatalf("Tee(nil, nil) = %v, want nil", tr)
	}
	r := NewRing(0)
	if tr := Tee(nil, r); tr != Tracer(r) {
		t.Fatalf("Tee of one live sink = %v, want that sink", tr)
	}
}

// TestEmitAllocationFree: once a bounded ring is full, storing an event —
// alone or fanned out by a tee — allocates nothing.
func TestEmitAllocationFree(t *testing.T) {
	a, b := NewRing(8), NewRing(8)
	both := Tee(a, b)
	e := Event{Time: 1, Core: 2, Event: EvMigPlan, Render: RenderInt, Detail: "fft n=", Arg: 3}
	for i := 0; i < 16; i++ {
		both.Emit(e)
	}
	if n := testing.AllocsPerRun(1000, func() { a.Emit(e) }); n != 0 {
		t.Errorf("Ring.Emit: %v allocations per event, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { both.Emit(e) }); n != 0 {
		t.Errorf("tee.Emit: %v allocations per event, want 0", n)
	}
}

// countDetail is the emit-time formatter numeric details replaced: prefix,
// the count, suffix.
func countDetail(prefix string, n int, suffix string) string {
	var buf [32]byte
	d := append(buf[:0], prefix...)
	d = strconv.AppendInt(d, int64(n), 10)
	return string(append(d, suffix...))
}

// TestTextMatchesEmitTimeFormatting: every numeric detail the schedulers
// emit renders to the exact string they used to format when emitting.
func TestTextMatchesEmitTimeFormatting(t *testing.T) {
	for n := 0; n <= 64; n++ {
		for _, c := range []struct{ detail, prefix, suffix string }{
			{"fft n=", "fft n=", ""},
			{"decode n=", "decode n=", ""},
			{"n= preempted", "n=", " preempted"},
			{"n= slow", "n=", " slow"},
		} {
			e := Event{Render: RenderInt, Detail: c.detail, Arg: float64(n)}
			if got, want := e.Text(), countDetail(c.prefix, n, c.suffix); got != want {
				t.Fatalf("Text() of %q with n=%d = %q, want %q", c.detail, n, got, want)
			}
		}
	}
	waits := []float64{0.0995, 999.5, 1e3}
	for x := 1e-3; x <= 1e5; x *= 1.0137 {
		waits = append(waits, x)
	}
	for _, w := range waits {
		var buf [32]byte
		want := string(append(strconv.AppendFloat(buf[:0], w, 'g', 3, 64), "us"...))
		if got := (Event{Render: RenderG3, Detail: "us", Arg: w}).Text(); got != want {
			t.Fatalf("Text() of a %v µs wait = %q, want %q", w, got, want)
		}
	}
	if got := (Event{Render: RenderG3, Detail: "us", Arg: 1e3}).Text(); got != "1e+03us" {
		t.Fatalf("Text() of a 1000 µs wait = %q, want 1e+03us", got)
	}
}

// TestNumericEventMarshalsLikeLiteral: the JSON of a numeric event is the
// JSON of the same event with its detail spelled out, and both are what the
// plain six-field schema struct encodes to.
func TestNumericEventMarshalsLikeLiteral(t *testing.T) {
	type schema struct {
		Time     float64 `json:"t"`
		Core     int     `json:"core"`
		BS       int     `json:"bs"`
		Subframe int     `json:"sf"`
		Event    Kind    `json:"ev"`
		Detail   string  `json:"detail,omitempty"`
	}
	for _, c := range []struct {
		numeric Event
		literal string
	}{
		{Event{Render: RenderInt, Detail: "decode n=", Arg: 12}, "decode n=12"},
		{Event{Render: RenderInt, Detail: "n= slow", Arg: 2}, "n=2 slow"},
		{Event{Render: RenderG3, Detail: "us", Arg: 45.23}, "45.2us"},
	} {
		c.numeric.Time, c.numeric.Core, c.numeric.BS, c.numeric.Subframe = 560.5, 2, 1, 7
		c.numeric.Event = EvMigWait
		twin := c.numeric
		twin.Render, twin.Detail, twin.Arg = RenderLiteral, c.literal, 0
		got, err := json.Marshal(c.numeric)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(twin)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("numeric event marshals to %s, its literal twin to %s", got, want)
		}
		plain, err := json.Marshal(schema{twin.Time, twin.Core, twin.BS, twin.Subframe, twin.Event, twin.Detail})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("numeric event marshals to %s, the schema to %s", got, plain)
		}
	}
}
