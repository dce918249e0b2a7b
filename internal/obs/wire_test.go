package obs

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomRegistry fills a registry with a randomized mix of counters, gauges
// and histograms (seeded, so failures reproduce).
func randomRegistry(rng *rand.Rand) *Registry {
	reg := NewRegistry()
	for i := 0; i < 1+rng.Intn(4); i++ {
		name := fmt.Sprintf("c_%d_total", rng.Intn(5))
		reg.SetHelp(name, "counter "+name)
		reg.Counter(name, L("shard", fmt.Sprint(rng.Intn(3)))).Add(rng.Int63n(1e6))
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		name := fmt.Sprintf("g_%d", rng.Intn(5))
		reg.Gauge(name, L("core", fmt.Sprint(rng.Intn(4)))).Set(rng.NormFloat64() * 1e3)
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		h := reg.Histogram(fmt.Sprintf("h_%d_seconds", rng.Intn(3)))
		for n := 0; n < 1+rng.Intn(200); n++ {
			switch rng.Intn(10) {
			case 0:
				h.Observe(0)
			case 1:
				h.Observe(-rng.ExpFloat64() * 100)
			default:
				h.Observe(rng.ExpFloat64() * 1e4)
			}
		}
	}
	return reg
}

func encodeDecode(t *testing.T, ws *WireSnapshot) *WireSnapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeWire(&buf, ws); err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeWire(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

// TestWireRoundTripMergeIdentity is the codec's core property: merging
// decoded snapshots must be bit-identical to merging the live registries in
// process — bucket for bucket, series for series — across many randomized
// registry pairs.
func TestWireRoundTripMergeIdentity(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomRegistry(rng), randomRegistry(rng)

		inProc := NewRegistry()
		inProc.Merge(a)
		inProc.Merge(b)

		overWire := NewRegistry()
		for i, reg := range []*Registry{a, b} {
			ws := encodeDecode(t, &WireSnapshot{
				Source:   Source{ID: fmt.Sprintf("src-%d", i)},
				Seq:      uint64(i + 1),
				Snapshot: reg.Snapshot(),
			})
			overWire.MergeSnapshot(ws.Snapshot)
		}

		want, got := inProc.Snapshot(), overWire.Snapshot()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: wire merge differs from in-process merge:\nwant %+v\ngot  %+v", seed, want, got)
		}

		// The Prometheus rendering (what the collector serves) must agree
		// byte for byte too.
		var wantProm, gotProm bytes.Buffer
		if err := inProc.WriteProm(&wantProm); err != nil {
			t.Fatal(err)
		}
		if err := overWire.WriteProm(&gotProm); err != nil {
			t.Fatal(err)
		}
		if wantProm.String() != gotProm.String() {
			t.Fatalf("seed %d: prom rendering differs after wire round-trip", seed)
		}
	}
}

// TestWireEncodingDeterministic pins that encoding the same registry state
// twice yields identical bytes (the smoke test's diffability rests on it).
func TestWireEncodingDeterministic(t *testing.T) {
	reg := randomRegistry(rand.New(rand.NewSource(7)))
	mk := func() string {
		var buf bytes.Buffer
		if err := EncodeWire(&buf, &WireSnapshot{Source: Source{ID: "s"}, Seq: 3, Snapshot: reg.Snapshot()}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("non-deterministic encoding:\n%s\nvs\n%s", a, b)
	}
}

// TestWireHelpSurvives checks HELP text crosses the wire, so the merged
// /metrics exposition matches a single process's.
func TestWireHelpSurvives(t *testing.T) {
	reg := NewRegistry()
	reg.SetHelp("x_total", "The x count.")
	reg.Counter("x_total").Inc()
	ws := encodeDecode(t, &WireSnapshot{Source: Source{ID: "s"}, Seq: 1, Snapshot: reg.Snapshot()})
	merged := NewRegistry()
	merged.MergeSnapshot(ws.Snapshot)
	var buf bytes.Buffer
	if err := merged.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# HELP x_total The x count.") {
		t.Fatalf("help lost over the wire:\n%s", buf.String())
	}
}

func TestWireVersionAndValidation(t *testing.T) {
	snap := NewRegistry().Snapshot()
	cases := []struct {
		name string
		in   string
	}{
		{"future version", `{"version":99,"source":{"id":"s"},"seq":1,"snapshot":{}}`},
		{"zero version", `{"source":{"id":"s"},"seq":1,"snapshot":{}}`},
		{"missing source id", `{"version":1,"source":{},"seq":1,"snapshot":{}}`},
		{"missing payload", `{"version":1,"source":{"id":"s"},"seq":1}`},
		{"malformed json", `{"version":1,`},
	}
	for _, c := range cases {
		if _, err := DecodeWire(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: decode accepted %q", c.name, c.in)
		}
	}
	// Encode stamps the current version even when the caller leaves it 0.
	var buf bytes.Buffer
	if err := EncodeWire(&buf, &WireSnapshot{Source: Source{ID: "s"}, Snapshot: snap}); err != nil {
		t.Fatal(err)
	}
	ws, err := DecodeWire(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Version != WireVersion {
		t.Fatalf("decoded version = %d, want %d", ws.Version, WireVersion)
	}
	// Encoding an invalid envelope must fail rather than emit garbage.
	if err := EncodeWire(&buf, &WireSnapshot{Snapshot: snap}); err == nil {
		t.Fatal("encode accepted an envelope without a source id")
	}
}

// FuzzDecodeWire: any envelope DecodeWire accepts must survive the
// collector — Ingest, Merged and the /metrics rendering — without
// panicking, and re-encode to bytes that decode and re-encode identically.
func FuzzDecodeWire(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		var buf bytes.Buffer
		ws := &WireSnapshot{Source: Source{ID: fmt.Sprint("src-", seed)}, Seq: 1, Snapshot: randomRegistry(rand.New(rand.NewSource(seed))).Snapshot()}
		if err := EncodeWire(&buf, ws); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, s := range []string{
		`{"version":1,"source":{"id":"s"},"seq":1,"snapshot":{}}`,
		`{"version":99,"source":{"id":"s"},"seq":1,"snapshot":{}}`,
		`{"version":1,"source":{"id":"evil"},"seq":1,"snapshot":{"counters":[{"name":"x","value":-1}]}}`,
		`{"version":1,"source":{"id":"s"},"seq":1,"snapshot":{"counters":[{"name":"x","value":1}],"gauges":[{"name":"x","value":2}]}}`,
		`{"version":1,"source":{"id":"s"},"seq":2,"final":true,"snapshot":{"histograms":[{"name":"h","value":{"count":3,"sum":1,"min":-1,"max":9,"zero":1,"pos":[{"i":99999,"n":1}],"neg":[{"i":-7,"n":1}]}}],"help":{"h":"x"}}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ws, err := DecodeWire(bytes.NewReader(data))
		if err != nil {
			return
		}
		col := NewCollector(CollectorConfig{})
		if _, err := col.Ingest(ws); err != nil {
			t.Fatalf("Ingest rejected an envelope DecodeWire accepted: %v", err)
		}
		col.Merged()
		if err := col.MergedRegistry().WriteProm(io.Discard); err != nil {
			t.Fatal(err)
		}
		var once, twice bytes.Buffer
		if err := EncodeWire(&once, ws); err != nil {
			t.Fatalf("EncodeWire rejected a decoded envelope: %v", err)
		}
		again, err := DecodeWire(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-decode: %v\n%s", err, once.Bytes())
		}
		if err := EncodeWire(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("encoding not stable across a round trip:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
