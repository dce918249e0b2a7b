package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// This file is the wire codec of the distributed observability plane: the
// versioned envelope a worker process pushes its registry snapshot in, and
// the decoder a collector reads it with. The payload is the deterministic
// Snapshot JSON (series sorted by canonical id, buckets by index, help keys
// by name), so encoding the same registry state twice yields identical
// bytes, and MergeSnapshot after a decode is bit-identical to an in-process
// merge — counters and bucket counts are integers, and gauges/sums are
// float64s that survive JSON exactly (Go renders them in shortest
// round-trip form). See internal/obs/README.md for the format and its
// version/compat rules.

// WireVersion is the envelope version this package writes. Bump it when the
// envelope or Snapshot JSON changes incompatibly, and add the old version
// to readableWireVersions if a decoder for it is kept.
const WireVersion = 1

// readableWireVersions are the envelope versions DecodeWire accepts.
var readableWireVersions = map[int]bool{1: true}

// maxWireBytes bounds one decoded push (64 MiB) so a stray client cannot
// balloon a collector.
const maxWireBytes = 64 << 20

// Source identifies one pushing process. ID is the dedup key the collector
// tracks sources by; Host/PID/Labels are descriptive (shard range, role, …)
// and surfaced on the collector's dashboard.
type Source struct {
	ID     string  `json:"id"`
	Host   string  `json:"host,omitempty"`
	PID    int     `json:"pid,omitempty"`
	Labels []Label `json:"labels,omitempty"`
}

// String renders the source for logs and dashboards.
func (s Source) String() string {
	if len(s.Labels) == 0 {
		return s.ID
	}
	return s.ID + "{" + canonicalLabels(s.Labels) + "}"
}

// DefaultSource derives a Source for this process (hostname-pid), with
// optional descriptive labels.
func DefaultSource(labels ...Label) Source {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "unknown"
	}
	pid := os.Getpid()
	return Source{ID: fmt.Sprintf("%s-%d", host, pid), Host: host, PID: pid, Labels: labels}
}

// WireSnapshot is the push envelope: one full registry snapshot from one
// source. Pushes carry full state, not deltas, so the collector's per-source
// slot is replaced on every accepted push and a lost or repeated push never
// double-counts. Seq orders pushes from one source; the collector keeps the
// highest seen and drops the rest (retry idempotence). Final marks the
// source's last push: the process is exiting and its state is complete.
type WireSnapshot struct {
	Version  int       `json:"version"`
	Source   Source    `json:"source"`
	Seq      uint64    `json:"seq"`
	Final    bool      `json:"final,omitempty"`
	Snapshot *Snapshot `json:"snapshot"`
}

// Validate checks the envelope's invariants (after defaulting Version 0 is
// invalid — encoders always stamp one), including that its snapshot merges:
// no negative counter and no family carried under two kinds.
func (ws *WireSnapshot) Validate() error {
	_, err := ws.validate()
	return err
}

// validate is Validate returning the snapshot's family kinds, which the
// collector checks against its other sources.
func (ws *WireSnapshot) validate() (map[string]kind, error) {
	if ws == nil {
		return nil, fmt.Errorf("obs: nil wire snapshot")
	}
	if !readableWireVersions[ws.Version] {
		return nil, fmt.Errorf("obs: wire version %d not supported (this build reads %v, writes %d)",
			ws.Version, sortedWireVersions(), WireVersion)
	}
	if ws.Source.ID == "" {
		return nil, fmt.Errorf("obs: wire snapshot without source id")
	}
	if ws.Snapshot == nil {
		return nil, fmt.Errorf("obs: wire snapshot without payload")
	}
	kinds := map[string]kind{}
	if err := ws.Snapshot.addKinds(kinds); err != nil {
		return nil, err
	}
	return kinds, nil
}

func sortedWireVersions() []int {
	out := make([]int, 0, len(readableWireVersions))
	for v := range readableWireVersions {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ { // tiny insertion sort; the set is tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// EncodeWire writes the envelope as one JSON document. The version is
// stamped; the encoding of a given snapshot state is deterministic.
func EncodeWire(w io.Writer, ws *WireSnapshot) error {
	stamped := *ws
	stamped.Version = WireVersion
	if err := stamped.Validate(); err != nil {
		return err
	}
	b, err := json.Marshal(&stamped)
	if err != nil {
		return fmt.Errorf("obs: encode wire snapshot: %v", err)
	}
	_, err = w.Write(b)
	return err
}

// DecodeWire reads one envelope, enforcing the version set and the size
// bound. A decode error leaves nothing half-applied: callers only see a
// fully validated envelope or an error.
func DecodeWire(r io.Reader) (*WireSnapshot, error) {
	b, err := io.ReadAll(io.LimitReader(r, maxWireBytes+1))
	if err != nil {
		return nil, fmt.Errorf("obs: read wire snapshot: %v", err)
	}
	if len(b) > maxWireBytes {
		return nil, fmt.Errorf("obs: wire snapshot exceeds %d bytes", maxWireBytes)
	}
	var ws WireSnapshot
	if err := json.Unmarshal(b, &ws); err != nil {
		return nil, fmt.Errorf("obs: decode wire snapshot: %v", err)
	}
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	return &ws, nil
}
