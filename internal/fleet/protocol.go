// Package fleet distributes a sweep across worker processes: a
// coordinator expands a sweep spec into the same (experiment × replica)
// units sweep.Run schedules, leases them to workers over HTTP, renews
// leases via heartbeat, re-leases units whose worker dies or goes silent,
// and funnels every finished unit's artifact record through the same
// content-hash-deduping store ingest that -resume uses — so a fleet
// sweep's JSON-lines store is byte-identical (modulo line order) to a
// serial sweep.Run of the same spec, and a crashed-and-re-leased unit
// yields exactly one record.
//
// The protocol (JSON over HTTP, versioned by ProtocolVersion) and its
// TTL/heartbeat rules are documented in internal/fleet/README.md.
package fleet

import (
	"encoding/json"

	"rtopex/internal/harness"
)

// ProtocolVersion tags the lease wire protocol. A coordinator rejects
// requests stamped with a different version (HTTP 400, which clients treat
// as permanent): seeds, unit keys and artifact bytes must all be computed
// by the same code on both sides, so a version-skewed worker must not be
// allowed to contribute records.
//
// v2 leases no longer carry the registry position ("shard") that v1 seeds
// were derived from.
const ProtocolVersion = 2

// Endpoint paths of the coordinator's HTTP surface.
const (
	LeasePath     = "/lease"      // POST LeaseRequest → LeaseResponse
	HeartbeatPath = "/heartbeat"  // POST HeartbeatRequest → HeartbeatResponse
	CompletePath  = "/complete"   // POST CompleteRequest → CompleteResponse
	FailPath      = "/fail"       // POST FailRequest → FailResponse
	StatePath     = "/state.json" // GET coordinator state summary
)

// LeaseRequest asks the coordinator for one unit to execute.
type LeaseRequest struct {
	Protocol int    `json:"protocol"`
	Worker   string `json:"worker"`
}

// Lease statuses a LeaseResponse can carry.
const (
	StatusLease = "lease" // a unit was granted
	StatusWait  = "wait"  // nothing leasable now; retry after RetryMillis
	StatusDone  = "done"  // every unit is resolved; the worker may exit
)

// WireLease is one granted unit: everything a worker needs to reproduce
// the unit bit-for-bit (the resolved options embed the derived seed) plus
// the lease's liveness contract.
type WireLease struct {
	// ID names this grant; heartbeats, completions and failures quote it.
	ID string `json:"id"`
	// Key is the unit's artifact key. The worker recomputes it locally and
	// refuses the lease on mismatch — the cheap cross-version guard.
	Key        string                  `json:"key"`
	Experiment string                  `json:"experiment"`
	Replica    int                     `json:"replica,omitempty"`
	Config     harness.ResolvedOptions `json:"config"`
	// TTLMillis is the lease's time-to-live: a worker must heartbeat well
	// inside it (the client heartbeats every TTL/3) or the unit is
	// reclaimed and re-leased.
	TTLMillis int64 `json:"ttl_ms"`
	// TimeoutMillis, when > 0, bounds the unit's compute; a worker reports
	// a timed-out unit as failed with TimedOut set, releasing the unit for
	// re-lease.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// LeaseResponse answers a lease request.
type LeaseResponse struct {
	Status      string     `json:"status"`
	Lease       *WireLease `json:"lease,omitempty"`
	RetryMillis int64      `json:"retry_ms,omitempty"`
}

// HeartbeatRequest renews every lease the worker still holds.
type HeartbeatRequest struct {
	Protocol int      `json:"protocol"`
	Worker   string   `json:"worker"`
	LeaseIDs []string `json:"lease_ids"`
}

// HeartbeatResponse lists the lease ids the coordinator no longer honors
// (expired and reclaimed, or completed): the worker drops them from its
// heartbeat set. Work already in flight may still be completed — the
// coordinator dedups by content hash.
type HeartbeatResponse struct {
	Rejected []string `json:"rejected,omitempty"`
}

// CompleteRequest delivers one finished unit's artifact record (the
// sweep.Record JSON, exactly the store line bytes modulo whitespace).
type CompleteRequest struct {
	Protocol int             `json:"protocol"`
	Worker   string          `json:"worker"`
	LeaseID  string          `json:"lease_id"`
	Record   json.RawMessage `json:"record"`
}

// Complete statuses.
const (
	StatusOK        = "ok"        // record accepted and stored
	StatusDuplicate = "duplicate" // unit already had a byte-identical record
)

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	Status string `json:"status"`
}

// FailRequest reports a unit the worker could not finish.
type FailRequest struct {
	Protocol int    `json:"protocol"`
	Worker   string `json:"worker"`
	LeaseID  string `json:"lease_id"`
	Key      string `json:"key"`
	Err      string `json:"err"`
	// TimedOut marks a compute-budget expiry: the unit is released for
	// re-lease (until the attempt cap) rather than failed permanently.
	TimedOut bool `json:"timed_out,omitempty"`
}

// Fail statuses.
const (
	StatusFailed   = "failed"   // recorded as a permanent unit failure
	StatusReleased = "released" // unit returned to the pending queue
	StatusIgnored  = "ignored"  // stale report (unit already resolved)
)

// FailResponse reports what the coordinator did with the failure.
type FailResponse struct {
	Status string `json:"status"`
}
