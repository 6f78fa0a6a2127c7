// Cycle snapshots: the complete input and output of one controller
// allocation cycle, captured as a value and serialized with a versioned
// binary wire format.
//
// The paper's controller is stateless — every cycle is a pure function of
// (RIB, demand, interface state). A snapshot records exactly that triple
// plus the decision the controller made, which is what makes the offline
// replay/what-if engine (replay.h) possible: re-running the allocator on
// a snapshot must reproduce the recorded allocation bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/controller.h"

namespace ef::audit {

/// Bump when the wire format changes; the reader rejects unknown versions.
/// v2 appended the incremental-cycle annotation trailer (dirty set size,
/// escalations, fallback flag, wall time); v1 snapshots still read fine
/// with the trailer defaulted to zeros.
inline constexpr std::uint16_t kSnapshotVersion = 2;

/// One egress interface's state at capture time.
struct InterfaceRecord {
  telemetry::InterfaceId id;
  net::Bandwidth capacity;
  bool drained = false;

  friend bool operator==(const InterfaceRecord&,
                         const InterfaceRecord&) = default;
};

/// One entry of the NEXT_HOP -> egress resolution map (what the routers'
/// forwarding planes would do with each candidate route).
struct EgressRecord {
  net::IpAddr address;
  telemetry::InterfaceId interface;
  bgp::PeerType type = bgp::PeerType::kTransit;

  friend bool operator==(const EgressRecord&, const EgressRecord&) = default;
};

/// Demand for one destination prefix.
struct DemandRecord {
  net::Prefix prefix;
  net::Bandwidth rate;

  friend bool operator==(const DemandRecord&, const DemandRecord&) = default;
};

/// One cycle's complete controller input and output.
struct CycleSnapshot {
  std::uint16_t version = kSnapshotVersion;
  net::SimTime when;

  // --- Input: everything the stateless allocator consumed. -------------
  core::AllocatorConfig allocator;
  bgp::DecisionConfig decision;
  std::vector<InterfaceRecord> interfaces;  // sorted by id
  std::vector<EgressRecord> egress;         // sorted by address
  std::vector<DemandRecord> demand;         // sorted by prefix
  /// All natural (non-controller) candidate routes, grouped by prefix in
  /// prefix order, preserving the RIB's per-prefix storage order.
  std::vector<bgp::Route> routes;

  // --- Output: what the controller decided. -----------------------------
  std::vector<core::Override> allocated;  // raw allocator output
  std::map<telemetry::InterfaceId, net::Bandwidth> projected_load;
  std::map<telemetry::InterfaceId, net::Bandwidth> final_load;
  std::uint64_t overloaded_interfaces = 0;
  net::Bandwidth unresolved_overload;
  net::Bandwidth unroutable;
  /// Post-hysteresis/advisor/safety override set actually enforced.
  std::vector<core::Override> applied;
  core::SafetyStats safety;
  std::uint64_t added = 0;
  std::uint64_t removed = 0;
  std::uint64_t retained_by_hysteresis = 0;
  std::uint64_t perf_overrides = 0;

  // --- Annotations (v2): how the cycle executed. ------------------------
  // Execution metadata, never decision inputs — replay ignores them when
  // verifying (a recompute of an incremental cycle must match regardless
  // of how the original was computed; that IS the drift check).
  std::uint64_t dirty_prefixes = 0;
  std::uint64_t escalations = 0;
  std::uint64_t full_fallbacks = 0;
  bool incremental_cycle = false;
  /// Wall-clock nanoseconds the allocator call took, so replayed journals
  /// can compare incremental vs full cycle cost offline. Stamped only
  /// when serialize_cycle() is told to include timing (the live efd path):
  /// deterministic recorders leave it zero, because wall clocks vary
  /// run-to-run and journal bytes from identical simulations must stay
  /// bitwise identical.
  std::uint64_t allocation_wall_ns = 0;

  /// Compact big-endian binary encoding (see DESIGN.md "Auditing &
  /// replay" for the layout).
  std::vector<std::uint8_t> serialize() const;

  /// Decodes one snapshot; nullopt on malformed bytes or an unsupported
  /// version.
  static std::optional<CycleSnapshot> deserialize(
      std::span<const std::uint8_t> bytes);

  friend bool operator==(const CycleSnapshot&, const CycleSnapshot&) = default;
};

/// Leading u16 of a warm-restart recovery record (see RecoverySnapshot).
/// Disjoint from every snapshot version and from the event tags in
/// event.h, so a recovery file fed to the wrong reader is rejected.
inline constexpr std::uint16_t kRecoverySnapshotTag = 0xEFC0;

/// The minimum state efd needs to resume enforcement after a crash: the
/// last-good override set and when it was computed. Written atomically to
/// the recovery file each healthy cycle and on orderly shutdown; read
/// back by `efd --recover` to enter hold-last-good instead of cold
/// fail-static (see docs/FAILSAFE.md, warm-restart runbook). Uses the
/// same big-endian wire helpers as CycleSnapshot and travels in the same
/// EFJ1 CRC framing, so corruption is detected the same way journal
/// corruption is.
struct RecoverySnapshot {
  net::SimTime when;
  std::vector<core::Override> overrides;  // sorted by prefix on write

  std::vector<std::uint8_t> serialize() const;

  /// Decodes one record; nullopt on malformed bytes or a wrong tag.
  static std::optional<RecoverySnapshot> deserialize(
      std::span<const std::uint8_t> bytes);

  friend bool operator==(const RecoverySnapshot&,
                         const RecoverySnapshot&) = default;
};

/// Encodes a controller cycle callback straight to CycleSnapshot wire
/// bytes, reading the live RIB, demand and interface state in place — no
/// route is copied. Controller-injected routes are excluded; everything
/// else is written verbatim, in sorted order, so identical cycle state
/// serializes to identical bytes. The egress map resolves each distinct
/// NEXT_HOP once, through the first natural route carrying it, so
/// `record.resolve` must be a function of the route's NEXT_HOP (as the
/// PoP's resolver and replay's are). With `include_timing` the
/// allocation wall time is stamped too — live services want it;
/// deterministic recorders (simulation journals, whose bytes are compared
/// across runs and thread counts) must not. This is the full-record
/// encoder of live state: CycleJournal writes its keyframes with it.
std::vector<std::uint8_t> serialize_cycle(
    const core::Controller::CycleRecord& record, bool include_timing = false);

/// Leading u16 of a delta cycle record (CycleJournal). Far from every
/// snapshot version and disjoint from the event and recovery tags, so
/// CycleSnapshot::deserialize rejects a delta and vice versa.
inline constexpr std::uint16_t kCycleDeltaTag = 0xEFD1;

/// Where a delta record sits: the chain it belongs to and the exact
/// record it applies on top of. A chain is one keyframe (a full
/// serialize_cycle record, index 0) followed by deltas 1, 2, ...; the
/// delta at `index` applies only to the state the record at index - 1
/// of the same chain left, whose `when` is `prev_when`.
struct DeltaLink {
  std::uint32_t keyframe_crc = 0;  // frame CRC32 of the chain's keyframe
  std::uint32_t index = 0;
  net::SimTime prev_when;
};

/// Encodes a cycle as a delta against the journaled state that the RIB
/// and demand change cursors `rib_since` / `demand_since` were taken at
/// (the change_seq() values right after the previous record). Reads only
/// the change logs and the changed prefixes, never the whole RIB or
/// demand table: the record carries the newest rate of each changed
/// demand prefix, each changed prefix's current natural routes in RIB
/// order (none: the prefix is gone or holds only controller routes),
/// the egress entries of those routes' NEXT_HOPs, and everything that is
/// O(interfaces + overrides) in full. nullopt when either change log
/// answers kTooOld; the caller then writes a keyframe.
std::optional<std::vector<std::uint8_t>> serialize_cycle_delta(
    const core::Controller::CycleRecord& record, const DeltaLink& link,
    std::uint64_t rib_since, std::uint64_t demand_since,
    bool include_timing = false);

/// One decoded delta record. `body` holds the fields a delta carries in
/// full (header, configs, interfaces, outputs, trailer); its `egress`,
/// `demand` and `routes` hold only the delta's entries: the egress of
/// the changed routes' NEXT_HOPs, the changed demand, and the routes of
/// `changed[i]` as `route_counts[i]` consecutive entries of `routes`.
/// `changed` and `demand` are strictly sorted by prefix.
struct CycleDelta {
  DeltaLink link;
  CycleSnapshot body;
  std::vector<net::Prefix> changed;
  std::vector<std::uint32_t> route_counts;

  /// nullopt on malformed bytes or a record that is not a delta.
  static std::optional<CycleDelta> deserialize(
      std::span<const std::uint8_t> bytes);
};

/// The same cycle as a value: the decode of serialize_cycle()'s bytes, so
/// `capture_cycle(r).serialize() == serialize_cycle(r)` by construction.
/// For callers that inspect or mutate the snapshot (replay, what-if);
/// callers that only write it should call serialize_cycle().
CycleSnapshot capture_cycle(const core::Controller::CycleRecord& record,
                            bool include_timing = false);

}  // namespace ef::audit
