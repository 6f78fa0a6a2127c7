// Cycle journals: keyframes plus churn-sized delta records.
//
// A cycle record in full (serialize_cycle) is O(table): at 100k prefixes
// x 3 routes it is ~26 MB, while a steady-state window changes ~0.1% of
// the routes and ~1% of the rates. CycleJournal therefore writes a full
// record (a keyframe) only every kKeyframeInterval records, or when it
// cannot prove what changed, and a delta record (serialize_cycle_delta)
// read from the RIB and demand change cursors on every other cycle.
// CycleSnapshotReader applies each delta to its exact predecessor and
// yields full CycleSnapshots again, so replay and what-if never see a
// delta. DESIGN.md "Auditing & replay" documents the format.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "audit/event.h"
#include "audit/journal.h"
#include "audit/snapshot.h"

namespace ef::audit {

/// Writes controller cycles to a journal file as keyframes and deltas,
/// plus any other record (failsafe and audit events) in between.
class CycleJournal {
 public:
  /// Records per chain: one keyframe, then up to kKeyframeInterval - 1
  /// deltas. Bounds both what one lost frame can cost (the rest of its
  /// chain) and a reader's work to reach any cycle (one keyframe decode
  /// plus at most 63 small deltas), while a keyframe's O(table) cost is
  /// paid on 1 cycle in 64.
  static constexpr std::uint32_t kKeyframeInterval = 64;

  /// Creates/truncates `path`. `include_timing` stamps the allocation
  /// wall time (see serialize_cycle).
  CycleJournal(const std::string& path, bool include_timing);

  bool ok() const { return writer_.ok(); }

  /// Journals one cycle. A keyframe when this is the file's first cycle
  /// record, the chain is full, the RIB or demand matrix is a different
  /// object than at the previous record (instance_id()), or either change
  /// log answers kTooOld; a delta otherwise.
  void append(const core::Controller::CycleRecord& record);

  /// Appends a non-cycle record (a failsafe or audit event) verbatim. It
  /// is not part of any chain: deltas link past it.
  void append_event(std::span<const std::uint8_t> record) {
    writer_.append(record);
  }

  void flush() { writer_.flush(); }

  std::size_t keyframes() const { return keyframes_; }
  std::size_t deltas() const { return deltas_; }
  std::size_t records_written() const { return writer_.records_written(); }
  std::size_t bytes_written() const { return writer_.bytes_written(); }

 private:
  JournalWriter writer_;
  bool include_timing_;
  std::size_t keyframes_ = 0;
  std::size_t deltas_ = 0;
  /// The previous cycle record: its link (index within its chain, the
  /// chain's keyframe CRC, its `when`) and the change cursors right
  /// after it was written.
  bool chained_ = false;
  DeltaLink last_;
  std::uint64_t rib_id_ = 0;
  std::uint64_t rib_seq_ = 0;
  std::uint64_t demand_id_ = 0;
  std::uint64_t demand_seq_ = 0;
};

/// What a CycleSnapshotReader made of the intact frames it read; every
/// snapshot it yielded is one keyframe or one applied delta.
struct CycleReadStats {
  std::size_t keyframes = 0;       // keyframes decoded
  std::size_t deltas = 0;          // deltas applied
  std::size_t deltas_skipped = 0;  // deltas whose predecessor is missing
  std::size_t undecodable = 0;     // intact frames that decode as nothing
};

/// Reads a journal back as full cycle snapshots, collecting the failsafe
/// and audit events interleaved with them. Never yields a snapshot built
/// on the wrong base: a delta applies only on top of the exact record it
/// links to, so after a lost or corrupt frame every delta up to the next
/// keyframe is skipped (and counted).
class CycleSnapshotReader {
 public:
  /// Reads a whole journal file; nullopt when it cannot be opened.
  static std::optional<CycleSnapshotReader> open(const std::string& path);

  explicit CycleSnapshotReader(std::vector<std::uint8_t> bytes);

  /// The next cycle snapshot, valid until the following call; nullptr
  /// at the end of the journal.
  const CycleSnapshot* next();

  /// Events seen so far (complete once next() returned nullptr).
  const std::vector<FailsafeEvent>& failsafe_events() const {
    return failsafe_events_;
  }
  const std::vector<AuditEvent>& audit_events() const {
    return audit_events_;
  }

  const CycleReadStats& stats() const { return stats_; }
  /// Frame-level damage: CRC failures, resyncs, a truncated tail.
  const JournalReadStats& journal_stats() const { return reader_.stats(); }

 private:
  bool apply(CycleDelta delta);
  void rebuild_egress();

  JournalReader reader_;
  CycleReadStats stats_;
  std::vector<FailsafeEvent> failsafe_events_;
  std::vector<AuditEvent> audit_events_;

  /// The last snapshot yielded and where it sits in its chain.
  bool have_base_ = false;
  CycleSnapshot current_;
  std::uint32_t keyframe_crc_ = 0;
  std::uint32_t index_ = 0;
  /// Every NEXT_HOP resolution the chain has carried (the resolver is a
  /// function of the NEXT_HOP), and how many of current_'s routes carry
  /// each NEXT_HOP: current_.egress is the resolved subset of the
  /// NEXT_HOPs with a nonzero count, as serialize_cycle() writes it.
  std::map<net::IpAddr, EgressRecord> known_egress_;
  std::map<net::IpAddr, std::size_t> next_hop_refs_;
};

}  // namespace ef::audit
