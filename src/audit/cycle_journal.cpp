#include "audit/cycle_journal.h"

#include <iterator>
#include <utility>

namespace ef::audit {

CycleJournal::CycleJournal(const std::string& path, bool include_timing)
    : writer_(path), include_timing_(include_timing) {}

void CycleJournal::append(const core::Controller::CycleRecord& record) {
  std::optional<std::vector<std::uint8_t>> delta;
  if (chained_ && last_.index + 1 < kKeyframeInterval &&
      record.rib.instance_id() == rib_id_ &&
      record.demand.instance_id() == demand_id_) {
    const DeltaLink link{last_.keyframe_crc, last_.index + 1, last_.prev_when};
    delta = serialize_cycle_delta(record, link, rib_seq_, demand_seq_,
                                  include_timing_);
  }
  if (delta) {
    writer_.append(*delta);
    ++last_.index;
    ++deltas_;
  } else {
    last_.keyframe_crc =
        writer_.append(serialize_cycle(record, include_timing_));
    last_.index = 0;
    chained_ = true;
    ++keyframes_;
  }
  // prev_when names the record just written, for the next delta's link.
  last_.prev_when = record.stats.when;
  rib_id_ = record.rib.instance_id();
  rib_seq_ = record.rib.change_seq();
  demand_id_ = record.demand.instance_id();
  demand_seq_ = record.demand.change_seq();
}

std::optional<CycleSnapshotReader> CycleSnapshotReader::open(
    const std::string& path) {
  auto bytes = JournalReader::load(path);
  if (!bytes) return std::nullopt;
  return CycleSnapshotReader(std::move(*bytes));
}

CycleSnapshotReader::CycleSnapshotReader(std::vector<std::uint8_t> bytes)
    : reader_(std::move(bytes)) {}

const CycleSnapshot* CycleSnapshotReader::next() {
  while (auto record = reader_.next()) {
    if (auto snapshot = CycleSnapshot::deserialize(*record)) {
      current_ = std::move(*snapshot);
      keyframe_crc_ = reader_.last_crc();
      index_ = 0;
      have_base_ = true;
      known_egress_.clear();
      for (const EgressRecord& e : current_.egress) {
        known_egress_.emplace(e.address, e);
      }
      next_hop_refs_.clear();
      for (const bgp::Route& route : current_.routes) {
        ++next_hop_refs_[route.attrs.next_hop];
      }
      ++stats_.keyframes;
      return &current_;
    }
    if (auto delta = CycleDelta::deserialize(*record)) {
      if (!apply(std::move(*delta))) {
        ++stats_.deltas_skipped;
        continue;
      }
      ++stats_.deltas;
      return &current_;
    }
    // Journals of a failsafe-armed or auditing daemon interleave events
    // with the cycle records; they are data, not damage.
    if (auto event = FailsafeEvent::deserialize(*record)) {
      failsafe_events_.push_back(std::move(*event));
      continue;
    }
    if (auto event = AuditEvent::deserialize(*record)) {
      audit_events_.push_back(std::move(*event));
      continue;
    }
    ++stats_.undecodable;
  }
  return nullptr;
}

bool CycleSnapshotReader::apply(CycleDelta delta) {
  if (!have_base_ || delta.link.keyframe_crc != keyframe_crc_ ||
      delta.link.index != index_ + 1 ||
      delta.link.prev_when != current_.when) {
    return false;
  }
  CycleSnapshot& body = delta.body;

  // Demand: upsert the changed prefixes (a change log never removes a
  // prefix; removal invalidates it and forces a keyframe).
  std::vector<DemandRecord> demand;
  demand.reserve(current_.demand.size() + body.demand.size());
  auto old_d = current_.demand.begin();
  for (const DemandRecord& d : body.demand) {
    while (old_d != current_.demand.end() && old_d->prefix < d.prefix) {
      demand.push_back(*old_d++);
    }
    if (old_d != current_.demand.end() && old_d->prefix == d.prefix) ++old_d;
    demand.push_back(d);
  }
  demand.insert(demand.end(), old_d, current_.demand.end());

  // Routes: each changed prefix's group is replaced by the delta's.
  std::vector<bgp::Route> routes;
  routes.reserve(current_.routes.size() + body.routes.size());
  auto old_r = current_.routes.begin();
  auto new_r = body.routes.begin();
  for (std::size_t i = 0; i < delta.changed.size(); ++i) {
    const net::Prefix& prefix = delta.changed[i];
    while (old_r != current_.routes.end() && old_r->prefix < prefix) {
      routes.push_back(std::move(*old_r++));
    }
    for (; old_r != current_.routes.end() && old_r->prefix == prefix;
         ++old_r) {
      const auto ref = next_hop_refs_.find(old_r->attrs.next_hop);
      if (ref != next_hop_refs_.end() && --ref->second == 0) {
        next_hop_refs_.erase(ref);
      }
    }
    for (std::uint32_t k = 0; k < delta.route_counts[i]; ++k, ++new_r) {
      ++next_hop_refs_[new_r->attrs.next_hop];
      routes.push_back(std::move(*new_r));
    }
  }
  std::move(old_r, current_.routes.end(), std::back_inserter(routes));

  for (const EgressRecord& e : body.egress) known_egress_[e.address] = e;

  body.demand = std::move(demand);
  body.routes = std::move(routes);
  current_ = std::move(body);
  rebuild_egress();
  index_ = delta.link.index;
  return true;
}

void CycleSnapshotReader::rebuild_egress() {
  current_.egress.clear();
  for (const auto& [next_hop, refs] : next_hop_refs_) {
    if (const auto it = known_egress_.find(next_hop);
        it != known_egress_.end()) {
      current_.egress.push_back(it->second);
    }
  }
}

}  // namespace ef::audit
