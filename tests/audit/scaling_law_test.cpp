// Scaling law: a stage that claims O(churn) must do the same work at N
// and 2N prefixes under the same absolute churn. Work is counted (bytes
// written), not timed, so the test holds on a noisy host.
//
// Asserted O(churn) stages:
//   - journal delta records (CycleJournal between keyframes).
// Stages still O(table), each to move up to the asserted list by the
// change that fixes it, never back down:
//   - journal keyframes: O(table) by design, 1 record in
//     CycleJournal::kKeyframeInterval (ROADMAP item 7 makes them
//     smaller, not churn-sized);
//   - recovery file: the whole override set every cycle (item 1);
//   - enforcement audit: a full read-back diff (item 1);
//   - peak_shift's full allocation fallback (item 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "audit/cycle_journal.h"
#include "net/rng.h"

namespace ef::audit {
namespace {

constexpr int kRoutesPerPrefix = 3;
constexpr int kRouteChurn = 100;   // routes re-announced per cycle
constexpr int kRateChurn = 1000;   // demand rates moved per cycle
constexpr int kWarmCycles = 3;

/// A PoP with `prefixes` prefixes x 3 peers and full demand, whose cycles
/// move a fixed number of routes and rates regardless of table size.
class TablePop {
 public:
  explicit TablePop(std::uint32_t prefixes) : rng_(prefixes) {
    for (std::uint32_t id = 1; id <= kRoutesPerPrefix; ++id) {
      interfaces_.add(telemetry::InterfaceId(id), net::Bandwidth::gbps(100));
      const net::IpAddr next_hop = net::IpAddr::v4(0x0A000000u | id);
      egress_[next_hop] = {telemetry::InterfaceId(id),
                           bgp::PeerType::kPrivatePeer, next_hop};
    }
    for (std::uint32_t i = 0; i < prefixes; ++i) {
      prefixes_.emplace_back(net::IpAddr::v4(0x40000000u | (i << 8)), 24);
      for (std::uint32_t peer = 1; peer <= kRoutesPerPrefix; ++peer) {
        announce(prefixes_.back(), peer, 0);
      }
      demand_.set(prefixes_.back(), net::Bandwidth::mbps(1 + i % 500));
    }
    for (std::uint32_t i = 0; i < 50; ++i) {
      core::Override o;
      o.prefix = prefixes_[i];
      o.rate = net::Bandwidth::mbps(1);
      o.next_hop = net::IpAddr::v4(0x0A000002u);
      o.target_interface = telemetry::InterfaceId(2);
      applied_[o.prefix] = o;
    }
  }

  void churn(int cycle) {
    for (int i = 0; i < kRouteChurn; ++i) {
      announce(pick(), static_cast<std::uint32_t>(rng_.uniform_int(1, 3)),
               static_cast<std::uint32_t>(cycle));
    }
    for (int i = 0; i < kRateChurn; ++i) {
      demand_.set(pick(), net::Bandwidth::mbps(rng_.uniform(1, 900)));
    }
    stats_.when = net::SimTime::seconds(60 * cycle);
  }

  core::Controller::CycleRecord record() const {
    return {demand_, rib_, interfaces_, resolver_, allocator_, applied_,
            stats_};
  }

  // resolver_ captures this.
  TablePop(const TablePop&) = delete;
  TablePop& operator=(const TablePop&) = delete;

 private:
  const net::Prefix& pick() {
    return prefixes_[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(prefixes_.size()) - 1))];
  }

  void announce(const net::Prefix& prefix, std::uint32_t peer,
                std::uint32_t med) {
    bgp::Route route;
    route.prefix = prefix;
    route.attrs.as_path = bgp::AsPath({bgp::AsNumber(64500 + peer),
                                       bgp::AsNumber(3356),
                                       bgp::AsNumber(15169)});
    route.attrs.next_hop = net::IpAddr::v4(0x0A000000u | peer);
    route.attrs.med = bgp::Med(med);
    route.attrs.has_med = true;
    route.learned_from = bgp::PeerId(peer);
    route.peer_type = bgp::PeerType::kPrivatePeer;
    route.neighbor_as = bgp::AsNumber(64500 + peer);
    route.neighbor_router_id = bgp::RouterId(0xC0000200u + peer);
    rib_.announce(route);
  }

  net::Rng rng_;
  bgp::Rib rib_;
  telemetry::DemandMatrix demand_;
  telemetry::InterfaceRegistry interfaces_;
  std::map<net::IpAddr, core::EgressView> egress_;
  const core::EgressResolver resolver_ =
      [this](const bgp::Route& route) -> std::optional<core::EgressView> {
    const auto it = egress_.find(route.attrs.next_hop);
    if (it == egress_.end()) return std::nullopt;
    return it->second;
  };
  core::AllocatorConfig allocator_;
  std::vector<net::Prefix> prefixes_;
  std::map<net::Prefix, core::Override> applied_;
  core::CycleStats stats_;
};

struct JournalWork {
  std::size_t keyframe_bytes = 0;
  std::size_t max_delta_bytes = 0;
};

JournalWork journal_work(std::uint32_t prefixes) {
  TablePop pop(prefixes);
  const std::string path = testing::TempDir() + "scaling_law_" +
                           std::to_string(prefixes) + ".efj";
  JournalWork work;
  {
    CycleJournal journal(path, /*include_timing=*/false);
    journal.append(pop.record());
    work.keyframe_bytes = journal.bytes_written();
    for (int cycle = 1; cycle <= kWarmCycles; ++cycle) {
      pop.churn(cycle);
      const std::size_t before = journal.bytes_written();
      journal.append(pop.record());
      work.max_delta_bytes =
          std::max(work.max_delta_bytes, journal.bytes_written() - before);
    }
    EXPECT_EQ(journal.keyframes(), 1u);
    EXPECT_EQ(journal.deltas(), static_cast<std::size_t>(kWarmCycles));
  }
  std::remove(path.c_str());
  return work;
}

TEST(ScalingLaw, JournalDeltaBytesTrackChurnNotTableSize) {
  const JournalWork n = journal_work(20000);
  const JournalWork two_n = journal_work(40000);
  // The keyframe is O(table): the check below is not vacuous.
  EXPECT_GT(two_n.keyframe_bytes, n.keyframe_bytes * 19 / 10);
  // The delta is O(churn): within 10% at twice the table.
  EXPECT_LE(two_n.max_delta_bytes * 10, n.max_delta_bytes * 11)
      << n.max_delta_bytes << " B at N, " << two_n.max_delta_bytes
      << " B at 2N";
  EXPECT_LE(n.max_delta_bytes * 10, two_n.max_delta_bytes * 11);
  EXPECT_LT(n.max_delta_bytes * 20, n.keyframe_bytes);
}

}  // namespace
}  // namespace ef::audit
