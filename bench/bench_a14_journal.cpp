// A14 (audit subsystem cost): what recording and replaying cycles costs —
// live-cycle encode (serialize_cycle vs the capture_cycle value path, and
// a steady-state delta record at 100k prefixes x 3 routes), snapshot
// serialize/deserialize throughput, CRC-32 and journal append
// throughput, and replay cycles/sec — so the overhead of always-on
// auditing can be judged against the 30s production cycle budget. Uses
// google-benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "audit/journal.h"
#include "audit/replay.h"
#include "audit/snapshot.h"
#include "core/controller.h"
#include "net/bytes.h"
#include "net/rng.h"
#include "topology/pop.h"
#include "topology/world.h"
#include "workload/demand.h"

namespace {

using namespace ef;

/// The busiest baseline hour of a standard single-PoP world, kept live:
/// run() re-runs that hour's controller cycle and hands its record to a
/// callback, which is the only place a CycleRecord exists.
class LiveCycle {
 public:
  static LiveCycle& get() {
    static LiveCycle live;
    return live;
  }

  template <class Fn>
  void run(Fn&& fn) {
    controller_.set_cycle_observer(
        [&](const core::Controller::CycleRecord& record) { fn(record); });
    controller_.run_cycle(demand_, net::SimTime::hours(hour_));
    controller_.set_cycle_observer(nullptr);
  }

  const audit::CycleSnapshot& busiest() const { return busiest_; }

  // The controller's cycle observer captures this.
  LiveCycle(const LiveCycle&) = delete;
  LiveCycle& operator=(const LiveCycle&) = delete;

 private:
  LiveCycle()
      : world_(topology::World::generate(world_config())),
        pop_(world_, 0),
        controller_(pop_, {}) {
    controller_.connect();
    workload::DemandGenerator gen(world_, 0, {});
    for (int hour = 0; hour < 24; ++hour) {
      run_hour(gen, hour);
    }
    demand_ = gen.baseline(net::SimTime::hours(hour_));
  }

  static topology::WorldConfig world_config() {
    topology::WorldConfig config;
    config.num_clients = 56;
    config.num_pops = 1;
    return config;
  }

  void run_hour(workload::DemandGenerator& gen, int hour) {
    controller_.set_cycle_observer(
        [&](const core::Controller::CycleRecord& record) {
          audit::CycleSnapshot snapshot = audit::capture_cycle(record);
          if (hour == 0 ||
              snapshot.allocated.size() > busiest_.allocated.size()) {
            busiest_ = std::move(snapshot);
            hour_ = hour;
          }
        });
    controller_.run_cycle(gen.baseline(net::SimTime::hours(hour)),
                          net::SimTime::hours(hour));
  }

  topology::World world_;
  topology::Pop pop_;
  core::Controller controller_;
  telemetry::DemandMatrix demand_;
  audit::CycleSnapshot busiest_;
  int hour_ = 0;
};

/// One real captured cycle, so serialize/replay costs reflect a loaded
/// cycle.
const audit::CycleSnapshot& captured_cycle() {
  return LiveCycle::get().busiest();
}

// The journal path: live cycle state straight to wire bytes.
void BM_SerializeCycle(benchmark::State& state) {
  std::size_t bytes = 0;
  LiveCycle::get().run([&](const core::Controller::CycleRecord& record) {
    for (auto _ : state) {
      auto wire = audit::serialize_cycle(record, /*include_timing=*/true);
      bytes = wire.size();
      benchmark::DoNotOptimize(wire);
    }
  });
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SerializeCycle)->Unit(benchmark::kMicrosecond);

/// steady_rate's table: 100k prefixes x 3 routes with demand on every
/// prefix, then one window's churn — 0.1% of the routes re-announced and
/// 1% of the rates moved — behind change cursors taken before it.
class SteadyTable {
 public:
  static constexpr std::uint32_t kPrefixes = 100000;
  static constexpr std::uint32_t kPeers = 3;

  static SteadyTable& get() {
    static SteadyTable table;
    return table;
  }

  core::Controller::CycleRecord record() const {
    return {demand_, rib_, interfaces_, resolver_, allocator_, applied_,
            stats_};
  }
  std::uint64_t rib_cursor() const { return rib_cursor_; }
  std::uint64_t demand_cursor() const { return demand_cursor_; }

  // resolver_ captures this.
  SteadyTable(const SteadyTable&) = delete;
  SteadyTable& operator=(const SteadyTable&) = delete;

 private:
  SteadyTable() {
    for (std::uint32_t peer = 1; peer <= kPeers; ++peer) {
      interfaces_.add(telemetry::InterfaceId(peer),
                      net::Bandwidth::gbps(100));
      const net::IpAddr next_hop = net::IpAddr::v4(0x0A000000u | peer);
      egress_[next_hop] = {telemetry::InterfaceId(peer),
                           bgp::PeerType::kPrivatePeer, next_hop};
    }
    std::vector<net::Prefix> prefixes;
    prefixes.reserve(kPrefixes);
    for (std::uint32_t i = 0; i < kPrefixes; ++i) {
      prefixes.emplace_back(net::IpAddr::v4(0x20000000u + (i << 8)), 24);
      for (std::uint32_t peer = 1; peer <= kPeers; ++peer) {
        announce(prefixes.back(), peer, 0);
      }
      demand_.set(prefixes.back(), net::Bandwidth::mbps(1 + i % 700));
    }
    for (std::uint32_t i = 0; i < 1000; ++i) {
      core::Override o;
      o.prefix = prefixes[i * 97];
      o.rate = net::Bandwidth::mbps(5);
      o.next_hop = net::IpAddr::v4(0x0A000002u);
      o.target_interface = telemetry::InterfaceId(2);
      applied_[o.prefix] = o;
    }
    rib_cursor_ = rib_.change_seq();
    demand_cursor_ = demand_.change_seq();
    net::Rng rng(1);
    const auto pick = [&]() -> const net::Prefix& {
      return prefixes[static_cast<std::size_t>(
          rng.uniform_int(0, kPrefixes - 1))];
    };
    for (std::uint32_t i = 0; i < kPrefixes * kPeers / 1000; ++i) {
      announce(pick(), static_cast<std::uint32_t>(rng.uniform_int(1, kPeers)),
               1);
    }
    for (std::uint32_t i = 0; i < kPrefixes / 100; ++i) {
      demand_.set(pick(), net::Bandwidth::mbps(rng.uniform(1, 700)));
    }
    stats_.when = net::SimTime::seconds(60);
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
  std::map<net::Prefix, core::Override> applied_;
  core::CycleStats stats_;
  std::uint64_t rib_cursor_ = 0;
  std::uint64_t demand_cursor_ = 0;
};

// What CycleJournal writes on a steady-state cycle between keyframes:
// the delta record from the change cursors. The keyframe it replaces
// (serialize_cycle of the same table) is reported for scale.
void BM_SerializeDelta(benchmark::State& state) {
  const SteadyTable& table = SteadyTable::get();
  const core::Controller::CycleRecord record = table.record();
  const audit::DeltaLink link{0x1234u, 1, net::SimTime::seconds(0)};
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto wire = audit::serialize_cycle_delta(record, link, table.rib_cursor(),
                                             table.demand_cursor(),
                                             /*include_timing=*/true);
    bytes = wire ? wire->size() : 0;
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.counters["delta_bytes"] = static_cast<double>(bytes);
  state.counters["keyframe_bytes"] = static_cast<double>(
      audit::serialize_cycle(record, /*include_timing=*/true).size());
}
BENCHMARK(BM_SerializeDelta)->Unit(benchmark::kMicrosecond);

// The value path a what-if caller takes, then serialized again: what
// BM_SerializeCycle saves a journal writer.
void BM_CaptureCycleThenSerialize(benchmark::State& state) {
  std::size_t bytes = 0;
  LiveCycle::get().run([&](const core::Controller::CycleRecord& record) {
    for (auto _ : state) {
      auto wire =
          audit::capture_cycle(record, /*include_timing=*/true).serialize();
      bytes = wire.size();
      benchmark::DoNotOptimize(wire);
    }
  });
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CaptureCycleThenSerialize)->Unit(benchmark::kMicrosecond);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> buffer(std::size_t{1} << 20);
  std::uint32_t x = 1;
  for (std::uint8_t& b : buffer) {
    x = x * 1103515245u + 12345u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(audit::crc32(buffer));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buffer.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMicrosecond);

void BM_SnapshotSerialize(benchmark::State& state) {
  const audit::CycleSnapshot& snapshot = captured_cycle();
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto wire = snapshot.serialize();
    bytes = wire.size();
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
  state.counters["routes"] = static_cast<double>(snapshot.routes.size());
  state.counters["prefixes"] = static_cast<double>(snapshot.demand.size());
}
BENCHMARK(BM_SnapshotSerialize)->Unit(benchmark::kMicrosecond);

void BM_SnapshotDeserialize(benchmark::State& state) {
  const auto wire = captured_cycle().serialize();
  for (auto _ : state) {
    auto decoded = audit::CycleSnapshot::deserialize(wire);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_SnapshotDeserialize)->Unit(benchmark::kMicrosecond);

void BM_JournalAppend(benchmark::State& state) {
  const auto wire = captured_cycle().serialize();
  const char* path = "bench_a14_journal.tmp.efj";
  audit::JournalWriter writer(path);
  for (auto _ : state) {
    writer.append(wire);
  }
  writer.flush();
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
  std::remove(path);
}
BENCHMARK(BM_JournalAppend)->Unit(benchmark::kMicrosecond);

void BM_JournalScan(benchmark::State& state) {
  // A journal image with 64 frames; measures framing + CRC verification.
  const auto wire = captured_cycle().serialize();
  net::BufWriter header;
  header.u32(audit::kJournalMagic);
  std::vector<std::uint8_t> image = header.take();
  for (int i = 0; i < 64; ++i) {
    const auto frame = audit::encode_frame(wire);
    image.insert(image.end(), frame.begin(), frame.end());
  }
  for (auto _ : state) {
    audit::JournalReader reader(image);
    std::size_t records = 0;
    while (reader.next()) ++records;
    benchmark::DoNotOptimize(records);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(image.size()));
  state.counters["frames"] = 64;
}
BENCHMARK(BM_JournalScan)->Unit(benchmark::kMillisecond);

void BM_ReplayCycle(benchmark::State& state) {
  const audit::CycleSnapshot& snapshot = captured_cycle();
  for (auto _ : state) {
    auto diff = audit::replay(snapshot);
    benchmark::DoNotOptimize(diff);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["overrides"] =
      static_cast<double>(snapshot.allocated.size());
}
BENCHMARK(BM_ReplayCycle)->Unit(benchmark::kMillisecond);

void BM_WhatIfDrain(benchmark::State& state) {
  const audit::CycleSnapshot& snapshot = captured_cycle();
  audit::Mutation drain;
  drain.kind = audit::Mutation::Kind::kDrain;
  drain.interface = snapshot.interfaces.front().id;
  for (auto _ : state) {
    auto report = audit::what_if(snapshot, {drain});
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WhatIfDrain)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
