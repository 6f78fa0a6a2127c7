// serialize_cycle() oracle: the live-state encoder must write exactly the
// bytes of the deep-copy capture it replaced. The reference below is that
// capture, kept verbatim: it copies every natural route into a
// CycleSnapshot and resolves the egress map route by route. Every cycle of
// every run is checked byte for byte, over synthetic PoPs built to hit
// each corner of the record (controller routes, an unresolvable NEXT_HOP,
// drained interfaces, IPv6, route churn) and over real simulations.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "audit/snapshot.h"
#include "synthetic_pop.h"
#include "sim/simulation.h"
#include "topology/pop.h"
#include "topology/world.h"

namespace ef::audit {
namespace {

CycleSnapshot deep_copy_capture(const core::Controller::CycleRecord& record,
                                bool include_timing) {
  CycleSnapshot s;
  s.when = record.stats.when;
  s.allocator = record.allocator_config;
  s.decision = record.rib.decision_config();

  record.interfaces.for_each(
      [&](telemetry::InterfaceId id, const telemetry::InterfaceState& state) {
        s.interfaces.push_back({id, state.capacity, state.drained});
      });
  std::sort(s.interfaces.begin(), s.interfaces.end(),
            [](const InterfaceRecord& a, const InterfaceRecord& b) {
              return a.id < b.id;
            });

  record.demand.for_each([&](const net::Prefix& prefix, net::Bandwidth rate) {
    s.demand.push_back({prefix, rate});
  });
  std::sort(s.demand.begin(), s.demand.end(),
            [](const DemandRecord& a, const DemandRecord& b) {
              return a.prefix < b.prefix;
            });

  std::vector<net::Prefix> prefixes;
  record.rib.for_each(
      [&](const net::Prefix& prefix, std::span<const bgp::Route>) {
        prefixes.push_back(prefix);
      });
  std::sort(prefixes.begin(), prefixes.end());
  std::map<net::IpAddr, EgressRecord> egress_map;
  for (const net::Prefix& prefix : prefixes) {
    for (const bgp::Route& route : record.rib.candidates(prefix)) {
      if (route.peer_type == bgp::PeerType::kController) continue;
      s.routes.push_back(route);
      if (!egress_map.contains(route.attrs.next_hop)) {
        if (const auto egress = record.resolve(route)) {
          egress_map[route.attrs.next_hop] =
              {route.attrs.next_hop, egress->interface, egress->type};
        }
      }
    }
  }
  s.egress.reserve(egress_map.size());
  for (const auto& [address, e] : egress_map) s.egress.push_back(e);

  const core::AllocationResult& allocation = record.stats.allocation;
  s.allocated = allocation.overrides;
  s.projected_load = allocation.projected_load;
  s.final_load = allocation.final_load;
  s.overloaded_interfaces = allocation.overloaded_interfaces;
  s.unresolved_overload = allocation.unresolved_overload;
  s.unroutable = allocation.unroutable;
  s.applied.reserve(record.applied.size());
  for (const auto& [prefix, override_entry] : record.applied) {
    s.applied.push_back(override_entry);
  }
  s.safety = record.stats.safety;
  s.added = record.stats.added;
  s.removed = record.stats.removed;
  s.retained_by_hysteresis = record.stats.retained_by_hysteresis;
  s.perf_overrides = record.stats.perf_overrides;
  s.dirty_prefixes = record.stats.dirty_prefixes;
  s.escalations = record.stats.escalations;
  s.full_fallbacks = record.stats.full_fallbacks;
  s.incremental_cycle = record.stats.incremental_cycle;
  if (include_timing) {
    s.allocation_wall_ns =
        static_cast<std::uint64_t>(record.stats.allocation_wall.count());
  }
  return s;
}

void expect_same_fields(const CycleSnapshot& got, const CycleSnapshot& want) {
  EXPECT_EQ(got.version, want.version);
  EXPECT_EQ(got.when, want.when);
  EXPECT_EQ(got.allocator, want.allocator);
  EXPECT_EQ(got.decision, want.decision);
  EXPECT_EQ(got.interfaces, want.interfaces);
  EXPECT_EQ(got.egress, want.egress);
  EXPECT_EQ(got.demand, want.demand);
  EXPECT_EQ(got.routes, want.routes);
  EXPECT_EQ(got.allocated, want.allocated);
  EXPECT_EQ(got.projected_load, want.projected_load);
  EXPECT_EQ(got.final_load, want.final_load);
  EXPECT_EQ(got.overloaded_interfaces, want.overloaded_interfaces);
  EXPECT_EQ(got.unresolved_overload, want.unresolved_overload);
  EXPECT_EQ(got.unroutable, want.unroutable);
  EXPECT_EQ(got.applied, want.applied);
  EXPECT_EQ(got.safety.dropped_invalid_route,
            want.safety.dropped_invalid_route);
  EXPECT_EQ(got.safety.dropped_by_budget, want.safety.dropped_by_budget);
  EXPECT_EQ(got.added, want.added);
  EXPECT_EQ(got.removed, want.removed);
  EXPECT_EQ(got.retained_by_hysteresis, want.retained_by_hysteresis);
  EXPECT_EQ(got.perf_overrides, want.perf_overrides);
  EXPECT_EQ(got.dirty_prefixes, want.dirty_prefixes);
  EXPECT_EQ(got.escalations, want.escalations);
  EXPECT_EQ(got.full_fallbacks, want.full_fallbacks);
  EXPECT_EQ(got.incremental_cycle, want.incremental_cycle);
  EXPECT_EQ(got.allocation_wall_ns, want.allocation_wall_ns);
}

// Checks one cycle both ways (timing on and off); false stops the run at
// the first mismatch so a failure prints one cycle, not hundreds.
bool check_cycle(const core::Controller::CycleRecord& record) {
  for (const bool timing : {false, true}) {
    const CycleSnapshot reference = deep_copy_capture(record, timing);
    const std::vector<std::uint8_t> bytes = serialize_cycle(record, timing);
    EXPECT_EQ(bytes, reference.serialize()) << "include_timing " << timing;
    const auto decoded = CycleSnapshot::deserialize(bytes);
    EXPECT_TRUE(decoded.has_value());
    if (!decoded) return false;
    const CycleSnapshot captured = capture_cycle(record, timing);
    expect_same_fields(captured, *decoded);
    expect_same_fields(captured, reference);
    if (testing::Test::HasFailure()) return false;
  }
  return true;
}

TEST(SerializeCycle, MatchesDeepCopyCapture) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SyntheticPop pop(seed);
    std::uint64_t seq = pop.change_seq();
    for (int cycle = 0; cycle < 12; ++cycle) {
      pop.advance();
      coverage.route_changes += pop.change_seq() - seq;
      seq = pop.change_seq();
      const core::Controller::CycleRecord record = pop.record();
      coverage.observe(record);
      ASSERT_TRUE(check_cycle(record)) << "seed " << seed << " cycle "
                                       << cycle;
    }
  }
  EXPECT_GT(coverage.controller_routes, 0u);
  EXPECT_GT(coverage.unresolved_routes, 0u);
  EXPECT_GT(coverage.drained_interfaces, 0u);
  EXPECT_GT(coverage.v6_routes, 0u);
  EXPECT_GT(coverage.route_changes, 0u);
  EXPECT_GT(coverage.timed_cycles, 0u);
}

TEST(SerializeCycle, MatchesDeepCopyCaptureInSimulation) {
  // Real controller cycles: peer flaps churn the RIB, the controller's
  // own injections come back through the collector, the world's clients
  // carry IPv6 prefixes, and an interface is drained mid-run.
  for (std::uint64_t seed : {7u, 42u}) {
    topology::WorldConfig world_config;
    world_config.seed = seed;
    world_config.num_clients = 24;
    world_config.num_pops = 2;
    const topology::World world = topology::World::generate(world_config);
    topology::Pop pop(world, 0);

    sim::SimulationConfig config;
    config.duration = net::SimTime::hours(3);
    config.step = net::SimTime::seconds(60);
    config.controller.cycle_period = net::SimTime::seconds(60);
    config.controller.incremental = seed % 2 == 0;
    config.use_sflow_estimate = seed % 2 == 1;
    config.peer_flap_rate_per_hour = 4.0;

    Coverage coverage;
    std::size_t cycles = 0;
    bool ok = true;
    sim::Simulation simulation(pop, config);
    simulation.set_cycle_observer(
        [&](const core::Controller::CycleRecord& record) {
          if (!ok) return;
          coverage.observe(record);
          ok = check_cycle(record);
          ++cycles;
        });
    telemetry::InterfaceId drained;
    pop.interfaces().for_each(
        [&](telemetry::InterfaceId id, const telemetry::InterfaceState&) {
          drained = id;
        });
    std::size_t steps = 0;
    simulation.run([&](const sim::StepRecord&) {
      ++steps;
      if (steps == 60) pop.interfaces().set_drained(drained, true);
      if (steps == 120) pop.interfaces().set_drained(drained, false);
    });
    ASSERT_TRUE(ok) << "world seed " << seed << " cycle " << cycles;
    EXPECT_GE(cycles, 170u);
    EXPECT_GT(coverage.controller_routes, 0u);
    EXPECT_GT(coverage.drained_interfaces, 0u);
    EXPECT_GT(coverage.v6_routes, 0u);
    EXPECT_GT(coverage.timed_cycles, 0u);
  }
}

}  // namespace
}  // namespace ef::audit
