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
#include "net/rng.h"
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

/// What a run exercised, so the oracle cannot pass vacuously.
struct Coverage {
  std::size_t controller_routes = 0;
  std::size_t unresolved_routes = 0;  // natural routes with no egress
  std::size_t drained_interfaces = 0;
  std::size_t v6_routes = 0;
  std::size_t route_changes = 0;  // RIB change-log entries between cycles
  std::size_t timed_cycles = 0;   // nonzero allocation wall time

  void observe(const core::Controller::CycleRecord& record) {
    record.rib.for_each(
        [&](const net::Prefix& prefix, std::span<const bgp::Route> routes) {
          for (const bgp::Route& route : routes) {
            if (route.peer_type == bgp::PeerType::kController) {
              ++controller_routes;
              continue;
            }
            if (prefix.family() == net::Family::kV6) ++v6_routes;
            if (!record.resolve(route)) ++unresolved_routes;
          }
        });
    record.interfaces.for_each(
        [&](telemetry::InterfaceId, const telemetry::InterfaceState& state) {
          if (state.drained) ++drained_interfaces;
        });
    if (record.stats.allocation_wall.count() > 0) ++timed_cycles;
  }
};

/// A PoP assembled by hand, so each record corner appears on purpose:
/// peers on IPv4 and IPv6 next hops, two peers behind one NEXT_HOP, a
/// route server whose NEXT_HOP no interface owns, a controller session
/// whose NEXT_HOP is resolvable but carried by no natural route, and
/// per-cycle route, demand, drain and decision churn.
class SyntheticPop {
 public:
  explicit SyntheticPop(std::uint64_t seed)
      : rng_(seed), rib_(decision_config(seed)) {
    allocator_.overload_threshold = rng_.uniform(0.8, 0.99);
    allocator_.order = static_cast<core::DetourOrder>(seed % 2);
    allocator_.max_overrides = static_cast<std::size_t>(seed * 7);
    allocator_.allow_prefix_splitting = seed % 3 == 0;
    for (std::uint32_t id = 1; id <= 4; ++id) {
      interfaces_.add(telemetry::InterfaceId(id),
                      net::Bandwidth::gbps(10.0 * id));
    }
    const auto v4 = [](std::uint32_t host) {
      return net::IpAddr::v4(0x0A000000u | host);
    };
    std::array<std::uint8_t, 16> v6_bytes{0x20, 0x01, 0x0d, 0xb8};
    v6_bytes[15] = 4;
    const net::IpAddr v6_next_hop = net::IpAddr::v6(v6_bytes);
    using bgp::PeerType;
    peers_ = {
        {1, PeerType::kPrivatePeer, v4(1), 1},
        {2, PeerType::kPublicPeer, v4(2), 2},
        {3, PeerType::kTransit, v4(3), 3},
        {4, PeerType::kPublicPeer, v6_next_hop, 2},
        {5, PeerType::kRouteServer, v4(5), 0},  // unresolvable
        {6, PeerType::kTransit, v4(3), 3},      // shares peer 3's NEXT_HOP
        {7, PeerType::kController, v4(7), 1},
    };
    for (const Peer& peer : peers_) {
      if (peer.iface == 0) continue;
      egress_[peer.next_hop] = {telemetry::InterfaceId(peer.iface),
                                peer.type, peer.next_hop};
    }
    for (std::uint32_t i = 0; i < 240; ++i) {
      if (i % 3 == 2) {
        std::array<std::uint8_t, 16> bytes{0x20, 0x01, 0x0d, 0xb8};
        bytes[4] = static_cast<std::uint8_t>(i >> 8);
        bytes[5] = static_cast<std::uint8_t>(i);
        universe_.emplace_back(net::IpAddr::v6(bytes), 48);
      } else {
        universe_.emplace_back(net::IpAddr::v4(0x64400000u | (i << 8)), 24);
      }
    }
    for (const net::Prefix& prefix : universe_) {
      for (const Peer& peer : peers_) {
        const double p = peer.type == PeerType::kController ? 0.15 : 0.6;
        if (rng_.bernoulli(p)) announce(peer, prefix);
      }
    }
  }

  // resolver_ captures this.
  SyntheticPop(const SyntheticPop&) = delete;
  SyntheticPop& operator=(const SyntheticPop&) = delete;

  /// One cycle's worth of mutations, then fresh decision outputs.
  void advance() {
    ++cycle_;
    for (int i = 0; i < 24; ++i) {
      const net::Prefix& prefix = pick(universe_);
      const Peer& peer = pick(peers_);
      if (rng_.bernoulli(0.4)) {
        rib_.withdraw(bgp::PeerId(peer.id), prefix);
      } else {
        announce(peer, prefix);
      }
    }
    if (rng_.bernoulli(0.2)) rib_.remove_peer(bgp::PeerId(pick(peers_).id));

    const telemetry::InterfaceId iface(
        static_cast<std::uint32_t>(rng_.uniform_int(1, 4)));
    interfaces_.set_drained(iface, !interfaces_.drained(iface));

    for (const net::Prefix& prefix : universe_) {
      if (rng_.bernoulli(0.3)) {
        demand_.set(prefix, net::Bandwidth::mbps(rng_.uniform(0.1, 900.0)));
      }
    }

    stats_ = core::CycleStats{};
    stats_.when = net::SimTime::seconds(60 * cycle_);
    core::AllocationResult& allocation = stats_.allocation;
    std::map<net::Prefix, core::Override> fresh;
    for (int i = 0; i < 6; ++i) {
      const core::Override o = random_override();
      allocation.overrides.push_back(o);
      if (rng_.bernoulli(0.7)) fresh[o.prefix] = o;
    }
    applied_ = std::move(fresh);
    for (std::uint32_t id = 1; id <= 4; ++id) {
      allocation.projected_load[telemetry::InterfaceId(id)] =
          net::Bandwidth::gbps(rng_.uniform(0, 40));
      allocation.final_load[telemetry::InterfaceId(id)] =
          net::Bandwidth::gbps(rng_.uniform(0, 40));
    }
    allocation.overloaded_interfaces = rng_.uniform_int(0, 3);
    allocation.unresolved_overload = net::Bandwidth::mbps(rng_.uniform(0, 5));
    allocation.unroutable = net::Bandwidth::mbps(rng_.uniform(0, 5));
    stats_.safety.dropped_invalid_route = rng_.uniform_int(0, 3);
    stats_.safety.dropped_by_budget = rng_.uniform_int(0, 3);
    stats_.added = rng_.uniform_int(0, 9);
    stats_.removed = rng_.uniform_int(0, 9);
    stats_.retained_by_hysteresis = rng_.uniform_int(0, 9);
    stats_.perf_overrides = rng_.uniform_int(0, 9);
    stats_.incremental_cycle = rng_.bernoulli(0.5);
    stats_.dirty_prefixes = rng_.uniform_int(0, 500);
    stats_.escalations = rng_.uniform_int(0, 4);
    stats_.full_fallbacks = stats_.incremental_cycle ? 0 : 1;
    stats_.allocation_wall =
        std::chrono::nanoseconds(rng_.uniform_int(1, 50'000'000));
  }

  core::Controller::CycleRecord record() const {
    return {demand_,   rib_,       interfaces_, resolver_,
            allocator_, applied_, stats_};
  }

  std::uint64_t change_seq() const { return rib_.change_seq(); }

 private:
  struct Peer {
    std::uint32_t id;
    bgp::PeerType type;
    net::IpAddr next_hop;
    std::uint32_t iface;  // 0: no interface owns the NEXT_HOP
  };

  static bgp::DecisionConfig decision_config(std::uint64_t seed) {
    bgp::DecisionConfig config;
    config.compare_med_across_as = seed % 2 == 1;
    config.prefer_oldest = seed % 4 < 2;
    return config;
  }

  template <class T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
  }

  bgp::AsPath random_path(std::uint32_t first) {
    std::vector<bgp::AsNumber> ases{bgp::AsNumber(64500 + first)};
    const auto extra = rng_.uniform_int(0, 4);
    for (std::int64_t i = 0; i < extra; ++i) {
      ases.emplace_back(
          static_cast<std::uint32_t>(rng_.uniform_int(1, 400000)));
    }
    return bgp::AsPath(std::move(ases));
  }

  void announce(const Peer& peer, const net::Prefix& prefix) {
    bgp::Route route;
    route.prefix = prefix;
    route.attrs.origin =
        static_cast<bgp::Origin>(rng_.uniform_int(0, 2));
    route.attrs.as_path = random_path(peer.id);
    route.attrs.next_hop = peer.next_hop;
    route.attrs.has_med = rng_.bernoulli(0.5);
    route.attrs.med =
        bgp::Med(static_cast<std::uint32_t>(rng_.uniform_int(0, 100)));
    route.attrs.has_local_pref = rng_.bernoulli(0.5);
    route.attrs.local_pref =
        bgp::LocalPref(static_cast<std::uint32_t>(rng_.uniform_int(50, 300)));
    const auto communities = rng_.uniform_int(0, 3);
    for (std::int64_t i = 0; i < communities; ++i) {
      route.attrs.communities.emplace_back(
          static_cast<std::uint32_t>(rng_.next_u64()));
    }
    route.learned_from = bgp::PeerId(peer.id);
    route.peer_type = peer.type;
    route.neighbor_as = bgp::AsNumber(64500 + peer.id);
    route.neighbor_router_id = bgp::RouterId(0xC0000200u + peer.id);
    route.learned_at =
        net::SimTime::millis(60'000 * cycle_ + rng_.uniform_int(0, 59'999));
    rib_.announce(route);
  }

  core::Override random_override() {
    core::Override o;
    o.prefix = pick(universe_);
    o.rate = net::Bandwidth::mbps(rng_.uniform(1, 500));
    const Peer& target = pick(peers_);
    o.next_hop = target.next_hop;
    o.as_path = random_path(target.id);
    o.from_interface = telemetry::InterfaceId(
        static_cast<std::uint32_t>(rng_.uniform_int(1, 4)));
    o.target_interface = telemetry::InterfaceId(target.iface);
    o.target_type = target.type;
    return o;
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
  std::vector<Peer> peers_;
  std::vector<net::Prefix> universe_;
  std::map<net::Prefix, core::Override> applied_;
  core::CycleStats stats_;
  std::int64_t cycle_ = 0;
};

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
