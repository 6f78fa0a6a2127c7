// A hand-built PoP for audit tests: a RIB, demand matrix and interface
// registry that each cycle mutates at random, so every corner of a cycle
// record appears on purpose (see SyntheticPop), plus the per-run
// Coverage tally that keeps an oracle from passing vacuously.
#pragma once

#include <array>
#include <map>
#include <vector>

#include "core/controller.h"
#include "net/rng.h"

namespace ef::audit {

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
    mutate();
    decide();
  }

  /// The input churn of one cycle: routes (announce, withdraw, sometimes
  /// a whole peer), one drain flip and ~30% of the demand rates. Alone,
  /// it is a cycle the ladder held: inputs moved, nothing was recorded.
  void mutate() {
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
    if (rng_.bernoulli(0.2)) {
      rib_.remove_peer(bgp::PeerId(pick(peers_).id));
      ++peer_removals_;
    }

    const telemetry::InterfaceId iface(
        static_cast<std::uint32_t>(rng_.uniform_int(1, 4)));
    interfaces_.set_drained(iface, !interfaces_.drained(iface));

    for (const net::Prefix& prefix : universe_) {
      if (rng_.bernoulli(0.3)) {
        demand_.set(prefix, net::Bandwidth::mbps(rng_.uniform(0.1, 900.0)));
      }
    }
  }

  /// Fresh decision outputs for the current inputs.
  void decide() {
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
  std::size_t peer_removals() const { return peer_removals_; }

  /// Moves the demand into a new matrix (a new instance_id()), as a
  /// daemon that rebuilt its demand table would.
  void switch_demand() {
    telemetry::DemandMatrix copy(demand_);
    demand_ = std::move(copy);
  }

  /// Invalidates the demand change log: outstanding cursors read kTooOld.
  void invalidate_demand_log() { demand_.scale(0.5); }

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
  std::size_t peer_removals_ = 0;
};

}  // namespace ef::audit
