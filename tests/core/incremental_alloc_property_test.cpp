// Incremental-vs-full equivalence for the delta allocation engine.
//
// allocate_incremental() carries a ledger of per-prefix classification
// and per-interface load totals between cycles and reprocesses only the
// prefixes the Rib/DemandMatrix change logs report dirty. Its contract
// is bitwise identity: every cycle, under any churn, the result must
// equal what a from-scratch allocate() on the same inputs produces —
// overrides (content AND order), float-accumulated load maps, and the
// summary counters. That holds because demand rates are integral bps
// (exact subtract/add), placement reruns fresh over the carried cohorts
// through the same score_sort_place code, and every condition the change
// logs cannot account for falls back to a full recompute.
//
// Four seeded scenarios, each asserting whole-result equality every
// cycle against an independently-warmed full allocation:
//  - route churn: announce/withdraw/remove_peer storms, drain flips;
//  - demand drift: rate walks, membership changes, wholesale resets
//    (which trim the change log and must force a fallback);
//  - overload crossing: one elephant prefix oscillates an interface
//    across the overload threshold, exercising escalation handling;
//  - failsafe transition: external invalidate() calls (what the efd
//    ladder issues on mode changes) force full rebuilds mid-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "core/allocator.h"
#include "net/rng.h"

namespace ef::core {
namespace {

using net::Bandwidth;

struct Env {
  telemetry::InterfaceRegistry interfaces;
  std::map<net::IpAddr, EgressView> egress;
  std::vector<net::IpAddr> peers;
  std::vector<net::Prefix> prefixes;
  bgp::Rib rib;
  telemetry::DemandMatrix demand;
  int interface_count = 0;

  EgressResolver resolver() {
    return [this](const bgp::Route& route) -> std::optional<EgressView> {
      auto it = egress.find(route.attrs.next_hop);
      if (it == egress.end()) return std::nullopt;
      return it->second;
    };
  }

  bgp::Route random_route(net::Rng& rng, const net::Prefix& prefix) const {
    const std::size_t peer_index = static_cast<std::size_t>(
        rng.uniform_int(0, interface_count - 1));
    const int session = static_cast<int>(rng.uniform_int(0, 3));
    bgp::Route route;
    route.prefix = prefix;
    route.learned_from = bgp::PeerId(static_cast<std::uint32_t>(
        peer_index * 1000 + static_cast<std::size_t>(session)));
    const EgressView& view = egress.at(peers[peer_index]);
    route.peer_type = view.type;
    route.neighbor_as =
        bgp::AsNumber(60000 + static_cast<std::uint32_t>(peer_index));
    route.neighbor_router_id =
        bgp::RouterId(static_cast<std::uint32_t>(peer_index));
    route.attrs.next_hop = peers[peer_index];
    route.attrs.local_pref = bgp::LocalPref(
        static_cast<std::uint32_t>(rng.uniform_int(100, 400)));
    route.attrs.has_local_pref = true;
    route.attrs.as_path = bgp::AsPath{route.neighbor_as};
    return route;
  }
};

Env make_env(net::Rng& rng, int min_prefixes, int max_prefixes) {
  Env env;
  env.interface_count = static_cast<int>(rng.uniform_int(6, 20));
  for (int i = 0; i < env.interface_count; ++i) {
    const double gbps = (i % 3 == 0) ? rng.uniform(0.5, 2.0)
                                     : rng.uniform(5.0, 20.0);
    env.interfaces.add(
        telemetry::InterfaceId(static_cast<std::uint32_t>(i)),
        Bandwidth::gbps(gbps));
    const net::IpAddr addr =
        net::IpAddr::v4(0xac100000u + static_cast<std::uint32_t>(i));
    env.egress[addr] = EgressView{
        telemetry::InterfaceId(static_cast<std::uint32_t>(i)),
        static_cast<bgp::PeerType>(rng.uniform_int(0, 3)), addr};
    env.peers.push_back(addr);
  }
  const int prefix_count =
      static_cast<int>(rng.uniform_int(min_prefixes, max_prefixes));
  for (int p = 0; p < prefix_count; ++p) {
    env.prefixes.push_back(net::Prefix(
        net::IpAddr::v4(0x64000000u + (static_cast<std::uint32_t>(p) << 8)),
        24));
  }
  for (const net::Prefix& prefix : env.prefixes) {
    const int routes = static_cast<int>(rng.uniform_int(1, 4));
    for (int r = 0; r < routes; ++r) {
      env.rib.announce(env.random_route(rng, prefix));
    }
    env.demand.set(prefix, Bandwidth::gbps(rng.uniform(0.05, 3.0)));
  }
  return env;
}

/// One cycle both ways; hard-asserts bitwise equality. `ceiling` is the
/// per-cycle dirty-fraction fallback knob under test.
void assert_cycle_identical(Allocator& allocator, Env& env,
                            const EgressResolver& resolver,
                            Allocator::Workspace& full_ws,
                            Allocator::Workspace& inc_ws,
                            Allocator::Ledger& ledger, double ceiling,
                            Allocator::IncrementalOutcome& outcome,
                            int cycle, const char* scenario) {
  const AllocationResult full = allocator.allocate(
      env.rib, env.demand, env.interfaces, resolver, full_ws);
  const AllocationResult inc = allocator.allocate_incremental(
      env.rib, env.demand, env.interfaces, resolver, inc_ws, ledger,
      ceiling, &outcome);
  ASSERT_EQ(full.overrides.size(), inc.overrides.size())
      << scenario << " cycle " << cycle
      << (outcome.incremental ? " (incremental)" : " (fallback)");
  for (std::size_t i = 0; i < full.overrides.size(); ++i) {
    ASSERT_EQ(full.overrides[i], inc.overrides[i])
        << scenario << " cycle " << cycle << " override " << i << " ("
        << full.overrides[i].prefix.to_string() << " vs "
        << inc.overrides[i].prefix.to_string() << ")";
  }
  ASSERT_TRUE(full == inc)
      << scenario << " cycle " << cycle
      << ": loads or summary counters drifted"
      << (outcome.incremental ? " on the incremental path" : " on fallback");
}

class IncrementalAllocProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalAllocProperty, RouteChurnIsBitwiseIdenticalToFull) {
  net::Rng rng(GetParam());
  Env env = make_env(rng, 40, 120);
  AllocatorConfig config;
  config.allow_prefix_splitting = rng.bernoulli(0.5);
  Allocator allocator(config);
  const EgressResolver resolver = env.resolver();

  Allocator::Workspace full_ws, inc_ws;
  Allocator::Ledger ledger;
  Allocator::IncrementalOutcome outcome;
  std::size_t incremental_cycles = 0;

  for (int cycle = 0; cycle < 14; ++cycle) {
    const int churn = static_cast<int>(rng.uniform_int(0, 6));
    for (int c = 0; c < churn; ++c) {
      const net::Prefix& prefix = env.prefixes[static_cast<std::size_t>(
          rng.uniform_int(0,
                          static_cast<std::int64_t>(env.prefixes.size()) - 1))];
      if (rng.bernoulli(0.7)) {
        env.rib.announce(env.random_route(rng, prefix));
      } else {
        const auto routes = env.rib.candidates(prefix);
        if (!routes.empty()) {
          env.rib.withdraw(
              routes[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<std::int64_t>(routes.size()) - 1))]
                  .learned_from,
              prefix);
        }
      }
    }
    // Session loss dirties every prefix the peer carried at once.
    if (rng.bernoulli(0.1)) {
      env.rib.remove_peer(bgp::PeerId(
          static_cast<std::uint32_t>(
              rng.uniform_int(0, env.interface_count - 1)) *
              1000 +
          static_cast<std::uint32_t>(rng.uniform_int(0, 3))));
    }
    // Drains change usable capacity without touching any change log: the
    // incremental path must pick them up via its fresh detection pass.
    if (rng.bernoulli(0.25)) {
      const telemetry::InterfaceId iface(static_cast<std::uint32_t>(
          rng.uniform_int(0, env.interface_count - 1)));
      env.interfaces.set_drained(iface, !env.interfaces.drained(iface));
    }

    // Every fifth cycle force the ceiling fallback; otherwise leave
    // generous headroom so the delta path genuinely runs.
    const double ceiling = (cycle % 5 == 4) ? 0.0 : 1.0;
    assert_cycle_identical(allocator, env, resolver, full_ws, inc_ws,
                           ledger, ceiling, outcome, cycle, "route-churn");
    if (cycle % 5 == 4 && cycle > 0) {
      // Ceiling 0 forces a full recompute whenever anything is dirty;
      // a cycle where the churn rolls happened to touch nothing may
      // legitimately stay on the (empty) delta path.
      EXPECT_TRUE(outcome.full_fallback || outcome.dirty_prefixes == 0)
          << "cycle " << cycle << ": ceiling 0 must force a full recompute";
    }
    if (outcome.incremental) ++incremental_cycles;

    // A quiescent repeat must take the delta path with an empty dirty
    // set and still match the full recompute exactly.
    if (cycle % 4 == 3) {
      assert_cycle_identical(allocator, env, resolver, full_ws, inc_ws,
                             ledger, 1.0, outcome, cycle, "route-churn-idle");
      EXPECT_TRUE(outcome.incremental);
      EXPECT_EQ(outcome.dirty_prefixes, 0u);
    }
  }
  // The suite is vacuous if every cycle fell back.
  EXPECT_GT(incremental_cycles, 4u);
}

TEST_P(IncrementalAllocProperty, DemandDriftIsBitwiseIdenticalToFull) {
  net::Rng rng(GetParam() + 1000);
  Env env = make_env(rng, 40, 120);
  Allocator allocator{AllocatorConfig{}};
  const EgressResolver resolver = env.resolver();

  Allocator::Workspace full_ws, inc_ws;
  Allocator::Ledger ledger;
  Allocator::IncrementalOutcome outcome;
  std::size_t incremental_cycles = 0;

  for (int cycle = 0; cycle < 14; ++cycle) {
    if (rng.bernoulli(0.75)) {
      // Rate drift on a random subset (fractional gbps exercise the
      // integral-bps quantization both paths must agree on), plus a few
      // add() deltas and membership inserts/zeroings.
      for (const net::Prefix& prefix : env.prefixes) {
        if (env.demand.find(prefix) != nullptr && rng.bernoulli(0.3)) {
          env.demand.set(prefix, Bandwidth::gbps(rng.uniform(0.0, 3.0)));
        }
      }
      const net::Prefix& bump = env.prefixes[static_cast<std::size_t>(
          rng.uniform_int(0,
                          static_cast<std::int64_t>(env.prefixes.size()) - 1))];
      env.demand.add(bump, Bandwidth::mbps(rng.uniform(-50.0, 50.0)));
    } else {
      // Wholesale reset: clear() trims the change log, so the very next
      // incremental cycle must detect kTooOld and fall back.
      env.demand.clear();
      for (const net::Prefix& prefix : env.prefixes) {
        if (rng.bernoulli(0.8)) {
          env.demand.set(prefix, Bandwidth::gbps(rng.uniform(0.0, 3.0)));
        }
      }
    }

    assert_cycle_identical(allocator, env, resolver, full_ws, inc_ws,
                           ledger, 1.0, outcome, cycle, "demand-drift");
    if (outcome.incremental) ++incremental_cycles;
  }
  EXPECT_GT(incremental_cycles, 2u);
}

TEST_P(IncrementalAllocProperty, OverloadCrossingsEscalateAndMatchFull) {
  net::Rng rng(GetParam() + 2000);
  Env env = make_env(rng, 30, 60);
  Allocator allocator{AllocatorConfig{}};
  const EgressResolver resolver = env.resolver();

  // An elephant prefix alternating with a near-idle trough: on peak
  // cycles its BGP-preferred interface carries 25 Gbps (above any
  // port), on trough cycles every interface carries crumbs — so the
  // elephant's interface provably crosses the overload threshold in
  // both directions, pulling cohorts into and out of re-placement.
  const net::Prefix elephant = env.prefixes.front();

  Allocator::Workspace full_ws, inc_ws;
  Allocator::Ledger ledger;
  Allocator::IncrementalOutcome outcome;
  std::size_t total_escalations = 0;
  std::size_t incremental_cycles = 0;
  double max_dirty_fraction = 0.0;

  for (int cycle = 0; cycle < 16; ++cycle) {
    if (cycle % 2 == 0) {
      env.demand.set(elephant, Bandwidth::gbps(25.0));  // above any port
      // Random background so the dirty set is not just the elephant.
      for (const net::Prefix& prefix : env.prefixes) {
        if (prefix != elephant && rng.bernoulli(0.5)) {
          env.demand.set(prefix, Bandwidth::gbps(rng.uniform(0.0, 2.0)));
        }
      }
    } else {
      // Trough: at most ~60 x 1 Mbps per interface, far below every
      // limit — every previously-overloaded interface must cross back.
      for (const net::Prefix& prefix : env.prefixes) {
        env.demand.set(prefix, Bandwidth::mbps(1.0));
      }
    }

    assert_cycle_identical(allocator, env, resolver, full_ws, inc_ws,
                           ledger, 1.0, outcome, cycle, "overload-crossing");
    if (outcome.incremental) {
      ++incremental_cycles;
      total_escalations += outcome.escalations;
      max_dirty_fraction = std::max(
          max_dirty_fraction,
          static_cast<double>(outcome.dirty_prefixes) /
              static_cast<double>(env.demand.prefix_count()));
    }
  }
  EXPECT_GT(incremental_cycles, 8u);
  // Ceiling 1.0 keeps the delta path running well past the production
  // 0.25 ceiling (the trough rewrites every prefix), so dirty sets that
  // large are covered here rather than by the controller tests.
  EXPECT_GT(max_dirty_fraction, 0.25);
  // The elephant flips its interface's overload class nearly every
  // cycle; an escalation count of zero would mean the detection pass
  // never saw the crossings.
  EXPECT_GT(total_escalations, 0u);
}

TEST_P(IncrementalAllocProperty, FailsafeInvalidationForcesFullAndMatches) {
  net::Rng rng(GetParam() + 3000);
  Env env = make_env(rng, 40, 100);
  Allocator allocator{AllocatorConfig{}};
  const EgressResolver resolver = env.resolver();

  Allocator::Workspace full_ws, inc_ws;
  Allocator::Ledger ledger;
  Allocator::IncrementalOutcome outcome;
  std::size_t incremental_cycles = 0;

  for (int cycle = 0; cycle < 14; ++cycle) {
    for (const net::Prefix& prefix : env.prefixes) {
      if (rng.bernoulli(0.2)) {
        env.demand.set(prefix, Bandwidth::gbps(rng.uniform(0.0, 3.0)));
      }
    }
    if (rng.bernoulli(0.4)) {
      env.rib.announce(env.random_route(
          rng, env.prefixes[static_cast<std::size_t>(rng.uniform_int(
                   0, static_cast<std::int64_t>(env.prefixes.size()) - 1))]));
    }

    // What the efd ladder does on a mode transition: events the change
    // logs cannot see drop the ledger outright.
    const bool invalidated = cycle % 4 == 2;
    if (invalidated) ledger.invalidate();

    assert_cycle_identical(allocator, env, resolver, full_ws, inc_ws,
                           ledger, 1.0, outcome, cycle, "failsafe");
    if (invalidated) {
      EXPECT_TRUE(outcome.full_fallback)
          << "cycle " << cycle << ": invalidate() must force a full pass";
    }
    if (outcome.incremental) ++incremental_cycles;
  }
  EXPECT_GT(incremental_cycles, 4u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalAllocProperty,
                         ::testing::Range<std::uint64_t>(1, 10));

}  // namespace
}  // namespace ef::core
