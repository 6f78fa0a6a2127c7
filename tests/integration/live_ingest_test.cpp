// Loopback live-ingest test: a Simulation publishes its BMP and sFlow
// telemetry over real sockets into an efd daemon running in shadow mode,
// and every controller cycle the daemon computes must be bitwise
// identical to the one the in-process controller made from the same
// inputs. Also exercises mid-run feed disconnect/reconnect.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "core/controller.h"
#include "io/socket.h"
#include "service/efd.h"
#include "sim/live_feed.h"
#include "sim/simulation.h"
#include "topology/pop.h"
#include "topology/world.h"

namespace ef {
namespace {

using namespace std::chrono_literals;

constexpr auto kBarrier = 15000ms;

topology::World test_world() {
  topology::WorldConfig config;
  config.num_clients = 40;
  config.num_pops = 2;
  config.seed = 11;
  return topology::World::generate(config);
}

sim::SimulationConfig sim_config(bool sampled) {
  sim::SimulationConfig config;
  config.duration = net::SimTime::minutes(8);
  config.step = net::SimTime::seconds(60);
  config.controller.cycle_period = config.step;
  // Aggressive thresholds so most cycles actually steer traffic — a
  // bitwise comparison of empty override sets would prove nothing.
  config.controller.allocator.overload_threshold = 0.5;
  config.controller.allocator.target_utilization = 0.45;
  config.use_sflow_estimate = sampled;
  config.sflow_sample_rate = 10;
  config.sflow_smoothing_alpha = 0.4;
  // Peering flaps churn the route set mid-run, so the socket feed also
  // mirrors withdrawals and reconvergence, not just the initial table.
  config.peer_flap_rate_per_hour = sampled ? 0.0 : 30.0;
  return config;
}

service::EfdConfig daemon_config(const sim::SimulationConfig& sim) {
  service::EfdConfig config;
  config.controller = sim.controller;
  config.controller.enforcement = core::Enforcement::kShadow;
  config.sflow_sample_rate = sim.sflow_sample_rate;
  config.sflow_smoothing_alpha = sim.sflow_smoothing_alpha;
  return config;
}

sim::LiveFeed::Sync sync_for(const service::EfdService& daemon) {
  sim::LiveFeed::Sync sync;
  sync.bmp_bytes = [&daemon](std::uint64_t n) {
    return daemon.wait_for_bmp_bytes(n, kBarrier);
  };
  sync.datagrams = [&daemon](std::uint64_t n) {
    return daemon.wait_for_datagrams(n, kBarrier);
  };
  sync.windows = [&daemon](std::uint64_t n) {
    return daemon.wait_for_windows(n, kBarrier);
  };
  sync.disconnects = [&daemon](std::uint64_t n) {
    return daemon.wait_for_disconnects(n, kBarrier);
  };
  return sync;
}

struct SimCycle {
  net::SimTime when;
  std::vector<core::Override> overrides;
};

SimCycle snapshot_sim_cycle(sim::Simulation& sim) {
  SimCycle cycle;
  cycle.when = sim.now();
  cycle.overrides.reserve(sim.controller()->active_overrides().size());
  for (const auto& [prefix, override_entry] :
       sim.controller()->active_overrides()) {
    cycle.overrides.push_back(override_entry);
  }
  return cycle;
}

/// Runs a full lockstep feed and asserts the daemon's cycle digests are
/// bitwise identical to the simulator's (which always recomputes in
/// full). `incremental` arms the daemon's delta engine: an execution
/// knob, so it must not change a single decision.
void run_mirror_test(bool sampled, bool incremental) {
  const topology::World world = test_world();
  topology::Pop pop(world, 0);
  const sim::SimulationConfig config = sim_config(sampled);
  sim::Simulation sim(pop, config);

  service::EfdConfig dcfg = daemon_config(config);
  dcfg.controller.incremental = incremental;
  service::EfdService daemon(pop, dcfg);
  daemon.start();

  sim::LiveFeed::Config feed_config;
  feed_config.bmp_port = daemon.bmp_port();
  feed_config.sflow_port = daemon.sflow_port();
  sim::LiveFeed feed(sim, feed_config, sync_for(daemon));
  feed.connect();

  std::vector<SimCycle> expected;
  while (feed.step()) {
    if (sim.last().controller) expected.push_back(snapshot_sim_cycle(sim));
  }
  ASSERT_GE(expected.size(), 8u);
  EXPECT_GT(feed.bmp_bytes_sent(), 0u);
  EXPECT_EQ(feed.bmp_bytes_dropped(), 0u);

  const std::vector<service::EfdService::CycleDigest> digests =
      daemon.digests();
  ASSERT_EQ(digests.size(), expected.size());
  std::size_t with_overrides = 0;
  for (std::size_t i = 0; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i].when, expected[i].when) << "cycle " << i;
    EXPECT_EQ(digests[i].overrides, expected[i].overrides)
        << "cycle " << i << ": daemon decided differently";
    with_overrides += expected[i].overrides.empty() ? 0 : 1;
  }
  // The comparison must not pass vacuously: the controller actually
  // steered traffic in most cycles.
  EXPECT_GT(with_overrides, digests.size() / 2);
  daemon.stop();
}

TEST(LiveIngest, DirectFeedReachesIdenticalDecisions) {
  for (const bool incremental : {false, true}) {
    SCOPED_TRACE(incremental ? "incremental on" : "incremental off");
    run_mirror_test(/*sampled=*/false, incremental);
  }
}

TEST(LiveIngest, SampledFeedReachesIdenticalDecisions) {
  run_mirror_test(/*sampled=*/true, /*incremental=*/false);
}

TEST(LiveIngest, SurvivesDisconnectAndReconnect) {
  const std::size_t fds_before = io::open_fd_count();
  {
    const topology::World world = test_world();
    topology::Pop pop(world, 0);
    sim::SimulationConfig config = sim_config(/*sampled=*/false);
    config.peer_flap_rate_per_hour = 0.0;
    config.duration = net::SimTime::minutes(10);
    sim::Simulation sim(pop, config);

    service::EfdService daemon(pop, daemon_config(config));
    daemon.start();

    sim::LiveFeed::Config feed_config;
    feed_config.bmp_port = daemon.bmp_port();
    feed_config.sflow_port = daemon.sflow_port();
    sim::LiveFeed feed(sim, feed_config, sync_for(daemon));
    feed.connect();

    std::vector<SimCycle> expected;
    const auto step_once = [&] {
      if (!feed.step()) return false;
      if (sim.last().controller) expected.push_back(snapshot_sim_cycle(sim));
      return true;
    };

    for (int i = 0; i < 3; ++i) ASSERT_TRUE(step_once());

    // An instant bounce (no step in between): the daemon purges router
    // 0's routes on EOF and rebuilds them from the replay, so decisions
    // never diverge and no export is lost.
    feed.disconnect_router(0);
    ASSERT_FALSE(feed.router_connected(0));
    feed.reconnect_router(0);
    ASSERT_TRUE(feed.router_connected(0));
    for (int i = 0; i < 2; ++i) ASSERT_TRUE(step_once());
    EXPECT_EQ(feed.bmp_bytes_dropped(), 0u);

    // An outage across live steps: the daemon runs (and decides) with a
    // partial RIB while the session is down — divergence is expected
    // there — then resynchronizes from the reconnect replay.
    feed.disconnect_router(1);
    const std::size_t divergence_starts = expected.size();
    for (int i = 0; i < 2; ++i) ASSERT_TRUE(step_once());
    EXPECT_GT(feed.bmp_bytes_dropped(), 0u);  // exports lost while down
    feed.reconnect_router(1);
    std::size_t converged_from = 0;
    while (step_once()) converged_from = expected.size();
    ASSERT_GT(converged_from, divergence_starts + 2);

    const std::vector<service::EfdService::CycleDigest> digests =
        daemon.digests();
    ASSERT_EQ(digests.size(), expected.size());
    for (std::size_t i = 0; i < digests.size(); ++i) {
      const bool down_window =
          i >= divergence_starts && i < divergence_starts + 2;
      if (down_window) continue;
      EXPECT_EQ(digests[i].overrides, expected[i].overrides)
          << "cycle " << i << " diverged";
    }

    daemon.stop();
  }
  // Feeder sockets, daemon listeners, accepted sessions: all returned.
  EXPECT_EQ(io::open_fd_count(), fds_before);
}

}  // namespace
}  // namespace ef
