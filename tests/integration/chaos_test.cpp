// Chaos integration: a LiveFeed with fault injection drives a failsafe-
// armed daemon over real sockets. Covers the full degradation walk
// (healthy → hold-last-good → fail-static → healthy) under a demand
// blackout, the audit-journal record of it, and bitwise replay
// determinism of a seeded-fault run.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "audit/cycle_journal.h"
#include "audit/event.h"
#include "audit/journal.h"
#include "audit/replay.h"
#include "core/controller.h"
#include "io/backoff.h"
#include "io/fault.h"
#include "io/socket.h"
#include "service/efd.h"
#include "service/prd.h"
#include "sim/live_feed.h"
#include "sim/simulation.h"
#include "topology/pop.h"
#include "topology/world.h"

namespace ef {
namespace {

using namespace std::chrono_literals;
using audit::FailsafeAction;
using audit::FailsafeMode;

constexpr auto kBarrier = 15000ms;

topology::World test_world() {
  topology::WorldConfig config;
  config.num_clients = 40;
  config.num_pops = 2;
  config.seed = 11;
  return topology::World::generate(config);
}

sim::SimulationConfig sim_config(int steps) {
  sim::SimulationConfig config;
  config.step = net::SimTime::seconds(60);
  config.duration = net::SimTime::seconds(60.0 * steps);
  config.controller.cycle_period = config.step;
  config.controller.allocator.overload_threshold = 0.5;
  config.controller.allocator.target_utilization = 0.45;
  return config;
}

service::EfdConfig daemon_config(const sim::SimulationConfig& sim) {
  service::EfdConfig config;
  config.controller = sim.controller;
  config.controller.enforcement = core::Enforcement::kShadow;
  config.failsafe.enabled = true;
  config.failsafe.max_demand_age = net::SimTime::seconds(90);
  config.failsafe.hold_ttl = net::SimTime::seconds(120);
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

std::string http_get_body(std::uint16_t port, const std::string& path) {
  io::Fd conn = io::connect_tcp(port);
  if (!conn.valid()) return {};
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  if (!io::send_all(conn.get(),
                    std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(request.data()),
                        request.size()))) {
    return {};
  }
  std::string response;
  for (;;) {
    const std::vector<std::uint8_t> chunk = io::recv_some(conn.get());
    if (chunk.empty()) break;
    response.append(chunk.begin(), chunk.end());
  }
  const auto split = response.find("\r\n\r\n");
  return split == std::string::npos ? response : response.substr(split + 4);
}

struct ChaosRun {
  std::vector<service::EfdService::CycleDigest> digests;
  service::EfdService::IngestSnapshot ingest;
  std::uint64_t router_downs = 0;
  std::uint64_t reconnects_ok = 0;
  std::uint64_t demand_dropped = 0;
  std::string metrics;
};

/// Runs one socket-fed chaos scenario to completion and collects what
/// the assertions need. `configure` mutates the feed config (faults,
/// blackout, reconnect schedule); `journal` optionally records it.
ChaosRun run_chaos(int steps, const std::string& journal,
                   const std::function<void(sim::LiveFeed::Config&)>&
                       configure) {
  const topology::World world = test_world();
  topology::Pop pop(world, 0);
  const sim::SimulationConfig config = sim_config(steps);
  sim::Simulation sim(pop, config);

  service::EfdConfig daemon_cfg = daemon_config(config);
  daemon_cfg.journal_path = journal;
  service::EfdService daemon(pop, daemon_cfg);
  daemon.start();

  sim::LiveFeed::Config feed_config;
  feed_config.bmp_port = daemon.bmp_port();
  feed_config.sflow_port = daemon.sflow_port();
  configure(feed_config);
  sim::LiveFeed feed(sim, feed_config, sync_for(daemon));
  feed.connect();
  while (feed.step()) {
  }

  ChaosRun run;
  run.digests = daemon.digests();
  run.ingest = daemon.ingest();
  run.router_downs = feed.router_downs();
  run.reconnects_ok = feed.reconnects_ok();
  run.demand_dropped = feed.demand_records_dropped();
  // Snapshot /metrics while the daemon is still serving, so a failing
  // run can dump the operator's view of the ladder.
  run.metrics = http_get_body(daemon.http_port(), "/metrics");
  daemon.stop();
  return run;
}

/// EF_CHAOS_SEED extends the fixed seed matrix from CI without a
/// rebuild; EF_CHAOS_DUMP_DIR receives the /metrics snapshot when a
/// scenario fails, for upload as a build artifact.
std::uint64_t chaos_seed() {
  const char* env = std::getenv("EF_CHAOS_SEED");
  if (env == nullptr) return 1;
  return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
}

void dump_metrics_on_failure(const std::string& name,
                             const std::string& metrics) {
  if (!testing::Test::HasFailure()) return;
  const char* dir = std::getenv("EF_CHAOS_DUMP_DIR");
  if (dir == nullptr || metrics.empty()) return;
  std::ofstream out(std::string(dir) + "/" + name + ".metrics");
  out << metrics;
}

// A four-cycle demand blackout (steps 3..6) while the BMP feed stays
// healthy: window-close markers keep arriving but carry no demand, so
// the daemon must walk the whole ladder — hold on the first missed
// window, fail static once the data goes stale, recover when demand
// returns — and end with the exact override set a healthy cycle makes.
TEST(Chaos, DemandBlackoutWalksTheLadderAndRecovers) {
  const std::string journal = testing::TempDir() + "chaos_ladder.efj";
  const ChaosRun run = run_chaos(13, journal, [](sim::LiveFeed::Config& fc) {
    fc.drop_demand = [](std::uint64_t step) { return step >= 3 && step < 7; };
  });

  ASSERT_EQ(run.digests.size(), 14u);
  EXPECT_GT(run.demand_dropped, 0u);

  // Cycles 0-2: fresh demand, normal runs that actually steer.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(run.digests[i].action, FailsafeAction::kRun) << "cycle " << i;
    EXPECT_EQ(run.digests[i].mode, FailsafeMode::kHealthy) << "cycle " << i;
    EXPECT_FALSE(run.digests[i].overrides.empty()) << "cycle " << i;
  }
  // Cycle 3: one missed window — degraded, hold cycle 2's set verbatim.
  EXPECT_EQ(run.digests[3].action, FailsafeAction::kHold);
  EXPECT_EQ(run.digests[3].mode, FailsafeMode::kHoldLastGood);
  EXPECT_EQ(run.digests[3].overrides, run.digests[2].overrides);
  // Cycles 4-6: demand is stale — fail static, zero overrides (plain BGP).
  for (std::size_t i = 4; i < 7; ++i) {
    EXPECT_EQ(run.digests[i].action, FailsafeAction::kWithdraw)
        << "cycle " << i;
    EXPECT_EQ(run.digests[i].mode, FailsafeMode::kFailStatic) << "cycle " << i;
    EXPECT_TRUE(run.digests[i].overrides.empty()) << "cycle " << i;
  }
  // Cycles 7+: demand is back, the ladder recovers and steering resumes.
  for (std::size_t i = 7; i < run.digests.size(); ++i) {
    EXPECT_EQ(run.digests[i].action, FailsafeAction::kRun) << "cycle " << i;
    EXPECT_EQ(run.digests[i].mode, FailsafeMode::kHealthy) << "cycle " << i;
    EXPECT_FALSE(run.digests[i].overrides.empty()) << "cycle " << i;
  }

  // Ladder counters, as also exported on /metrics: one hold, three
  // fail-static cycles, two recoveries (cold start + post-blackout),
  // four transitions (static→healthy, →hold, →static, →healthy).
  EXPECT_EQ(run.ingest.failsafe_holds, 1u);
  EXPECT_EQ(run.ingest.failsafe_fail_statics, 3u);
  EXPECT_EQ(run.ingest.failsafe_recoveries, 2u);
  EXPECT_EQ(run.ingest.failsafe_transitions, 4u);
  EXPECT_EQ(run.ingest.failsafe_mode,
            static_cast<std::uint64_t>(FailsafeMode::kHealthy));
  EXPECT_NE(run.metrics.find("efd_failsafe_holds_total 1"),
            std::string::npos);
  EXPECT_NE(run.metrics.find("efd_failsafe_transitions_total 4"),
            std::string::npos);

  // The journal interleaves cycle records (keyframes and deltas) with
  // ladder events: every record reads back as a cycle or an event, and
  // the events retell the transitions (including the zero-override
  // fail-static evidence).
  auto reader = audit::CycleSnapshotReader::open(journal);
  ASSERT_TRUE(reader.has_value());
  std::size_t snapshots = 0;
  while (reader->next()) ++snapshots;
  EXPECT_EQ(reader->journal_stats().corrupt_skipped, 0u);
  EXPECT_EQ(reader->stats().undecodable, 0u);
  EXPECT_EQ(reader->stats().deltas_skipped, 0u);
  EXPECT_GT(snapshots, 0u);
  const std::vector<audit::FailsafeEvent>& events = reader->failsafe_events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[1].to_mode, FailsafeMode::kHoldLastGood);
  EXPECT_EQ(events[2].to_mode, FailsafeMode::kFailStatic);
  EXPECT_EQ(events[2].overrides_active, 0u);
  EXPECT_EQ(events[3].to_mode, FailsafeMode::kHealthy);

  dump_metrics_on_failure("demand_blackout", run.metrics);
}

// Seeded message-level faults on the BMP streams (poison, drop,
// truncate, disconnect) with an auto-reconnect schedule: the daemon must
// survive the whole run, actually exercise the outage/reconnect path,
// and — the load-bearing property — make bitwise-identical decisions on
// a second run of the same seed.
TEST(Chaos, SeededFaultRunsReplayBitwiseIdentically) {
  const std::uint64_t seed = chaos_seed();
  const auto configure = [seed](sim::LiveFeed::Config& fc) {
    io::FaultConfig faults;
    faults.seed = seed;
    faults.drop = 0.02;
    faults.corrupt_header = 0.01;
    faults.truncate = 0.005;
    faults.disconnect = 0.005;
    fc.faults = faults;
    io::Backoff::Config redial;
    redial.base = 1;  // steps
    redial.cap = 4;
    redial.seed = seed;
    fc.reconnect = redial;
  };

  const ChaosRun first = run_chaos(13, "", configure);
  const ChaosRun second = run_chaos(13, "", configure);

  // The faults genuinely bit: sessions went down and came back.
  EXPECT_GT(first.router_downs, 0u) << "fault rates never severed a session";
  EXPECT_GT(first.reconnects_ok, 0u);
  EXPECT_GT(first.ingest.routers_down, 0u);
  EXPECT_GT(first.ingest.router_reconnects, 0u);
  EXPECT_EQ(first.digests.size(), 14u);

  ASSERT_EQ(second.digests.size(), first.digests.size());
  for (std::size_t i = 0; i < first.digests.size(); ++i) {
    EXPECT_EQ(second.digests[i].when, first.digests[i].when) << "cycle " << i;
    EXPECT_EQ(second.digests[i].action, first.digests[i].action)
        << "cycle " << i;
    EXPECT_EQ(second.digests[i].mode, first.digests[i].mode) << "cycle " << i;
    EXPECT_EQ(second.digests[i].overrides, first.digests[i].overrides)
        << "cycle " << i << ": replay diverged (seed " << seed << ")";
  }
  EXPECT_EQ(second.router_downs, first.router_downs);
  EXPECT_EQ(second.reconnects_ok, first.reconnects_ok);
  EXPECT_EQ(second.ingest.failsafe_transitions,
            first.ingest.failsafe_transitions);

  dump_metrics_on_failure("seeded_faults", first.metrics);
}

// --- BGP-path chaos: faults on the enforcement wire --------------------

struct BgpChaosRun {
  std::vector<service::EfdService::CycleDigest> digests;
  service::EfdService::IngestSnapshot ingest;
  bool drained = true;
  std::vector<audit::AuditEvent> audit_events;
  std::string metrics;
};

/// One BGP-fault chaos scenario: the daemon enforces over a real TCP
/// session into a PeeringRouterService while seeded faults (plus a
/// scripted flap) mangle the announcer's UPDATE stream, the audit
/// read-back runs against the router's Adj-RIB-In, and a drain barrier
/// between feed steps keeps the wire quiesced at every audit point —
/// which is what makes the whole run a deterministic function of the
/// fault seed.
BgpChaosRun run_bgp_chaos(int steps, std::uint64_t fault_seed,
                          const std::string& journal) {
  const topology::World world = test_world();
  topology::Pop pop(world, 0);
  const sim::SimulationConfig config = sim_config(steps);
  sim::Simulation sim(pop, config);

  service::PeeringRouterService::Config pr_config;
  pr_config.local_as = world.config().local_as;  // iBGP with the announcer
  service::PeeringRouterService router(pr_config);
  router.start();

  service::EfdConfig daemon_cfg = daemon_config(config);
  daemon_cfg.journal_path = journal;
  daemon_cfg.announce_ports = {router.bgp_port()};
  daemon_cfg.announce_tick_period = std::chrono::milliseconds(20);
  daemon_cfg.audit.enabled = true;
  daemon_cfg.audit_read_back = [&router] { return router.routes(); };
  io::FaultConfig faults;
  faults.seed = fault_seed;
  faults.drop = 0.10;
  faults.duplicate = 0.05;
  faults.swallow_withdraw = 0.5;
  daemon_cfg.announce_faults = faults;
  daemon_cfg.announce_fault_script = {
      {.at = 6, .kind = io::FaultKind::kDisconnect}};

  service::EfdService daemon(pop, daemon_cfg);
  daemon.start();

  // Stable-target drain barrier: the announcer's post-fault wire count
  // must stop moving, the router must have received every one of those
  // messages, any injected flap must have actually severed the session,
  // and the session must be re-established — only then is the router's
  // Adj-RIB-In a settled function of the fault schedule.
  const auto drain = [&daemon, &router]() -> bool {
    const auto deadline = std::chrono::steady_clock::now() + kBarrier;
    std::uint64_t target = daemon.ingest().bgp_updates_sent;
    for (;;) {
      const auto snap = daemon.ingest();
      const auto pr = router.snapshot();
      if (snap.bgp_updates_sent == target &&
          pr.updates_received >= target &&
          snap.bgp_session_drops >= snap.bgp_faults_flapped &&
          snap.bgp_sessions_established == 1) {
        return true;
      }
      target = snap.bgp_updates_sent;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };

  sim::LiveFeed::Config feed_config;
  feed_config.bmp_port = daemon.bmp_port();
  feed_config.sflow_port = daemon.sflow_port();
  sim::LiveFeed feed(sim, feed_config, sync_for(daemon));
  feed.connect();

  BgpChaosRun run;
  if (!drain()) run.drained = false;  // session up before the first cycle
  while (feed.step()) {
    if (!drain()) run.drained = false;
  }

  run.digests = daemon.digests();
  run.ingest = daemon.ingest();
  run.metrics = http_get_body(daemon.http_port(), "/metrics");
  daemon.stop();
  router.stop();

  if (!journal.empty()) {
    const auto bytes = audit::JournalReader::load(journal);
    if (bytes) {
      audit::JournalReader reader(*bytes);
      while (const auto record = reader.next()) {
        if (auto event = audit::AuditEvent::deserialize(*record)) {
          run.audit_events.push_back(std::move(*event));
        }
      }
    }
  }
  return run;
}

// Dropped UPDATEs, swallowed withdraws, and a scripted session flap on
// the enforcement wire: the closed-loop audit must detect every
// divergence class within one audit interval (interval 1 here — the
// audit at the next cycle sees whatever the faults left behind),
// remediate within its budget, journal the divergence, and the whole
// run must replay bitwise — audit trace included — under the same seed.
TEST(Chaos, BgpFaultsAreAuditedRemediatedAndReplayBitwise) {
  const std::uint64_t seed = chaos_seed();
  const std::string journal = testing::TempDir() + "chaos_bgp_audit.efj";
  const BgpChaosRun first = run_bgp_chaos(13, seed, journal);

  ASSERT_TRUE(first.drained) << "BGP drain barrier timed out";
  ASSERT_EQ(first.digests.size(), 14u);

  // The faults genuinely bit on the wire.
  EXPECT_GT(first.ingest.bgp_faults_dropped, 0u)
      << "drop rate never hit an UPDATE";
  EXPECT_GT(first.ingest.bgp_withdraws_swallowed, 0u)
      << "no withdraw-bearing UPDATE was swallowed (seed " << seed << ")";
  EXPECT_EQ(first.ingest.bgp_faults_flapped, 1u);  // the scripted flap
  EXPECT_GE(first.ingest.bgp_session_drops, 1u);

  // Detection: the audit saw the divergence the faults created —
  // missing prefixes from dropped UPDATEs, extra-stale ones from
  // swallowed withdraws — and remediated within its budget.
  EXPECT_GT(first.ingest.audit_runs, 0u);
  EXPECT_GT(first.ingest.audit_divergent, 0u);
  EXPECT_GT(first.ingest.audit_missing + first.ingest.audit_extra, 0u);
  EXPECT_GT(first.ingest.audit_repairs_announce +
                first.ingest.audit_repairs_withdraw,
            0u);
  EXPECT_EQ(first.ingest.audit_unrepaired, 0u);  // budget never exceeded

  // Every audit that found divergence journaled an AuditEvent (tag
  // 0xEFA1), and the journal retells the same taxonomy the counters do.
  ASSERT_EQ(first.audit_events.size(), first.ingest.audit_divergent);
  std::uint64_t journaled_missing = 0, journaled_extra = 0;
  for (const audit::AuditEvent& event : first.audit_events) {
    journaled_missing += event.missing;
    journaled_extra += event.extra;
    EXPECT_GT(event.divergent_streak, 0u);
  }
  EXPECT_EQ(journaled_missing, first.ingest.audit_missing);
  EXPECT_EQ(journaled_extra, first.ingest.audit_extra);

  // The operator sees the same story on /metrics.
  EXPECT_NE(first.metrics.find("efd_audit_enabled 1"), std::string::npos);
  EXPECT_NE(first.metrics.find("efd_bgp_faults_flapped_total 1"),
            std::string::npos);

  // Bitwise replay: same seed, same fault schedule, same audit trace.
  const BgpChaosRun second = run_bgp_chaos(13, seed, "");
  ASSERT_TRUE(second.drained);
  ASSERT_EQ(second.digests.size(), first.digests.size());
  for (std::size_t i = 0; i < first.digests.size(); ++i) {
    EXPECT_EQ(second.digests[i].when, first.digests[i].when) << "cycle " << i;
    EXPECT_EQ(second.digests[i].overrides, first.digests[i].overrides)
        << "cycle " << i << ": replay diverged (seed " << seed << ")";
    EXPECT_EQ(second.digests[i].audit_ran, first.digests[i].audit_ran)
        << "cycle " << i;
    EXPECT_EQ(second.digests[i].audit_missing, first.digests[i].audit_missing)
        << "cycle " << i;
    EXPECT_EQ(second.digests[i].audit_extra, first.digests[i].audit_extra)
        << "cycle " << i;
    EXPECT_EQ(second.digests[i].audit_wrong_attrs,
              first.digests[i].audit_wrong_attrs)
        << "cycle " << i;
    EXPECT_EQ(second.digests[i].audit_repaired,
              first.digests[i].audit_repaired)
        << "cycle " << i;
    EXPECT_EQ(second.digests[i].audit_divergent_streak,
              first.digests[i].audit_divergent_streak)
        << "cycle " << i;
  }
  EXPECT_EQ(second.ingest.bgp_faults_dropped, first.ingest.bgp_faults_dropped);
  EXPECT_EQ(second.ingest.bgp_withdraws_swallowed,
            first.ingest.bgp_withdraws_swallowed);
  EXPECT_EQ(second.ingest.audit_divergent, first.ingest.audit_divergent);
  EXPECT_EQ(second.ingest.audit_missing, first.ingest.audit_missing);
  EXPECT_EQ(second.ingest.audit_extra, first.ingest.audit_extra);

  dump_metrics_on_failure("bgp_faults", first.metrics);
}

// An audited, enforcing daemon's journal interleaves keyframes, delta
// records, ladder events and audit events. Read back, every record is
// data (none undecodable, no delta without its predecessor), there is
// one snapshot per cycle that ran, and each replays without drift.
TEST(Chaos, AuditedJournalReadsBackWholeAndReplaysWithoutDrift) {
  const std::string journal = testing::TempDir() + "chaos_audited_replay.efj";
  const BgpChaosRun run = run_bgp_chaos(13, chaos_seed(), journal);
  ASSERT_TRUE(run.drained);

  auto reader = audit::CycleSnapshotReader::open(journal);
  ASSERT_TRUE(reader.has_value());
  std::size_t cycles = 0;
  std::size_t drifted = 0;
  while (const audit::CycleSnapshot* snapshot = reader->next()) {
    ++cycles;
    if (audit::replay(*snapshot).drifted) ++drifted;
  }
  const std::size_t ran = static_cast<std::size_t>(
      std::count_if(run.digests.begin(), run.digests.end(),
                    [](const service::EfdService::CycleDigest& digest) {
                      return digest.action == FailsafeAction::kRun;
                    }));
  EXPECT_EQ(cycles, ran);
  EXPECT_EQ(drifted, 0u);
  EXPECT_EQ(reader->stats().undecodable, 0u);
  EXPECT_EQ(reader->stats().deltas_skipped, 0u);
  EXPECT_EQ(reader->journal_stats().corrupt_skipped, 0u);
  EXPECT_GT(reader->stats().deltas, 0u);
  EXPECT_GT(reader->audit_events().size(), 0u);
  EXPECT_EQ(reader->audit_events().size(), run.ingest.audit_divergent);
  EXPECT_EQ(run.ingest.journal_keyframes, reader->stats().keyframes);
  EXPECT_EQ(run.ingest.journal_deltas, reader->stats().deltas);
}

// --- crash-safe warm restart -------------------------------------------

// Phase 1 runs a healthy steering daemon that persists a recovery
// snapshot each cycle; the file is copied mid-flight (exactly the
// on-disk state a kill -9 would leave). Phase 2 starts a fresh daemon
// with --recover against that copy and a fresh peering router: it must
// come up in hold-last-good holding the pre-crash set — never passing
// through cold fail-static — re-announce that set over BGP, and have
// the enforcement audit confirm the router converged on it.
TEST(Chaos, WarmRestartResumesHoldLastGoodAndAuditsConvergent) {
  const std::string recovery = testing::TempDir() + "warm_restart.efr";
  const std::string crash_copy = recovery + ".crash";
  const topology::World world = test_world();
  const sim::SimulationConfig config = sim_config(5);

  std::vector<core::Override> pre_crash;
  {
    topology::Pop pop(world, 0);
    sim::Simulation sim(pop, config);
    service::EfdConfig daemon_cfg = daemon_config(config);
    daemon_cfg.recovery_path = recovery;
    service::EfdService daemon(pop, daemon_cfg);
    daemon.start();

    sim::LiveFeed::Config feed_config;
    feed_config.bmp_port = daemon.bmp_port();
    feed_config.sflow_port = daemon.sflow_port();
    sim::LiveFeed feed(sim, feed_config, sync_for(daemon));
    feed.connect();
    while (feed.step()) {
    }

    const auto digests = daemon.digests();
    ASSERT_FALSE(digests.empty());
    pre_crash = digests.back().overrides;
    ASSERT_FALSE(pre_crash.empty()) << "nothing steered, nothing to recover";
    EXPECT_GT(daemon.ingest().recovery_writes, 0u);

    // Freeze the crash-point state: copy the snapshot file while the
    // daemon still runs, before its orderly teardown rewrites it.
    std::ifstream in(recovery, std::ios::binary);
    std::ofstream out(crash_copy, std::ios::binary);
    ASSERT_TRUE(in.good() && out.good());
    out << in.rdbuf();
    daemon.stop();
  }

  // Phase 2: the reborn daemon. No demand feed at all — wall-clock
  // cycles tick while the (hypothetical) feeds re-attach, and the
  // ladder must hold the recovered set, not fail static.
  topology::Pop pop(world, 0);
  service::PeeringRouterService::Config pr_config;
  pr_config.local_as = world.config().local_as;
  service::PeeringRouterService router(pr_config);
  router.start();

  service::EfdConfig daemon_cfg = daemon_config(config);
  daemon_cfg.recovery_path = crash_copy;
  daemon_cfg.recover = true;
  daemon_cfg.real_time_cycles = true;
  daemon_cfg.cycle_wall_period = std::chrono::milliseconds(100);
  // Generous staleness budgets: the test asserts the hold path, not the
  // (already covered) expiry path.
  daemon_cfg.failsafe.max_demand_age = net::SimTime::seconds(3600);
  daemon_cfg.failsafe.hold_ttl = net::SimTime::seconds(3600);
  daemon_cfg.failsafe.max_audit_failures = 10;
  daemon_cfg.announce_ports = {router.bgp_port()};
  daemon_cfg.announce_tick_period = std::chrono::milliseconds(20);
  daemon_cfg.audit.enabled = true;
  daemon_cfg.audit_read_back = [&router] { return router.routes(); };

  service::EfdService daemon(pop, daemon_cfg);
  daemon.start();

  // Recovery is visible immediately: the snapshot was adopted and the
  // ladder sits in hold-last-good before any cycle has run.
  auto snap = daemon.ingest();
  EXPECT_EQ(snap.recovered, 1u);
  EXPECT_EQ(snap.failsafe_mode,
            static_cast<std::uint64_t>(FailsafeMode::kHoldLastGood));

  // The pre-crash set reaches the fresh router in full over BGP.
  ASSERT_TRUE(router.wait_until(
      [&](const service::PeeringRouterService::Snapshot& pr) {
        return pr.prefixes == pre_crash.size();
      },
      kBarrier));

  // And the closed loop agrees: an audit runs and ends convergent
  // (streak 0 means the *latest* audit found zero divergence).
  ASSERT_TRUE(daemon.wait_until(
      [](const service::EfdService::IngestSnapshot& s) {
        return s.audit_runs >= 1 && s.audit_divergent_streak == 0 &&
               s.cycles_run >= 2;
      },
      kBarrier));

  snap = daemon.ingest();
  EXPECT_EQ(snap.failsafe_fail_statics, 0u)
      << "warm restart passed through fail-static";
  const auto digests = daemon.digests();
  ASSERT_FALSE(digests.empty());
  for (std::size_t i = 0; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i].action, FailsafeAction::kHold) << "cycle " << i;
    EXPECT_EQ(digests[i].mode, FailsafeMode::kHoldLastGood) << "cycle " << i;
  }
  // Held set == recovered set == pre-crash set, bit for bit.
  EXPECT_EQ(digests[0].overrides, pre_crash);

  daemon.stop();
  router.stop();
}

}  // namespace
}  // namespace ef
