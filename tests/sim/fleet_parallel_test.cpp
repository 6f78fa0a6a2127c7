// Parallel == serial, provably: a multi-threaded Fleet::run must produce
// bitwise-identical StepRecords, observer ordering, and audit journal
// bytes to the single-threaded path. This is the oracle that keeps the
// runtime::ThreadPool honest (docs/PARALLELISM.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "audit/cycle_journal.h"
#include "sim/fleet.h"

namespace ef::sim {
namespace {

topology::World test_world() {
  topology::WorldConfig config;
  config.num_clients = 40;
  config.num_pops = 3;
  return topology::World::generate(config);
}

SimulationConfig test_config() {
  SimulationConfig config;
  // 121 steps per PoP (t=0 plus 120 one-minute steps) — comfortably past
  // the >=100-step bar, with a controller cycle on every step.
  config.duration = net::SimTime::hours(2);
  config.step = net::SimTime::seconds(60);
  config.controller.cycle_period = net::SimTime::seconds(60);
  return config;
}

/// Bitwise fingerprint of a StepRecord: doubles printed as %a hex floats,
/// so two fingerprints match iff every field matches bit for bit.
std::string fingerprint(std::size_t pop_index, const StepRecord& record) {
  char buf[128];
  std::string out;
  std::snprintf(buf, sizeof buf, "pop=%zu t=%lld demand=%a overload=%a down=%zu",
                pop_index, static_cast<long long>(record.when.millis_value()),
                record.total_demand.bits_per_sec(),
                record.overload.bits_per_sec(), record.peerings_down);
  out += buf;
  for (const auto& [iface, load] : record.load) {
    std::snprintf(buf, sizeof buf, " if%u=%a", iface.value(),
                  load.bits_per_sec());
    out += buf;
  }
  if (record.controller) {
    std::snprintf(buf, sizeof buf, " ov=%zu unres=%a",
                  record.controller->overrides_active,
                  record.controller->allocation.unresolved_overload
                      .bits_per_sec());
    out += buf;
  }
  return out;
}

/// Runs a fresh fleet at `threads`, returning (observer trace, per-PoP
/// concatenated journal bytes).
struct RunResult {
  std::vector<std::string> trace;  // one fingerprint per observer call
  std::vector<std::vector<std::uint8_t>> journals;  // per PoP
};

RunResult run_at(unsigned threads) {
  const topology::World world = test_world();
  Fleet fleet(world, test_config());
  RunResult result;
  // One journal file per PoP, named per test and thread count: ctest runs
  // the tests of this file as concurrent processes.
  const std::string base =
      testing::TempDir() + "fleet_parallel_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(threads) + "_pop";
  std::vector<std::unique_ptr<audit::CycleJournal>> journals;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    journals.push_back(std::make_unique<audit::CycleJournal>(
        base + std::to_string(p) + ".efj", /*include_timing=*/false));
    // The cycle observer fires on whichever pool worker runs PoP p, but
    // only ever for PoP p — per-PoP sinks need no locking.
    fleet.simulation(p).set_cycle_observer(
        [journal = journals.back().get()](
            const core::Controller::CycleRecord& record) {
          journal->append(record);
        });
  }
  fleet.run(
      [&](std::size_t pop_index, const StepRecord& record) {
        result.trace.push_back(fingerprint(pop_index, record));
      },
      RunOptions{threads});
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    journals[p]->flush();
    EXPECT_TRUE(journals[p]->ok());
    journals[p].reset();
    const std::string path = base + std::to_string(p) + ".efj";
    result.journals.push_back(
        audit::JournalReader::load(path).value_or(std::vector<std::uint8_t>{}));
    std::remove(path.c_str());
  }
  return result;
}

TEST(FleetParallel, MultiThreadedRunMatchesSerialBitwise) {
  const RunResult serial = run_at(1);
  const RunResult parallel = run_at(4);

  // >= 100 steps actually ran, for every PoP.
  ASSERT_EQ(serial.trace.size(), 3u * 121);
  ASSERT_EQ(parallel.trace.size(), serial.trace.size());
  for (std::size_t i = 0; i < serial.trace.size(); ++i) {
    ASSERT_EQ(parallel.trace[i], serial.trace[i]) << "observer call " << i;
  }

  ASSERT_EQ(parallel.journals.size(), serial.journals.size());
  for (std::size_t p = 0; p < serial.journals.size(); ++p) {
    EXPECT_FALSE(serial.journals[p].empty());
    EXPECT_EQ(parallel.journals[p], serial.journals[p])
        << "journal bytes differ for PoP " << p;
  }
}

TEST(FleetParallel, OversubscribedPoolStillMatches) {
  // More workers than PoPs: some workers idle at every barrier, which is
  // where lost-wakeup/ordering bugs would show.
  const RunResult serial = run_at(1);
  const RunResult parallel = run_at(8);
  EXPECT_EQ(parallel.trace, serial.trace);
  EXPECT_EQ(parallel.journals, serial.journals);
}

TEST(FleetParallel, ObserverFiresInPopIndexOrderWithinEachStep) {
  const topology::World world = test_world();
  SimulationConfig config = test_config();
  config.duration = net::SimTime::minutes(30);
  Fleet fleet(world, config);
  std::size_t previous_pop = 0;
  long long previous_time = -1;
  fleet.run(
      [&](std::size_t pop_index, const StepRecord& record) {
        const long long t = record.when.millis_value();
        if (t == previous_time) {
          EXPECT_GT(pop_index, previous_pop)
              << "observer order regressed within step t=" << t;
        } else {
          EXPECT_GT(t, previous_time) << "steps interleaved across time";
          EXPECT_EQ(pop_index, 0u);
        }
        previous_pop = pop_index;
        previous_time = t;
      },
      RunOptions{3});
}

TEST(FleetParallel, AutoThreadCountRuns) {
  // threads=0 resolves to hardware_concurrency; on any machine the run
  // must complete and visit every PoP every step.
  const topology::World world = test_world();
  SimulationConfig config = test_config();
  config.duration = net::SimTime::minutes(10);
  Fleet fleet(world, config);
  std::vector<std::size_t> steps(fleet.size(), 0);
  fleet.run(
      [&](std::size_t pop_index, const StepRecord&) { ++steps[pop_index]; },
      RunOptions{0});
  for (std::size_t count : steps) EXPECT_EQ(count, 11u);
}

}  // namespace
}  // namespace ef::sim
