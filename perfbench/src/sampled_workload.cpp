// sampled_pop: the generated world's own PoP at the 200-client cap, fed
// through sim::LiveFeed — BMP from the PoP's two routers and raw sFlow
// FlowSamples at a heavy per-window volume — into an efd running the
// paper's telemetry path (aggregation + EWMA smoothing), the delta
// engine, the dataplane emulation and every robustness feature.
//
// The LiveFeed's simulation is also the decision reference: its own
// in-process controller must decide exactly what the daemon decides.
#include <memory>
#include <optional>

#include "io/socket.h"
#include "layers.h"
#include "report.h"
#include "sim/live_feed.h"
#include "sim/simulation.h"
#include "topology/pop.h"
#include "topology/world.h"
#include "workloads.h"

namespace efbench {

namespace {


topology::WorldConfig world_config(const Options& options) {
  // The world (and so the PoP's table) is fixed; the seed drives the
  // demand and the packet/sample streams (sim_config).
  topology::WorldConfig config;
  config.seed = 42;
  config.num_clients = options.smoke ? 60 : 200;
  return config;
}

sim::SimulationConfig sim_config(const Options& options) {
  sim::SimulationConfig config;
  config.demand.seed = options.seed;
  config.flowgen.seed = options.seed ^ 0x5eedf10bull;
  config.duration = net::SimTime::hours(24 * 365);
  config.step = net::SimTime::seconds(60);
  config.controller.cycle_period = config.step;
  // Aggressive thresholds so most cycles steer traffic and the announce,
  // audit and recovery paths carry real override sets.
  config.controller.allocator.overload_threshold = 0.5;
  config.controller.allocator.target_utilization = 0.45;
  config.use_sflow_estimate = true;
  // Heavy sample volume: one in two of the generator's macro packets.
  config.sflow_sample_rate = 2;
  config.sflow_smoothing_alpha = 0.4;
  return config;
}

dataplane::DataplaneConfig dataplane_config() {
  dataplane::DataplaneConfig config;
  config.enabled = true;
  return config;
}

/// The feeder side of one stood-up system. The LiveFeed's sample tap is
/// replaced by `samples`, so the feeder ships each window's FlowSamples
/// itself as pre-encoded datagrams and times only send + acknowledgement;
/// BMP, markers and the step barriers stay the LiveFeed's.
struct Feeder {
  service::EfdService* efd = nullptr;
  service::PeeringRouterService* prd = nullptr;
  io::Fd sflow;
  std::vector<telemetry::FlowSample> samples;
  std::uint64_t datagrams_sent = 0;  // the feeder's own sample datagrams
  LoopLog* loop = nullptr;           // null while setting up
  LayerPipeline* pipeline = nullptr;
  std::uint64_t window = 0;
  std::string error;
  CycleWait last_wait;
  Clock::time_point marker_sent;

  bool ship_samples() {
    std::vector<telemetry::wire::SflowRecord> records(samples.begin(),
                                                      samples.end());
    samples.clear();
    const auto datagrams = encode_records(records);
    const auto t0 = Clock::now();
    const bool ok = send_datagrams(*efd, sflow.get(), efd->sflow_port(),
                                   datagrams, datagrams_sent);
    const auto t1 = Clock::now();
    if (!ok) return false;
    if (loop) {
      loop->add_feed(records.size(), ms_between(t0, t1));
    }
    if (pipeline) pipeline->datagrams(window, datagrams);
    return true;
  }

  sim::LiveFeed::Sync sync() {
    sim::LiveFeed::Sync s;
    s.bmp_bytes = [this](std::uint64_t n) {
      const auto t0 = Clock::now();
      if (!wait_bmp_bytes(*efd, n)) {
        error = "BMP barrier timed out";
        return true;  // recorded; the step must not abort the process
      }
      if (loop) loop->bmp_ms.push_back(ms_between(t0, Clock::now()));
      if (!ship_samples()) error = "sample barrier timed out";
      if (pipeline && error.empty()) pipeline->read_back(window, *prd);
      return true;
    };
    s.datagrams = [this](std::uint64_t n) {
      if (!wait_datagrams(*efd, n + datagrams_sent)) {
        error = "datagram barrier timed out";
      }
      return true;
    };
    s.windows = [this](std::uint64_t n) {
      // Called right after the LiveFeed sent the window-close marker.
      marker_sent = Clock::now();
      if (!error.empty()) return true;
      last_wait = await_cycle(*efd, *prd, n);
      if (!last_wait.ok) error = last_wait.error;
      return true;
    };
    s.disconnects = [this](std::uint64_t n) {
      if (!efd->wait_for_disconnects(n, kBarrier)) {
        error = "disconnect barrier timed out";
      }
      return true;
    };
    return s;
  }
};

struct Rig {
  std::unique_ptr<topology::World> world;
  std::unique_ptr<topology::Pop> pop;
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<service::PeeringRouterService> prd;
  std::unique_ptr<service::EfdService> efd;
  std::unique_ptr<Feeder> feeder;
  std::unique_ptr<sim::LiveFeed> feed;
  /// The simulation controller's decision after each cycle.
  std::vector<std::vector<core::Override>> expected;

  ~Rig() {
    feed.reset();
    if (feeder) feeder->sflow = io::Fd();
    if (efd) efd->stop();
    if (prd) prd->stop();
    efd.reset();
    prd.reset();
  }

  /// One lockstep window; false when the feeder recorded an error.
  bool step() {
    feeder->error.clear();
    feed->step();
    if (!feeder->error.empty()) return false;
    if (sim->last().controller) {
      std::vector<core::Override> decided;
      for (const auto& [prefix, entry] : sim->controller()->active_overrides()) {
        decided.push_back(entry);
      }
      expected.push_back(std::move(decided));
    }
    return true;
  }
};

std::string set_up(Rig& rig, const Options& options, const RunDir& dir) {
  rig.world = std::make_unique<topology::World>(
      topology::World::generate(world_config(options)));
  rig.pop = std::make_unique<topology::Pop>(*rig.world, 0);
  const sim::SimulationConfig config = sim_config(options);
  rig.sim = std::make_unique<sim::Simulation>(*rig.pop, config);

  {
    const DaemonCpus daemon_cpus;
    rig.prd = std::make_unique<service::PeeringRouterService>(
        prd_config(rig.world->config().local_as));
    rig.prd->start();
    core::ControllerConfig controller = config.controller;
    controller.incremental = true;
    service::EfdConfig efd_config =
        robust_efd_config(controller, rig.prd->bgp_port(), *rig.prd,
                          dir.file("efd.efj"), dir.file("efd.efc"));
    efd_config.sflow_sample_rate = config.sflow_sample_rate;
    efd_config.sflow_smoothing_alpha = config.sflow_smoothing_alpha;
    efd_config.dataplane = dataplane_config();
    rig.efd = std::make_unique<service::EfdService>(*rig.pop, efd_config);
    rig.efd->start();
  }
  if (!rig.efd->wait_until(
          [](const service::EfdService::IngestSnapshot& snap) {
            return snap.bgp_sessions_established == 1;
          },
          kBarrier)) {
    return "announcer session never established";
  }

  rig.feeder = std::make_unique<Feeder>();
  rig.feeder->efd = rig.efd.get();
  rig.feeder->prd = rig.prd.get();
  rig.feeder->sflow = io::connect_udp(rig.efd->sflow_port());
  if (!rig.feeder->sflow.valid()) return "feeder connect failed";
  sim::LiveFeed::Config feed_config;
  feed_config.bmp_port = rig.efd->bmp_port();
  feed_config.sflow_port = rig.efd->sflow_port();
  feed_config.barrier_timeout = kBarrier;
  rig.feed = std::make_unique<sim::LiveFeed>(*rig.sim, feed_config,
                                             rig.feeder->sync());
  Feeder* feeder = rig.feeder.get();
  rig.sim->set_sample_tap([feeder](const telemetry::FlowSample& sample) {
    feeder->samples.push_back(sample);
  });
  rig.feed->connect();
  if (!rig.feeder->error.empty()) return rig.feeder->error;
  if (!rig.step()) return "set-up window: " + rig.feeder->error;
  return {};
}

}  // namespace

RunReport run_sampled_workload(const Options& options) {
  RunReport report;
  RunDir dir(options.workload + "-" + std::to_string(options.seed));
  const std::size_t fds_before = io::open_fd_count();
  std::optional<JournalDrain> journal(std::in_place, dir.file("efd.efj"));
  if (!journal->ok()) {
    report.fail("cannot create the journal FIFO");
    report.attempted = 1;
    report.failed = 1;
    return report;
  }
  report.context["workload"] = options.workload;

  LoopLog loop;
  // Set-up runs `setups` times. The first system stays up for the
  // measured loop, so the memory high-water mark is the loop's in a fresh
  // process; the others run after the loop and only time set-up.
  const int setups = options.smoke ? 2 : 5;
  const auto timed_set_up = [&](Rig& rig) {
    std::remove(dir.file("efd.efc").c_str());
    const auto t0 = Clock::now();
    const std::string error = set_up(rig, options, dir);
    if (error.empty()) {
      loop.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    }
    return error;
  };
  auto rig = std::make_unique<Rig>();
  if (const std::string error = timed_set_up(*rig); !error.empty()) {
    report.fail("set-up: " + error);
    report.attempted = 1;
    report.failed = 1;
    return report;
  }
  Rig& r = *rig;
  {
    const bgp::Rib& snap = r.pop->collector().rib();
    report.context["scale"] =
        std::to_string(snap.prefix_count()) + " prefixes, " +
        std::to_string(snap.route_count()) + " routes, " +
        std::to_string(world_config(options).num_clients) + " clients";
  }

  std::optional<SpanLog> spans;
  std::unique_ptr<LayerPipeline> pipeline;
  if (options.trace) {
    spans.emplace(Clock::now());
    LayerPipeline::Config config;
    config.pop = r.pop.get();
    config.controller = sim_config(options).controller;
    config.controller.incremental = true;
    config.own_collector = false;
    config.sampled = true;
    config.sample_rate = sim_config(options).sflow_sample_rate;
    config.smoothing_alpha = sim_config(options).sflow_smoothing_alpha;
    config.journal = true;
    config.dataplane = dataplane_config();
    config.dir = dir.path();
    pipeline = std::make_unique<LayerPipeline>(config, *spans);
  }

  const std::uint64_t unrepaired_at_start = r.efd->ingest().audit_unrepaired;
  const std::uint64_t journal_at_start = journal->bytes();
  r.feeder->loop = &loop;
  r.feeder->pipeline = pipeline.get();
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  const std::uint64_t max_windows = options.smoke ? 4 : 100000;
  for (std::uint64_t w = 1; w <= max_windows && Clock::now() < deadline; ++w) {
    const std::size_t i = loop.cycles();
    loop.start_cycle();
    r.feeder->window = w;
    const auto before = r.efd->ingest();
    if (!r.step()) {
      loop.cycle_ms.push_back(static_cast<double>(kBarrier.count()));
      loop.fail_cycle(i, "window " + std::to_string(w) + ": " +
                             r.feeder->error);
      break;
    }
    const CycleWait& wait = r.feeder->last_wait;
    loop.cycle_ms.push_back(ms_between(r.feeder->marker_sent, wait.drained));
    loop.prd_apply_ms.push_back(ms_between(wait.cycle_done, wait.drained));
    const auto after = r.efd->ingest();
    loop.updates.push_back(
        static_cast<double>(after.bgp_updates_sent - before.bgp_updates_sent));
    loop.withdraws.push_back(
        static_cast<double>(after.bgp_withdraw_msgs - before.bgp_withdraw_msgs));
    loop.held.push_back(held_fingerprint(
        r.prd->routes(), sim_config(options).controller.override_local_pref));
    if (pipeline) {
      pipeline->cycle(w, r.sim->now(), r.sim->now() + sim_config(options).step);
    }
  }
  loop.datagrams_sent = r.feeder->datagrams_sent + r.feed->datagrams_sent();
  loop.peak_rss_mb = peak_rss_mb();

  ReportInputs in;
  in.options = &options;
  const std::vector<service::EfdService::CycleDigest> all = r.efd->digests();
  in.ingest = r.efd->ingest();
  in.unrepaired_at_start = unrepaired_at_start;
  in.pipeline = pipeline.get();
  in.journal_bytes = journal->bytes() - journal_at_start;
  if (!all.empty()) in.digests.assign(all.begin() + 1, all.end());

  // Decision parity with the simulation's own controller.
  if (r.expected.size() != all.size()) {
    report.fail("reference ran " + std::to_string(r.expected.size()) +
                " cycles, daemon " + std::to_string(all.size()));
  }
  for (std::size_t w = 0; w < std::min(all.size(), r.expected.size()); ++w) {
    if (r.expected[w] != all[w].overrides) {
      const std::string why = "cycle " + std::to_string(w) +
                              ": decision differs from the simulation";
      if (w == 0) {
        report.fail(why);
      } else {
        loop.fail_cycle(w - 1, why);
      }
    }
  }
  rig.reset();
  for (int k = 1; k < setups; ++k) {
    Rig extra;
    if (const std::string error = timed_set_up(extra); !error.empty()) {
      report.fail("set-up: " + error);
      break;
    }
  }
  if (pipeline) pipeline->close();
  journal.reset();
  if (io::open_fd_count() != fds_before) {
    report.fail("fd leak: " + std::to_string(fds_before) + " before, " +
                std::to_string(io::open_fd_count()) + " after");
  }

  finish_report(report, loop, in);
  if (spans) report.context["spans"] = write_spans(*spans, options);
  return report;
}

}  // namespace efbench
