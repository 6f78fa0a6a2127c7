// Rate workloads: a synthetic table over PoP 0's real peering next hops,
// fed to efd as one BMP session plus precomputed DemandRate records.
//
//   steady_rate — large table, 1% of rates and 0.1% of prefixes' routes
//                 churn per window, journal on: the paper's steady state,
//                 where per-cycle work should be O(churn).
//   peak_shift  — mid-size table whose demand swings with a diurnal
//                 factor so hot ports cross the threshold back and forth,
//                 journal off: thousands of overrides move every cycle.
#include "workloads.h"

#include <array>
#include <cmath>
#include <memory>
#include <map>
#include <optional>
#include <set>

#include "bmp/collector.h"
#include "bmp/wire.h"
#include "core/controller.h"
#include "io/socket.h"
#include "layers.h"
#include "net/rng.h"
#include "report.h"
#include "topology/pop.h"
#include "topology/world.h"

namespace efbench {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr std::size_t kRoutesPerPrefix = 3;
const net::SimTime kPeriod = net::SimTime::seconds(30);

struct RateParams {
  std::size_t prefixes = 0;
  double demand_churn = 0.01;  // fraction of rates rewritten per window
  double route_churn = 0.001;  // fraction of prefixes re-announced
  bool diurnal = false;        // every rate follows a swinging factor
  double elephant_frac = 0.01;
  int hot_every = 3;           // every k-th interface is calibrated hot
  double hot_util = 0.99;      // hot ports' natural utilization
  double cold_util = 0.50;
  bool journal = true;
};

RateParams params_for(const Options& options) {
  RateParams p;
  if (options.workload == "steady_rate") {
    p.prefixes = options.smoke ? 3000 : 100000;
  } else {
    p.prefixes = options.smoke ? 2000 : 50000;
    p.demand_churn = 1.0;
    p.route_churn = 0.0;
    p.diurnal = true;
    p.elephant_frac = 0.0;
    p.hot_every = 2;
    p.hot_util = 0.93;
    p.journal = false;
  }
  return p;
}

topology::WorldConfig world_config() {
  // The PoP's structure (peerings, interfaces, next hops) is fixed; the
  // seed drives the synthetic table and its churn.
  topology::WorldConfig config;
  config.seed = 42;
  config.num_pops = 1;
  return config;
}

core::ControllerConfig controller_config() {
  core::ControllerConfig config;
  config.cycle_period = kPeriod;
  config.incremental = true;
  return config;
}

/// The synthetic table, its rates and its per-window churn: pure
/// functions of (seed, window).
class RateInputs {
 public:
  RateInputs(const RateParams& params, std::uint64_t seed,
             const topology::Pop& pop)
      : params_(params) {
    const auto& peerings = pop.def().peerings;
    for (std::size_t i = 0; i < peerings.size(); ++i) {
      bgp::Route probe;
      probe.attrs.next_hop = pop.peering_address(i);
      const auto egress = pop.egress_of_route(probe);
      peers_.push_back(Peer{pop.peering_address(i), peerings[i].as,
                            peerings[i].type, static_cast<std::uint32_t>(i + 1),
                            egress ? egress->interface.value() : 0});
    }
    net::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    routes_.resize(params.prefixes);
    base_.resize(params.prefixes);
    phase_.resize(params.prefixes);
    for (std::size_t p = 0; p < params.prefixes; ++p) {
      // Three distinct peerings per prefix.
      std::array<std::uint16_t, kRoutesPerPrefix> pick{};
      for (std::size_t r = 0; r < kRoutesPerPrefix; ++r) {
        for (;;) {
          const auto c = static_cast<std::uint16_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(peers_.size()) - 1));
          bool dup = false;
          for (std::size_t q = 0; q < r; ++q) dup = dup || pick[q] == c;
          if (!dup) {
            pick[r] = c;
            break;
          }
        }
      }
      routes_[p] = pick;
      // The phase follows the interface of the prefix's BGP-best route.
      std::size_t best = 0;
      for (std::size_t r = 1; r < kRoutesPerPrefix; ++r) {
        if (local_pref(peers_[pick[r]].type, r) >
            local_pref(peers_[pick[best]].type, best)) {
          best = r;
        }
      }
      phase_[p] = peers_[pick[best]].interface;
      const double elephant = rng.bernoulli(params.elephant_frac) ? 40.0 : 1.0;
      base_[p] = rng.uniform(5.0, 50.0) * elephant;
    }
    // Phases by rank among the loaded interfaces (the order calibrate()
    // picks hot ports in), so the hot ports get distinct phases and every
    // window has as many of them past the threshold as any other.
    const std::set<std::uint32_t> loaded(phase_.begin(), phase_.end());
    std::map<std::uint32_t, std::uint32_t> phase_of;
    for (const std::uint32_t id : loaded) {
      const auto rank = static_cast<std::uint32_t>(phase_of.size());
      phase_of[id] = rank / static_cast<std::uint32_t>(params.hot_every);
    }
    for (std::uint32_t& phase : phase_) phase = phase_of[phase];
    churn_stride_ = 1 + static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(params.prefixes) - 1));
  }

  static net::Prefix prefix(std::size_t p) {
    return net::Prefix(
        net::IpAddr::v4(0x64000000u + (static_cast<std::uint32_t>(p) << 8)),
        24);
  }

  /// Initiation + one PeerUp per peering + every route, in chunks of at
  /// most `chunk_prefixes` prefixes.
  std::vector<std::vector<std::uint8_t>> table_chunks(
      std::size_t chunk_prefixes) const {
    std::vector<std::vector<std::uint8_t>> chunks(1);
    bmp::InitiationMsg init;
    init.sys_name = "bench-router-0";
    init.sys_descr = "efd cycle benchmark";
    append(chunks.back(), init);
    for (const Peer& peer : peers_) {
      bmp::PeerUpMsg up;
      up.peer = header(peer);
      up.local_addr = net::IpAddr::v4(0x0a0000feu);
      up.information.push_back(std::string("peer-type=") +
                               bgp::peer_type_name(peer.type));
      append(chunks.back(), up);
    }
    for (std::size_t p = 0; p < params_.prefixes; ++p) {
      if (p % chunk_prefixes == 0 && p > 0) chunks.emplace_back();
      append_prefix(chunks.back(), p, 0);
    }
    return chunks;
  }

  /// Window `w`'s route churn: every route of route_churn of the
  /// prefixes re-announced with a new MED.
  std::vector<std::uint8_t> churn(std::uint64_t w) const {
    std::vector<std::uint8_t> out;
    const std::size_t n = count(params_.route_churn);
    for (std::size_t k = 0; k < n; ++k) {
      append_prefix(out, pick(w, k), static_cast<std::uint32_t>(w));
    }
    return out;
  }

  /// Window `w`'s demand records (window 0 = the full table).
  std::vector<telemetry::wire::SflowRecord> demand(std::uint64_t w) const {
    std::vector<telemetry::wire::SflowRecord> out;
    if (w == 0 || params_.demand_churn >= 1.0) {
      out.reserve(params_.prefixes);
      for (std::size_t p = 0; p < params_.prefixes; ++p) {
        out.emplace_back(telemetry::wire::DemandRate{prefix(p), rate(p, w)});
      }
      return out;
    }
    const std::size_t n = count(params_.demand_churn);
    const std::size_t start =
        (static_cast<std::size_t>(w) * n) % params_.prefixes;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t p = (start + k) % params_.prefixes;
      out.emplace_back(telemetry::wire::DemandRate{prefix(p), rate(p, w)});
    }
    return out;
  }

  /// The diurnal factor of prefix `p` in window `w` (1 for steady
  /// workloads). Each egress interface swings with its own phase over a
  /// six-window period, so every window some hot ports rise past the
  /// threshold while others fall back below it.
  double factor(std::size_t p, std::uint64_t w) const {
    if (!params_.diurnal) return 1.0;
    const double phase = 2.0 * kPi * static_cast<double>(phase_[p] % 6) / 6.0;
    return 1.0 +
           0.2 * std::sin(2.0 * kPi * static_cast<double>(w) / 6.0 + phase);
  }

  /// Calibrates capacities against the natural (pre-detour) load of the
  /// unscaled demand: every hot_every-th loaded interface sits at
  /// hot_util, the rest at cold_util.
  telemetry::InterfaceRegistry calibrate(const topology::Pop& pop) const {
    bmp::BmpCollector collector;
    for (const auto& chunk : table_chunks(8192)) collector.receive(1, chunk);
    telemetry::DemandMatrix demand;
    for (std::size_t p = 0; p < params_.prefixes; ++p) {
      demand.set(prefix(p), net::Bandwidth::mbps(base_[p]));
    }
    telemetry::InterfaceRegistry provisional;
    pop.interfaces().for_each(
        [&](telemetry::InterfaceId id, const telemetry::InterfaceState&) {
          provisional.add(id, net::Bandwidth::gbps(1e6));
        });
    core::Allocator allocator{core::AllocatorConfig{}};
    core::Allocator::Workspace workspace;
    const core::EgressResolver resolver =
        [&pop](const bgp::Route& route) -> std::optional<core::EgressView> {
      const auto egress = pop.egress_of_route(route);
      if (!egress) return std::nullopt;
      return core::EgressView{egress->interface, egress->type,
                              route.attrs.next_hop};
    };
    const auto natural = allocator.allocate(collector.rib(), demand,
                                            provisional, resolver, workspace);
    telemetry::InterfaceRegistry calibrated;
    int loaded = 0;
    pop.interfaces().for_each(
        [&](telemetry::InterfaceId id, const telemetry::InterfaceState& state) {
          const auto it = natural.projected_load.find(id);
          if (it == natural.projected_load.end() ||
              !(it->second > net::Bandwidth::zero())) {
            calibrated.add(id, state.capacity);
            return;
          }
          const bool hot = loaded++ % params_.hot_every == 0;
          calibrated.add(id, it->second * (1.0 / (hot ? params_.hot_util
                                                       : params_.cold_util)));
        });
    return calibrated;
  }

 private:
  struct Peer {
    net::IpAddr address;
    bgp::AsNumber as;
    bgp::PeerType type;
    std::uint32_t bgp_id;
    std::uint32_t interface;  // egress interface id of its next hop
  };

  static void append(std::vector<std::uint8_t>& out,
                     const bmp::BmpMessage& msg) {
    const std::vector<std::uint8_t> bytes = bmp::encode(msg);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }

  static bmp::PerPeerHeader header(const Peer& peer) {
    bmp::PerPeerHeader h;
    h.peer_addr = peer.address;
    h.peer_as = peer.as.value();
    h.peer_bgp_id = peer.bgp_id;
    h.timestamp = net::SimTime::seconds(1);
    return h;
  }

  static std::uint32_t local_pref(bgp::PeerType type, std::size_t rank) {
    std::uint32_t base = 150;
    switch (type) {
      case bgp::PeerType::kPrivatePeer: base = 300; break;
      case bgp::PeerType::kPublicPeer: base = 250; break;
      case bgp::PeerType::kRouteServer: base = 240; break;
      default: break;
    }
    return base - static_cast<std::uint32_t>(rank);
  }

  void append_prefix(std::vector<std::uint8_t>& out, std::size_t p,
                     std::uint32_t med) const {
    for (std::size_t r = 0; r < kRoutesPerPrefix; ++r) {
      const Peer& peer = peers_[routes_[p][r]];
      bmp::RouteMonitoringMsg msg;
      msg.peer = header(peer);
      auto& attrs = msg.update.attrs;
      attrs.as_path = bgp::AsPath{
          peer.as, bgp::AsNumber(30000 + static_cast<std::uint32_t>(p % 997))};
      attrs.next_hop = peer.address;
      attrs.local_pref = bgp::LocalPref(local_pref(peer.type, r));
      attrs.has_local_pref = true;
      attrs.med = bgp::Med(med);
      attrs.has_med = med != 0;
      msg.update.nlri.push_back(prefix(p));
      append(out, msg);
    }
  }

  std::size_t count(double frac) const {
    if (frac <= 0) return 0;
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(frac * static_cast<double>(params_.prefixes)));
  }

  std::size_t pick(std::uint64_t w, std::size_t k) const {
    return (static_cast<std::size_t>(w) * 7919 + k * churn_stride_) %
           params_.prefixes;
  }

  net::Bandwidth rate(std::size_t p, std::uint64_t w) const {
    // Steady churn nudges the rewritten rates by a factor that is never
    // 1, so every record is a genuine change.
    const double nudge =
        params_.diurnal || w == 0
            ? 1.0
            : 1.0 + 0.001 * static_cast<double>(1 + w % 7);
    return net::Bandwidth::mbps(base_[p] * factor(p, w) * nudge);
  }

  RateParams params_;
  std::vector<Peer> peers_;
  std::vector<std::array<std::uint16_t, kRoutesPerPrefix>> routes_;
  std::vector<double> base_;
  std::vector<std::uint32_t> phase_;
  std::size_t churn_stride_ = 1;
};

net::SimTime window_now(std::uint64_t w) {
  return net::SimTime::seconds(30 * static_cast<std::int64_t>(w + 1));
}

/// One stood-up system: PoP, prd, efd and the feeder's sockets.
struct Rig {
  std::unique_ptr<topology::World> world;
  std::unique_ptr<topology::Pop> pop;
  std::unique_ptr<service::PeeringRouterService> prd;
  std::unique_ptr<service::EfdService> efd;
  io::Fd bmp;
  io::Fd sflow;
  std::uint64_t bmp_sent = 0;
  std::uint64_t datagrams_sent = 0;

  ~Rig() {
    bmp = io::Fd();
    sflow = io::Fd();
    if (efd) efd->stop();
    if (prd) prd->stop();
    efd.reset();
    prd.reset();
  }
};

/// Sends one window's demand records: encoded up front (untimed), then
/// sent back to back with the bounded acknowledgement window, so the
/// timed part is send + daemon absorption only. Returns false on a
/// barrier timeout.
bool feed_demand(Rig& rig,
                 const std::vector<telemetry::wire::SflowRecord>& records,
                 LoopLog* loop, LayerPipeline* pipeline, std::uint64_t cycle) {
  const auto datagrams = encode_records(records);
  const auto t0 = Clock::now();
  const bool ok = send_datagrams(*rig.efd, rig.sflow.get(),
                                 rig.efd->sflow_port(), datagrams,
                                 rig.datagrams_sent);
  const auto t1 = Clock::now();
  if (!ok) return false;
  if (loop) {
    loop->add_feed(records.size(), ms_between(t0, t1));
  }
  if (pipeline) pipeline->datagrams(cycle, datagrams);
  return true;
}

bool send_marker(Rig& rig, std::uint64_t w) {
  const auto marker = encode_marker(window_now(w) + kPeriod, window_now(w));
  if (!io::UdpSocket::send_to(rig.sflow.get(), rig.efd->sflow_port(), marker)) {
    return false;
  }
  ++rig.datagrams_sent;
  return true;
}

/// Stands the system up and runs window 0 (full table, full demand) to
/// its first enforced decision. Empty string on success.
std::string set_up(Rig& rig, const RateParams& params,
                   const telemetry::InterfaceRegistry& capacities,
                   const std::vector<std::vector<std::uint8_t>>& table,
                   const RateInputs& inputs, const RunDir& dir) {
  rig.world = std::make_unique<topology::World>(
      topology::World::generate(world_config()));
  rig.pop = std::make_unique<topology::Pop>(*rig.world, 0);
  rig.pop->interfaces() = capacities;

  {
    const DaemonCpus daemon_cpus;
    rig.prd = std::make_unique<service::PeeringRouterService>(
        prd_config(rig.world->config().local_as));
    rig.prd->start();
    rig.efd = std::make_unique<service::EfdService>(
        *rig.pop,
        robust_efd_config(controller_config(), rig.prd->bgp_port(), *rig.prd,
                          params.journal ? dir.file("efd.efj") : "",
                          dir.file("efd.efc")));
    rig.efd->start();
  }
  if (!rig.efd->wait_until(
          [](const service::EfdService::IngestSnapshot& snap) {
            return snap.bgp_sessions_established == 1;
          },
          kBarrier)) {
    return "announcer session never established";
  }
  rig.bmp = io::connect_tcp(rig.efd->bmp_port());
  rig.sflow = io::connect_udp(rig.efd->sflow_port());
  if (!rig.bmp.valid() || !rig.sflow.valid()) return "feeder connect failed";
  for (const auto& chunk : table) {
    if (!io::send_all(rig.bmp.get(), chunk)) return "BMP table send failed";
    rig.bmp_sent += chunk.size();
  }
  if (!wait_bmp_bytes(*rig.efd, rig.bmp_sent)) {
    return "BMP table barrier timed out";
  }
  if (!feed_demand(rig, inputs.demand(0), nullptr, nullptr, 0)) {
    return "demand barrier timed out";
  }
  if (!send_marker(rig, 0)) return "marker send failed";
  const CycleWait wait = await_cycle(*rig.efd, *rig.prd, 1);
  if (!wait.ok) return "set-up cycle: " + wait.error;
  return {};
}

}  // namespace

RunReport run_rate_workload(const Options& options) {
  RunReport report;
  const RateParams params = params_for(options);
  RunDir dir(options.workload + "-" + std::to_string(options.seed));
  const std::size_t fds_before = io::open_fd_count();
  report.context["workload"] = options.workload;
  report.context["scale"] = std::to_string(params.prefixes) + " prefixes x " +
                            std::to_string(kRoutesPerPrefix) + " routes";
  report.context["journal"] = params.journal ? "on" : "off";
  std::optional<JournalDrain> journal;
  if (params.journal) {
    journal.emplace(dir.file("efd.efj"));
    if (!journal->ok()) {
      report.fail("cannot create the journal FIFO");
      report.attempted = 1;
      report.failed = 1;
      return report;
    }
  }

  // Inputs (untimed): the table, its rates and the capacity calibration.
  std::optional<RateInputs> inputs;
  telemetry::InterfaceRegistry capacities;
  {
    const topology::World world = topology::World::generate(world_config());
    const topology::Pop pop(world, 0);
    inputs.emplace(params, options.seed, pop);
    capacities = inputs->calibrate(pop);
  }
  auto table = inputs->table_chunks(2048);

  LoopLog loop;
  // Set-up runs `setups` times. The first system stays up for the
  // measured loop, so the memory high-water mark is the loop's in a fresh
  // process; the others run after the loop and only time set-up.
  const int setups = options.smoke ? 2 : 5;
  const auto timed_set_up = [&](Rig& rig) {
    std::remove(dir.file("efd.efc").c_str());
    const auto t0 = Clock::now();
    const std::string error =
        set_up(rig, params, capacities, table, *inputs, dir);
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

  std::optional<SpanLog> spans;
  std::unique_ptr<LayerPipeline> pipeline;
  if (options.trace) {
    spans.emplace(Clock::now());
    LayerPipeline::Config config;
    config.pop = rig->pop.get();
    config.controller = controller_config();
    config.own_collector = true;
    config.journal = params.journal;
    config.dir = dir.path();
    pipeline = std::make_unique<LayerPipeline>(config, *spans);
    for (const auto& chunk : table) pipeline->table_load(chunk);
    pipeline->datagrams(0, encode_records(inputs->demand(0)));
    pipeline->cycle(0, window_now(0), window_now(0) + kPeriod);
  }
  Rig& r = *rig;
  const std::uint64_t unrepaired_at_start = r.efd->ingest().audit_unrepaired;
  const std::uint64_t journal_at_start = journal ? journal->bytes() : 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  const std::uint64_t max_windows = options.smoke ? 4 : 100000;
  for (std::uint64_t w = 1; w <= max_windows && Clock::now() < deadline; ++w) {
    const std::size_t i = loop.cycles();
    loop.start_cycle();
    const std::vector<std::uint8_t> churn = inputs->churn(w);
    const auto records = inputs->demand(w);
    if (pipeline) pipeline->bmp(w, churn);

    const auto b0 = Clock::now();
    if (!churn.empty()) {
      if (!io::send_all(r.bmp.get(), churn)) {
        loop.fail_cycle(i, "BMP churn send failed");
        break;
      }
      r.bmp_sent += churn.size();
      if (!wait_bmp_bytes(*r.efd, r.bmp_sent)) {
        loop.fail_cycle(i, "BMP churn barrier timed out");
        break;
      }
    }
    loop.bmp_ms.push_back(ms_between(b0, Clock::now()));
    if (!feed_demand(r, records, &loop, pipeline.get(), w)) {
      loop.fail_cycle(i, "demand barrier timed out");
      break;
    }
    if (pipeline) pipeline->read_back(w, *r.prd);

    const auto before = r.efd->ingest();
    const auto t_marker = Clock::now();
    if (!send_marker(r, w)) {
      loop.fail_cycle(i, "marker send failed");
      break;
    }
    const CycleWait wait = await_cycle(*r.efd, *r.prd, w + 1);
    if (!wait.ok) {
      loop.cycle_ms.push_back(static_cast<double>(kBarrier.count()));
      loop.fail_cycle(i, "cycle " + std::to_string(w) + ": " + wait.error);
      break;
    }
    loop.cycle_ms.push_back(ms_between(t_marker, wait.drained));
    loop.prd_apply_ms.push_back(ms_between(wait.cycle_done, wait.drained));
    const auto after = r.efd->ingest();
    loop.updates.push_back(
        static_cast<double>(after.bgp_updates_sent - before.bgp_updates_sent));
    loop.withdraws.push_back(
        static_cast<double>(after.bgp_withdraw_msgs - before.bgp_withdraw_msgs));
    loop.held.push_back(held_fingerprint(
        r.prd->routes(), controller_config().override_local_pref));
    if (pipeline) pipeline->cycle(w, window_now(w), window_now(w) + kPeriod);
  }
  loop.datagrams_sent = r.datagrams_sent;
  loop.peak_rss_mb = peak_rss_mb();

  ReportInputs in;
  in.options = &options;
  std::vector<service::EfdService::CycleDigest> all = r.efd->digests();
  in.ingest = r.efd->ingest();
  in.unrepaired_at_start = unrepaired_at_start;
  in.pipeline = pipeline.get();
  in.journal_bytes = (journal ? journal->bytes() : 0) - journal_at_start;
  if (!all.empty()) in.digests.assign(all.begin() + 1, all.end());

  rig.reset();
  for (int k = 1; k < setups; ++k) {
    Rig extra;
    if (const std::string error = timed_set_up(extra); !error.empty()) {
      report.fail("set-up: " + error);
      break;
    }
  }

  // Decision parity against an in-process reference: a lockstep replay
  // of the same inputs through core::Controller with the delta engine
  // off (after timing; the daemons are down).
  {
    const topology::World world = topology::World::generate(world_config());
    topology::Pop pop(world, 0);
    pop.interfaces() = capacities;
    bmp::BmpCollector collector;
    for (const auto& chunk : table) collector.receive(1, chunk);
    core::ControllerConfig config = controller_config();
    config.incremental = false;
    config.enforcement = core::Enforcement::kShadow;
    core::Controller reference(pop, config);
    reference.set_rib_source(&collector.rib());
    telemetry::DemandMatrix demand;
    for (std::uint64_t w = 0; w < all.size(); ++w) {
      if (w > 0) collector.receive(1, inputs->churn(w));
      for (const auto& record : inputs->demand(w)) {
        const auto& rate = std::get<telemetry::wire::DemandRate>(record);
        demand.set(rate.prefix, rate.rate);
      }
      reference.run_cycle(demand, window_now(w));
      std::vector<core::Override> expected;
      for (const auto& [prefix, entry] : reference.active_overrides()) {
        expected.push_back(entry);
      }
      if (expected != all[w].overrides) {
        const std::string why = "cycle " + std::to_string(w) +
                                ": decision differs from the reference";
        if (w == 0) {
          report.fail(why);
        } else {
          loop.fail_cycle(w - 1, why);
        }
      }
      if (pipeline && w < pipeline->decisions().size() &&
          pipeline->decisions()[w] != all[w].overrides) {
        report.fail("cycle " + std::to_string(w) +
                    ": traced pipeline decided differently");
      }
    }
  }
  if (pipeline) pipeline->close();
  journal.reset();
  if (io::open_fd_count() != fds_before) {
    report.fail("fd leak: " + std::to_string(fds_before) + " before, " +
                std::to_string(io::open_fd_count()) + " after");
  }

  finish_report(report, loop, in);
  if (spans) {
    const std::string path = write_spans(*spans, options);
    report.context["spans"] = path;
  }
  return report;
}

}  // namespace efbench
