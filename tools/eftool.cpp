// eftool — operator CLI for the edgefabric library.
//
//   eftool world      [--clients N] [--pops N] [--seed S]
//   eftool interfaces --pop K
//   eftool rib        --pop K [--prefix P] [--limit N]
//   eftool cycle      --pop K [--hour H] [--split]
//   eftool run        --pop K [--hours H] [--no-controller] [--flaps R]
//   eftool fleet      [--hours H] [--no-controller] [--threads N]
//   eftool mrt        --pop K --out FILE
//   eftool record     --pop K [--hours H] [--sflow] [--flaps R] --out FILE
//   eftool record     --fleet [--hours H] [--threads N] --out FILE
//   eftool replay     FILE [--verbose]
//   eftool whatif     FILE --drain I | --scale-demand F | ... [--cycle N]
//   eftool serve      [--pop K] [--bmp P] [--sflow P] [--http P] [...]
//   eftool pr         [--port P] [--as N] [--hold-secs S] [...]
//   eftool announce   --ports P1[,P2...] [--count N] [--linger-secs S] [...]
//   eftool feed       FILE --bmp P [--sflow P] [--http P] [--limit N]
//   eftool chaos      [--steps N] [--fault-seed S] [--drop R] [...]
//
// Everything is generated/deterministic: the same flags print the same
// bytes, which makes eftool output diff-able in change reviews. That
// includes --threads: per-PoP work runs on a pool, but observers fire in
// PoP-index order after a per-step barrier, so any thread count prints
// the same bytes and journals (docs/PARALLELISM.md). See
// docs/OPERATIONS.md for the full operator handbook.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/metrics.h"
#include "audit/cycle_journal.h"
#include "audit/event.h"
#include "audit/journal.h"
#include "audit/replay.h"
#include "audit/snapshot.h"
#include "bgp/mrt.h"
#include "bmp/wire.h"
#include "core/controller.h"
#include "dataplane/dataplane.h"
#include "flags.h"
#include "io/backoff.h"
#include "io/fault.h"
#include "io/socket.h"
#include "service/efd.h"
#include "service/prd.h"
#include "sim/fleet.h"
#include "sim/live_feed.h"
#include "sim/simulation.h"
#include "telemetry/sflow_wire.h"
#include "workload/demand.h"

namespace {

using namespace ef;

int usage();

struct Args : tools::FlagMap {
  Args() : FlagMap("eftool") {}
  std::string command;
  std::vector<std::string> positionals;  // non-flag operands (e.g. FILE)

  /// True (after naming each one) when a flag was given that the command
  /// never read. Every command checks this once it has read all of its
  /// flags and before it does any work, and then exits 2 with usage.
  bool unread_flags() const {
    return !all_read(("eftool " + command).c_str());
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      args.positionals.push_back(argv[i]);
      continue;
    }
    i = args.parse(argc, argv, i);
  }
  return args;
}

/// Strict numeric option: a finite, non-negative double, or exit 2.
/// std::stod happily parses "nan" and "inf", and a negative threshold
/// would silently arm a nonsense failsafe — all three die loudly here.
double nonneg_real(const Args& args, const std::string& key,
                   double fallback) {
  const double value = args.real(key, fallback);
  if (value < 0.0) args.bad_value(key);
  return value;
}

/// Strict probability/fraction option: finite, within [0, 1], or exit 2.
double unit_real(const Args& args, const std::string& key, double fallback) {
  const double value = nonneg_real(args, key, fallback);
  if (value > 1.0) args.bad_value(key);
  return value;
}

/// Shared failsafe/journal flags for `serve` and `chaos`. Thresholds are
/// validated even when the ladder stays off: a typo'd --hold-ttl should
/// fail the invocation, not arm a broken daemon later. Any threshold
/// flag implies --failsafe.
void apply_failsafe_flags(const Args& args, service::EfdConfig& config) {
  config.failsafe.enabled =
      config.failsafe.enabled || args.flag("failsafe") ||
      args.has("max-demand-age") || args.has("hold-ttl") ||
      args.has("max-churn-frac");
  config.failsafe.max_demand_age =
      net::SimTime::seconds(nonneg_real(args, "max-demand-age", 90));
  config.failsafe.hold_ttl =
      net::SimTime::seconds(nonneg_real(args, "hold-ttl", 120));
  config.controller.max_churn_frac = unit_real(args, "max-churn-frac", 0.0);
  config.journal_path = args.get("journal", "");
}

/// Shared dataplane flags for `run`, `record`, and `serve`. Knobs are
/// validated even while --dataplane is absent (a typo'd --dp-queue-ms
/// should fail the invocation), matching the failsafe-flag convention.
///   --dataplane          enable flow-level dataplane emulation
///   --dp-queue-ms MS     queue depth in ms of line-rate buffering (>= 0)
///   --dp-slots N         ECMP member-link slots per interface (>= 1)
///   --dp-wcmp N          egress candidates per prefix (>= 1; 1 = off)
///   --dp-elephant-frac F elephant fraction of the flow mix ([0, 1])
void apply_dataplane_flags(const Args& args,
                           dataplane::DataplaneConfig& config,
                           std::uint64_t seed) {
  config.enabled = args.flag("dataplane");
  config.seed = seed;
  config.queue_depth_ms = nonneg_real(args, "dp-queue-ms", 50.0);
  const long slots = args.num("dp-slots", 16);
  if (slots < 1 || slots > 4096) args.bad_value("dp-slots");
  config.ecmp_slots = static_cast<std::uint32_t>(slots);
  const long wcmp = args.num("dp-wcmp", 1);
  if (wcmp < 1 || wcmp > 64) args.bad_value("dp-wcmp");
  config.wcmp_paths = static_cast<std::uint32_t>(wcmp);
  config.flows.elephant_fraction = unit_real(args, "dp-elephant-frac", 0.08);
}

/// Shared enforcement-audit / warm-restart flags for `serve` and
/// `chaos`. Knobs are validated even while --audit is absent (a typo'd
/// --audit-interval should fail the invocation), matching the --dp-*
/// convention; either interval/budget knob implies --audit.
///   --audit               closed-loop enforcement audit each cycle
///   --audit-interval N    audit every Nth guarded cycle (>= 1)
///   --audit-max-repairs N per-pass remediation budget (>= 0)
///   --recovery-file FILE  persist a recovery snapshot each healthy cycle
///   --recover             resume from FILE in hold-last-good on startup
void apply_audit_flags(const Args& args, service::EfdConfig& config) {
  config.audit.enabled = config.audit.enabled || args.flag("audit") ||
                         args.has("audit-interval") ||
                         args.has("audit-max-repairs");
  const long interval = args.num("audit-interval", 1);
  if (interval < 1) args.bad_value("audit-interval");
  config.audit.interval_cycles = static_cast<std::uint32_t>(interval);
  const long repairs = args.num("audit-max-repairs", 64);
  if (repairs < 0) args.bad_value("audit-max-repairs");
  config.audit.max_repairs = static_cast<std::uint64_t>(repairs);
  config.recovery_path = args.get("recovery-file", "");
  config.recover = args.flag("recover");
  if (config.recover && config.recovery_path.empty()) {
    std::fprintf(stderr,
                 "eftool: --recover requires --recovery-file FILE\n");
    std::exit(2);
  }
}

/// Parses --bgp-faults drop=R,dup=R,swallow=R,flap=N into announcer
/// fault config: seeded drop/duplicate/swallow-withdraw rates on the
/// BGP UPDATE stream, plus an optional scripted session flap at UPDATE
/// index N. Strict like every flag here: unknown keys, malformed
/// numbers, or out-of-range rates exit 2 — validated whenever the flag
/// appears, whether or not an announcer ends up configured.
void apply_bgp_fault_flags(const Args& args, service::EfdConfig& config,
                           std::uint64_t seed) {
  if (!args.has("bgp-faults")) return;
  const std::string spec = args.get("bgp-faults", "");
  io::FaultConfig faults;
  faults.seed = seed;
  std::vector<io::ScriptedFault> script;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) args.bad_value("bgp-faults");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "flap") {
      long index = 0;
      try {
        std::size_t consumed = 0;
        index = std::stol(value, &consumed);
        if (consumed != value.size()) args.bad_value("bgp-faults");
      } catch (const std::exception&) {
        args.bad_value("bgp-faults");
      }
      if (index < 0) args.bad_value("bgp-faults");
      script.push_back({static_cast<std::uint64_t>(index),
                        io::FaultKind::kDisconnect});
      continue;
    }
    double rate = 0.0;
    try {
      std::size_t consumed = 0;
      rate = std::stod(value, &consumed);
      if (consumed != value.size()) args.bad_value("bgp-faults");
    } catch (const std::exception&) {
      args.bad_value("bgp-faults");
    }
    if (!std::isfinite(rate) || rate < 0.0 || rate > 1.0) {
      args.bad_value("bgp-faults");
    }
    if (key == "drop") {
      faults.drop = rate;
    } else if (key == "dup") {
      faults.duplicate = rate;
    } else if (key == "swallow") {
      faults.swallow_withdraw = rate;
    } else {
      args.bad_value("bgp-faults");
    }
  }
  config.announce_faults = faults;
  config.announce_fault_script = std::move(script);
}

/// Parses --threads into RunOptions (0 = auto, 1 = serial); rejects
/// negatives.
sim::RunOptions run_options(const Args& args) {
  const long threads = args.num("threads", 0);
  if (threads < 0) args.bad_value("threads");
  sim::RunOptions options;
  options.threads = static_cast<unsigned>(threads);
  return options;
}

/// The generated world's flags (--clients, --pops, --seed).
topology::WorldConfig world_flags(const Args& args) {
  topology::WorldConfig config;
  config.num_clients = static_cast<int>(args.num("clients", 56));
  config.num_pops = static_cast<int>(args.num("pops", 4));
  config.seed = static_cast<std::uint64_t>(args.num("seed", 42));
  return config;
}

std::size_t pop_flag(const Args& args) {
  return static_cast<std::size_t>(args.num("pop", 0));
}

int cmd_world(const Args& args) {
  const topology::WorldConfig world_config = world_flags(args);
  if (args.unread_flags()) return usage();
  const topology::World world = topology::World::generate(world_config);
  std::printf("world: %zu clients, %zu PoPs (seed %llu)\n\n",
              world.clients().size(), world.pops().size(),
              static_cast<unsigned long long>(world.config().seed));
  analysis::TablePrinter clients({"client", "weight", "prefixes", "rtt-base"},
                                 {10, 10, 10, 10});
  clients.print_header();
  for (std::size_t c = 0; c < std::min<std::size_t>(10, world.clients().size());
       ++c) {
    const topology::ClientAs& client = world.clients()[c];
    clients.print_row({"AS" + std::to_string(client.as.value()),
                       analysis::TablePrinter::pct(client.weight, 1),
                       std::to_string(client.prefixes.size()),
                       analysis::TablePrinter::fmt(client.base_rtt_ms, 0) +
                           " ms"});
  }
  std::printf("  (top 10 of %zu clients by traffic share)\n\n",
              world.clients().size());
  for (const topology::PopDef& pop : world.pops()) {
    net::Bandwidth total;
    for (const auto& iface : pop.interfaces) total += iface.capacity;
    std::printf("  %-8s %2zu peerings, %2zu interfaces, %s egress capacity\n",
                pop.name.c_str(), pop.peerings.size(), pop.interfaces.size(),
                total.to_string().c_str());
  }
  return 0;
}

int cmd_interfaces(const Args& args) {
  const topology::WorldConfig world_config = world_flags(args);
  const std::size_t p = pop_flag(args);
  if (args.unread_flags()) return usage();
  const topology::World world = topology::World::generate(world_config);
  topology::Pop pop(world, p);
  analysis::TablePrinter table({"id", "name", "role", "capacity", "drained"},
                               {6, 18, 14, 12, 8});
  table.print_header();
  for (std::size_t i = 0; i < pop.def().interfaces.size(); ++i) {
    const topology::InterfaceDef& iface = pop.def().interfaces[i];
    table.print_row({std::to_string(i), iface.name,
                     bgp::peer_type_name(iface.role),
                     iface.capacity.to_string(),
                     pop.interfaces().drained(telemetry::InterfaceId(
                         static_cast<std::uint32_t>(i)))
                         ? "yes"
                         : "no"});
  }
  return 0;
}

int cmd_rib(const Args& args) {
  const topology::WorldConfig world_config = world_flags(args);
  const std::size_t p = pop_flag(args);
  const std::string* prefix_flag = args.find("prefix");
  const long limit = args.num("limit", 20);
  if (args.unread_flags()) return usage();
  const topology::World world = topology::World::generate(world_config);
  topology::Pop pop(world, p);

  if (prefix_flag != nullptr) {
    const auto prefix = net::Prefix::parse(*prefix_flag);
    if (!prefix) {
      std::fprintf(stderr, "bad prefix\n");
      return 2;
    }
    const auto ranked = pop.ranked_routes(*prefix);
    if (ranked.empty()) {
      std::printf("%s: no routes\n", prefix->to_string().c_str());
      return 0;
    }
    std::printf("%s: %zu route(s), best first\n", prefix->to_string().c_str(),
                ranked.size());
    for (const bgp::Route* route : ranked) {
      std::printf("  %s\n", route->to_string().c_str());
    }
    return 0;
  }

  std::printf("%zu prefixes, %zu routes total; first %ld best routes:\n",
              pop.collector().rib().prefix_count(),
              pop.collector().rib().route_count(), limit);
  long shown = 0;
  for (const net::Prefix& prefix : pop.reachable_prefixes()) {
    if (shown++ >= limit) break;
    const bgp::Route* best = pop.collector().rib().best(prefix);
    std::printf("  %s\n", best->to_string().c_str());
  }
  return 0;
}

int cmd_cycle(const Args& args) {
  const topology::WorldConfig world_config = world_flags(args);
  const std::size_t p = pop_flag(args);
  core::ControllerConfig config;
  config.allocator.allow_prefix_splitting = args.flag("split");
  const double hour = args.real("hour", 0);
  if (args.unread_flags()) return usage();
  const topology::World world = topology::World::generate(world_config);
  topology::Pop pop(world, p);

  core::Controller controller(pop, config);
  controller.connect();

  workload::DemandGenerator gen(world, p, {});
  const telemetry::DemandMatrix demand =
      gen.baseline(net::SimTime::hours(hour));

  const core::CycleStats stats =
      controller.run_cycle(demand, net::SimTime::hours(hour));
  std::printf(
      "cycle at t=%gh: demand %s, %zu overloaded interface(s), %zu "
      "override(s), unresolved %s\n",
      hour, demand.total().to_string().c_str(),
      stats.allocation.overloaded_interfaces, stats.overrides_active,
      stats.allocation.unresolved_overload.to_string().c_str());
  for (const auto& [prefix, override_entry] : controller.active_overrides()) {
    std::printf("  %-20s %-9s %s -> %s path=[%s] nh=%s\n",
                prefix.to_string().c_str(),
                override_entry.rate.to_string().c_str(),
                bgp::peer_type_name(override_entry.from_type),
                bgp::peer_type_name(override_entry.target_type),
                override_entry.as_path.to_string().c_str(),
                override_entry.next_hop.to_string().c_str());
  }
  return 0;
}

int cmd_run(const Args& args) {
  const topology::WorldConfig world_config = world_flags(args);
  const std::size_t p = pop_flag(args);
  sim::SimulationConfig config;
  config.duration = net::SimTime::hours(args.real("hours", 24));
  config.step = net::SimTime::seconds(60);
  config.controller_enabled = !args.flag("no-controller");
  config.controller.cycle_period = net::SimTime::seconds(60);
  config.peer_flap_rate_per_hour = args.real("flaps", 0);
  apply_dataplane_flags(args, config.dataplane, world_config.seed);
  if (args.unread_flags()) return usage();
  const topology::World world = topology::World::generate(world_config);
  topology::Pop pop(world, p);

  analysis::UtilizationTracker tracker(pop.interfaces());
  analysis::DetourTracker detours;
  sim::Simulation simulation(pop, config);
  simulation.run([&](const sim::StepRecord& record) {
    tracker.record(record.when, record.load);
    if (record.controller) {
      detours.record_cycle(*record.controller,
                           simulation.controller()->active_overrides(),
                           record.total_demand);
    }
  });

  std::printf("ran %zu steps (%s, %s)\n", tracker.steps(),
              config.controller_enabled ? "Edge Fabric" : "BGP only",
              pop.name().c_str());
  std::printf("  utilization samples: %s\n",
              tracker.utilization_samples().summary().c_str());
  std::printf("  overloaded sample fraction: %s\n",
              analysis::TablePrinter::pct(tracker.overloaded_fraction(1.0), 2)
                  .c_str());
  std::printf("  would-drop traffic fraction: %s\n",
              analysis::TablePrinter::pct(tracker.excess_traffic_fraction(), 3)
                  .c_str());
  std::printf("  overload episodes: %zu\n", tracker.episodes(1.0).size());
  if (config.controller_enabled && detours.cycles() > 0) {
    std::printf("  detoured fraction: %s\n",
                detours.detoured_fraction().summary().c_str());
    std::printf("  overridden prefixes: %zu (%zu flapping)\n",
                detours.total_overridden_prefixes(),
                detours.flapping_prefixes());
  }
  if (const dataplane::Dataplane* dp = simulation.dataplane()) {
    const dataplane::DataplaneTotals& totals = dp->totals();
    const double offered = static_cast<double>(totals.offered_bytes);
    std::printf("  dataplane: %llu flows seen, %llu moved, %llu reorder "
                "events\n",
                static_cast<unsigned long long>(dp->flow_table().flows_seen()),
                static_cast<unsigned long long>(totals.flows_moved),
                static_cast<unsigned long long>(totals.reorder_events));
    std::printf("  measured drop fraction: %s (%llu of %llu bytes)\n",
                analysis::TablePrinter::pct(
                    offered > 0
                        ? static_cast<double>(totals.dropped_bytes) / offered
                        : 0.0,
                    4)
                    .c_str(),
                static_cast<unsigned long long>(totals.dropped_bytes),
                static_cast<unsigned long long>(totals.offered_bytes));
  }
  return 0;
}

int cmd_fleet(const Args& args) {
  const topology::WorldConfig world_config = world_flags(args);
  sim::SimulationConfig config;
  config.duration = net::SimTime::hours(args.real("hours", 24));
  config.step = net::SimTime::seconds(60);
  config.controller_enabled = !args.flag("no-controller");
  config.controller.cycle_period = net::SimTime::seconds(60);
  const sim::RunOptions options = run_options(args);
  if (args.unread_flags()) return usage();
  const topology::World world = topology::World::generate(world_config);

  sim::Fleet fleet(world, config);
  std::vector<net::Bandwidth> overload(fleet.size());
  std::vector<net::Bandwidth> peak(fleet.size());
  std::vector<std::size_t> max_overrides(fleet.size(), 0);
  fleet.run(
      [&](std::size_t p, const sim::StepRecord& record) {
        overload[p] += record.overload;
        peak[p] = std::max(peak[p], record.total_demand);
        if (record.controller) {
          max_overrides[p] =
              std::max(max_overrides[p], record.controller->overrides_active);
        }
      },
      options);

  analysis::TablePrinter table(
      {"pop", "peak-demand", "max-overrides", "overload-sum"}, {8, 13, 14, 14});
  table.print_header();
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    table.print_row({world.pops()[p].name, peak[p].to_string(),
                     std::to_string(max_overrides[p]),
                     overload[p].to_string()});
  }
  return 0;
}

int cmd_mrt(const Args& args) {
  const topology::WorldConfig world_config = world_flags(args);
  const std::size_t p = pop_flag(args);
  const std::string path = args.get("out", "");
  if (args.unread_flags()) return usage();
  if (path.empty()) {
    std::fprintf(stderr, "mrt requires --out FILE\n");
    return 2;
  }
  const topology::World world = topology::World::generate(world_config);
  topology::Pop pop(world, p);

  const bgp::mrt::TableDump dump = bgp::mrt::from_rib(
      pop.collector().rib(),
      [&](bgp::PeerId peer) {
        const auto* info = pop.collector().peer(peer);
        return bgp::mrt::PeerEntry{info->bgp_id, info->address, info->as};
      },
      bgp::RouterId(1), "edgefabric-" + pop.name());
  const auto bytes = bgp::mrt::encode(dump, net::SimTime::seconds(0));

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("wrote %zu bytes: %zu peers, %zu prefixes (TABLE_DUMP_V2)\n",
              bytes.size(), dump.peers.size(), dump.records.size());
  return 0;
}

/// Journal path for one PoP of a fleet recording: `run.efj` -> `run.pop3.efj`
/// (suffix appended when the name has no .efj extension).
std::string pop_journal_path(const std::string& base, std::size_t pop) {
  const std::string ext = ".efj";
  const std::string suffix = ".pop" + std::to_string(pop) + ext;
  if (base.size() >= ext.size() &&
      base.compare(base.size() - ext.size(), ext.size(), ext) == 0) {
    return base.substr(0, base.size() - ext.size()) + suffix;
  }
  return base + suffix;
}

/// `record --fleet`: journal every PoP's controller cycles in one run.
/// Each PoP appends to its own journal file, so worker threads never share
/// a writer: snapshots of one PoP are totally ordered by the per-step
/// barrier, and the resulting files are bitwise-identical for any
/// --threads value.
int cmd_record_fleet(const topology::World& world,
                     const sim::SimulationConfig& config,
                     const sim::RunOptions& options, const std::string& path) {
  sim::Fleet fleet(world, config);
  std::vector<std::unique_ptr<audit::CycleJournal>> writers;
  writers.reserve(fleet.size());
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    auto writer = std::make_unique<audit::CycleJournal>(
        pop_journal_path(path, p), /*include_timing=*/false);
    if (!writer->ok()) {
      std::fprintf(stderr, "cannot open %s\n",
                   pop_journal_path(path, p).c_str());
      return 2;
    }
    fleet.simulation(p).set_cycle_observer(
        [w = writer.get()](const core::Controller::CycleRecord& record) {
          w->append(record);
        });
    writers.push_back(std::move(writer));
  }

  fleet.run([](std::size_t, const sim::StepRecord&) {}, options);

  std::size_t records = 0;
  std::size_t bytes = 0;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    writers[p]->flush();
    if (!writers[p]->ok()) {
      std::fprintf(stderr, "write failed on %s\n",
                   pop_journal_path(path, p).c_str());
      return 2;
    }
    records += writers[p]->records_written();
    bytes += writers[p]->bytes_written();
    std::printf("  %-8s %zu cycle snapshot(s) -> %s\n",
                world.pops()[p].name.c_str(), writers[p]->records_written(),
                pop_journal_path(path, p).c_str());
  }
  std::printf("recorded %zu cycle snapshot(s) (%zu bytes) across %zu PoPs\n",
              records, bytes, fleet.size());
  return 0;
}

int cmd_record(const Args& args) {
  const std::string path = args.get("out", "");
  const topology::WorldConfig world_config = world_flags(args);
  sim::SimulationConfig config;
  config.duration = net::SimTime::hours(args.real("hours", 24));
  config.step = net::SimTime::seconds(60);
  config.controller.cycle_period = net::SimTime::seconds(60);
  config.use_sflow_estimate = args.flag("sflow");
  config.peer_flap_rate_per_hour = args.real("flaps", 0);
  apply_dataplane_flags(args, config.dataplane, world_config.seed);
  // --pop selects the single PoP; --threads sizes the --fleet pool.
  const bool fleet = args.flag("fleet");
  const std::size_t p = fleet ? 0 : pop_flag(args);
  const sim::RunOptions options = fleet ? run_options(args) : sim::RunOptions{};
  if (args.unread_flags()) return usage();
  if (path.empty()) {
    std::fprintf(stderr, "record requires --out FILE\n");
    return 2;
  }
  const topology::World world = topology::World::generate(world_config);
  if (fleet) return cmd_record_fleet(world, config, options, path);
  topology::Pop pop(world, p);

  audit::CycleJournal writer(path, /*include_timing=*/false);
  if (!writer.ok()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }

  sim::Simulation simulation(pop, config);
  simulation.set_cycle_observer(
      [&](const core::Controller::CycleRecord& record) {
        writer.append(record);
      });
  simulation.run([](const sim::StepRecord&) {});
  writer.flush();
  if (!writer.ok()) {
    std::fprintf(stderr, "write failed on %s\n", path.c_str());
    return 2;
  }
  std::printf("recorded %zu cycle snapshot(s) (%zu bytes) to %s\n",
              writer.records_written(), writer.bytes_written(), path.c_str());
  return 0;
}

/// Opens a journal for replay/whatif; prints why on failure.
std::optional<audit::CycleSnapshotReader> open_journal(
    const std::string& path) {
  auto reader = audit::CycleSnapshotReader::open(path);
  if (!reader) std::fprintf(stderr, "cannot open %s\n", path.c_str());
  return reader;
}

/// Prints journal damage to stderr once the reader is drained; true if
/// the file was a journal.
bool report_damage(const std::string& path,
                   const audit::CycleSnapshotReader& reader) {
  const audit::JournalReadStats& frames = reader.journal_stats();
  const audit::CycleReadStats& cycles = reader.stats();
  if (frames.bad_header) {
    std::fprintf(stderr, "%s: not an edgefabric journal (bad header)\n",
                 path.c_str());
  }
  if (frames.corrupt_skipped > 0 || frames.truncated_tail ||
      cycles.undecodable > 0 || cycles.deltas_skipped > 0) {
    std::fprintf(
        stderr,
        "%s: recovered %zu record(s); skipped %zu corrupt frame(s), "
        "%zu undecodable record(s), %zu delta(s) without their "
        "predecessor%s\n",
        path.c_str(), frames.records, frames.corrupt_skipped,
        cycles.undecodable, cycles.deltas_skipped,
        frames.truncated_tail ? ", truncated tail" : "");
  }
  return !frames.bad_header;
}

int cmd_replay(const Args& args) {
  const bool verbose = args.flag("verbose");
  if (args.unread_flags()) return usage();
  if (args.positionals.empty()) {
    std::fprintf(stderr, "replay requires a journal FILE operand\n");
    return 2;
  }
  const std::string path = args.positionals.front();
  auto stream = open_journal(path);
  if (!stream) return 2;

  std::size_t cycles = 0;
  std::size_t drifted = 0;
  while (const audit::CycleSnapshot* snapshot = stream->next()) {
    const audit::ReplayDiff diff = audit::replay(*snapshot);
    if (diff.drifted) ++drifted;
    if (verbose || diff.drifted) {
      std::printf("cycle %zu (t=%.1fh): %s\n", cycles,
                  snapshot->when.seconds_value() / 3600.0,
                  diff.to_string().c_str());
    }
    ++cycles;
  }
  if (!report_damage(path, *stream) && cycles == 0) return 2;
  if (verbose) {
    for (const audit::FailsafeEvent& event : stream->failsafe_events()) {
      std::printf("  ladder t=%.1fh: %s -> %s (%s): %s\n",
                  event.when.seconds_value() / 3600.0,
                  audit::failsafe_mode_name(event.from_mode),
                  audit::failsafe_mode_name(event.to_mode),
                  audit::failsafe_action_name(event.action),
                  event.reason.c_str());
    }
  }
  std::printf(
      "replayed %zu cycle(s): %zu drifted, %zu ladder event(s), %zu audit "
      "event(s)\n",
      cycles, drifted, stream->failsafe_events().size(),
      stream->audit_events().size());
  return drifted == 0 ? 0 : 1;
}

int cmd_whatif(const Args& args) {
  std::vector<audit::Mutation> mutations;
  using Kind = audit::Mutation::Kind;
  auto iface_mutation = [&](const char* flag, Kind kind, double value = 0) {
    if (!args.has(flag)) return;
    audit::Mutation m;
    m.kind = kind;
    m.interface =
        telemetry::InterfaceId(static_cast<std::uint32_t>(args.num(flag, 0)));
    m.value = value;
    mutations.push_back(m);
  };
  iface_mutation("drain", Kind::kDrain);
  iface_mutation("undrain", Kind::kUndrain);
  // --cut-capacity I --factor F: scale interface I's capacity by F.
  iface_mutation("cut-capacity", Kind::kScaleCapacity,
                 args.real("factor", 0.5));
  if (args.has("scale-demand")) {
    mutations.push_back({Kind::kScaleDemand, {}, args.real("scale-demand", 1)});
  }
  if (args.has("threshold")) {
    mutations.push_back(
        {Kind::kOverloadThreshold, {}, args.real("threshold", 0.95)});
  }
  if (args.has("target")) {
    mutations.push_back(
        {Kind::kTargetUtilization, {}, args.real("target", 0.9)});
  }
  if (args.has("headroom")) {
    mutations.push_back(
        {Kind::kDetourHeadroom, {}, args.real("headroom", 0.95)});
  }
  if (args.has("max-overrides")) {
    mutations.push_back({Kind::kMaxOverrides, {},
                         static_cast<double>(args.num("max-overrides", 0))});
  }
  if (args.flag("split")) {
    mutations.push_back({Kind::kAllowSplitting, {}, 1});
  }
  const bool one_cycle = args.has("cycle");
  const std::size_t wanted =
      one_cycle ? static_cast<std::size_t>(args.num("cycle", 0)) : 0;
  const bool verbose = args.flag("verbose") || one_cycle;
  if (args.unread_flags()) return usage();
  if (args.positionals.empty()) {
    std::fprintf(stderr, "whatif requires a journal FILE operand\n");
    return 2;
  }
  if (mutations.empty()) {
    std::fprintf(stderr,
                 "whatif requires at least one mutation flag: --drain I, "
                 "--undrain I, --cut-capacity I [--factor F], "
                 "--scale-demand F, --threshold T, --target T, --headroom H, "
                 "--max-overrides N, --split\n");
    return 2;
  }

  const std::string path = args.positionals.front();
  auto stream = open_journal(path);
  if (!stream) return 2;

  std::printf("what-if:");
  for (const audit::Mutation& m : mutations) {
    std::printf(" [%s]", m.to_string().c_str());
  }
  std::printf("\n");

  std::size_t cycles = 0;
  std::size_t index = 0;
  long override_delta_sum = 0;
  net::Bandwidth detour_before, detour_after, unresolved_before,
      unresolved_after;
  std::map<telemetry::InterfaceId, net::Bandwidth> peak_delta;
  bool interfaces_checked = false;
  while (const audit::CycleSnapshot* snapshot = stream->next()) {
    if (!interfaces_checked) {
      // A typo'd interface id would otherwise report a plausible-looking
      // zero delta; reject it against the recording instead.
      for (const audit::Mutation& m : mutations) {
        using Kind = audit::Mutation::Kind;
        if (m.kind != Kind::kScaleCapacity && m.kind != Kind::kSetCapacity &&
            m.kind != Kind::kDrain && m.kind != Kind::kUndrain) {
          continue;
        }
        const bool known =
            std::any_of(snapshot->interfaces.begin(),
                        snapshot->interfaces.end(),
                        [&](const audit::InterfaceRecord& iface) {
                          return iface.id == m.interface;
                        });
        if (!known) {
          std::fprintf(stderr,
                       "eftool: interface %u is not in this recording\n",
                       m.interface.value());
          return 2;
        }
      }
      interfaces_checked = true;
    }
    if (one_cycle && index++ != wanted) continue;
    const audit::WhatIfReport report = audit::what_if(*snapshot, mutations);
    ++cycles;
    override_delta_sum += report.override_delta();
    detour_before += report.detoured(report.baseline);
    detour_after += report.detoured(report.mutated);
    unresolved_before += report.baseline.unresolved_overload;
    unresolved_after += report.mutated.unresolved_overload;
    for (const auto& [id, delta] : report.load_delta()) {
      if (std::abs(delta.bits_per_sec()) >
          std::abs(peak_delta[id].bits_per_sec())) {
        peak_delta[id] = delta;
      }
    }
    if (verbose) {
      std::printf("  t=%.1fh: %s\n", snapshot->when.seconds_value() / 3600.0,
                  report.to_string().c_str());
    }
  }
  if (!report_damage(path, *stream) && cycles == 0) return 2;
  if (cycles == 0) {
    std::fprintf(stderr, one_cycle ? "no such cycle in journal\n"
                                   : "journal holds no snapshots\n");
    return 2;
  }
  const double n = static_cast<double>(cycles);
  std::printf("counterfactual allocation delta over %zu cycle(s):\n", cycles);
  std::printf("  avg override delta: %+.2f per cycle\n",
              static_cast<double>(override_delta_sum) / n);
  std::printf("  avg detoured: %s -> %s per cycle\n",
              (detour_before / n).to_string().c_str(),
              (detour_after / n).to_string().c_str());
  std::printf("  avg unresolved overload: %s -> %s per cycle\n",
              (unresolved_before / n).to_string().c_str(),
              (unresolved_after / n).to_string().c_str());
  std::printf("  peak per-interface load delta:\n");
  for (const auto& [id, delta] : peak_delta) {
    std::printf("    iface %-4u %+.2fGbps\n", id.value(), delta.gbps_value());
  }
  return 0;
}

// --- live daemon: serve / feed ----------------------------------------

std::uint16_t port_opt(const Args& args, const std::string& key) {
  const long port = args.num(key, 0);
  if (port < 0 || port > 65535) args.bad_value(key);
  return static_cast<std::uint16_t>(port);
}

/// Comma-separated port list, each in [1, 65535]; strict like every
/// other numeric flag (anything else exits 2).
std::vector<std::uint16_t> ports_list_opt(const Args& args,
                                          const std::string& key) {
  std::vector<std::uint16_t> ports;
  const std::string text = args.get(key, "");
  if (text.empty()) return ports;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    std::size_t consumed = 0;
    long port = 0;
    try {
      port = std::stol(item, &consumed);
    } catch (...) {
      args.bad_value(key);
    }
    if (consumed != item.size() || port < 1 || port > 65535) {
      args.bad_value(key);
    }
    ports.push_back(static_cast<std::uint16_t>(port));
    pos = comma + 1;
  }
  return ports;
}

/// Hold-time offer in seconds. 0 disables timers; 1 and 2 are the
/// RFC 4271 §4.2 unacceptable values every speaker here refuses, so
/// offering them is a flag error, not a protocol experiment.
std::uint16_t hold_secs_opt(const Args& args, const std::string& key,
                            long fallback) {
  const long secs = args.num(key, fallback);
  if (secs < 0 || secs > 65535 || secs == 1 || secs == 2) args.bad_value(key);
  return static_cast<std::uint16_t>(secs);
}

std::uint32_t u32_opt(const Args& args, const std::string& key,
                      std::uint32_t fallback) {
  const long value = args.num(key, static_cast<long>(fallback));
  if (value < 0 || value > 0xffffffffL) args.bad_value(key);
  return static_cast<std::uint32_t>(value);
}

/// Runs the efd daemon in the foreground until SIGINT/SIGTERM. Same
/// wiring as the standalone `efd` binary, reachable from the operator
/// CLI.
int cmd_serve(const Args& args) {
  // Block the shutdown signals before the service spawns its loop thread
  // so the loop's signalfd is their only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  sigprocmask(SIG_BLOCK, &sigs, nullptr);

  const topology::WorldConfig world_config = world_flags(args);
  const std::size_t p = pop_flag(args);
  service::EfdConfig config;
  config.bmp_port = port_opt(args, "bmp");
  config.sflow_port = port_opt(args, "sflow");
  config.http_port = port_opt(args, "http");
  config.controller.enforcement = args.flag("inject")
                                      ? core::Enforcement::kBgpInjection
                                      : core::Enforcement::kShadow;
  config.controller.cycle_period = net::SimTime::seconds(
      static_cast<double>(args.num("cycle-secs", 30)));
  config.sflow_sample_rate =
      static_cast<std::uint32_t>(args.num("sample-rate", 10));
  config.real_time_cycles = args.flag("real-time");
  config.controller.incremental = args.flag("incremental");
  apply_failsafe_flags(args, config);
  apply_dataplane_flags(args, config.dataplane, world_config.seed);
  config.announce_ports = ports_list_opt(args, "announce");
  config.announce_hold_secs = hold_secs_opt(args, "announce-hold-secs", 90);
  apply_audit_flags(args, config);
  apply_bgp_fault_flags(args, config, world_config.seed);
  if (args.unread_flags()) return usage();
  const topology::World world = topology::World::generate(world_config);
  if (p >= world.pops().size()) {
    std::fprintf(stderr, "eftool serve: --pop %zu out of range (%zu PoPs)\n",
                 p, world.pops().size());
    return 2;
  }
  topology::Pop pop(world, p);

  service::EfdService service(pop, config);
  service.shutdown_on_signals();
  service.start();
  std::printf("eftool serve: pop %s, %s enforcement\n", pop.name().c_str(),
              args.flag("inject") ? "bgp-injection" : "shadow");
  if (config.failsafe.enabled) {
    std::printf(
        "eftool serve: failsafe armed (max-demand-age %gs, hold-ttl %gs, "
        "max-churn-frac %g)\n",
        config.failsafe.max_demand_age.seconds_value(),
        config.failsafe.hold_ttl.seconds_value(),
        config.controller.max_churn_frac);
  }
  if (!config.announce_ports.empty()) {
    std::printf(
        "eftool serve: announcing overrides to %zu peering router(s), "
        "hold %us\n",
        config.announce_ports.size(),
        static_cast<unsigned>(config.announce_hold_secs));
  }
  if (config.dataplane.enabled) {
    std::printf(
        "eftool serve: dataplane emulation on (queue %gms, %u slots, "
        "elephant frac %g)\n",
        config.dataplane.queue_depth_ms, config.dataplane.ecmp_slots,
        config.dataplane.flows.elephant_fraction);
  }
  if (config.controller.incremental) {
    std::printf("eftool serve: incremental allocation on\n");
  }
  if (config.audit.enabled) {
    std::printf(
        "eftool serve: enforcement audit on (every %u cycle(s), "
        "max %ju repair(s)/pass)\n",
        config.audit.interval_cycles,
        static_cast<std::uintmax_t>(config.audit.max_repairs));
  }
  if (!config.recovery_path.empty()) {
    std::printf("eftool serve: recovery snapshots -> %s%s\n",
                config.recovery_path.c_str(),
                config.recover ? " (warm restart requested)" : "");
  }
  std::printf(
      "eftool serve: bmp 127.0.0.1:%u  sflow 127.0.0.1:%u  http "
      "127.0.0.1:%u\n",
      service.bmp_port(), service.sflow_port(), service.http_port());
  std::fflush(stdout);
  service.wait();
  std::printf("eftool serve: stopped\n");
  return 0;
}

/// Foreground peering-router daemon: a BgpSpeaker behind a TCP listener
/// applying the PoP import policy, until SIGINT/SIGTERM.
int cmd_pr(const Args& args) {
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  sigprocmask(SIG_BLOCK, &sigs, nullptr);

  service::PeeringRouterService::Config config;
  config.bgp_port = port_opt(args, "port");
  const std::uint32_t local_as = u32_opt(args, "as", 65000);
  if (local_as == 0) args.bad_value("as");
  config.local_as = bgp::AsNumber(local_as);
  config.peer_as = bgp::AsNumber(u32_opt(args, "peer-as", 0));
  config.router_id = bgp::RouterId(u32_opt(args, "router-id", 0x7f0000fe));
  config.hold_time_secs = hold_secs_opt(args, "hold-secs", 90);
  if (args.unread_flags()) return usage();

  service::PeeringRouterService service(config);
  service.shutdown_on_signals();
  service.start();
  std::printf("eftool pr: bgp 127.0.0.1:%u  as %u  hold %us\n",
              service.bgp_port(), local_as,
              static_cast<unsigned>(config.hold_time_secs));
  std::fflush(stdout);
  service.wait();
  const service::PeeringRouterService::Snapshot snap = service.snapshot();
  std::printf(
      "eftool pr: stopped (%ju connection(s), %ju session(s) established, "
      "%ju hold expiration(s), %ju update(s), %ju prefix(es) held)\n",
      static_cast<std::uintmax_t>(snap.connections),
      static_cast<std::uintmax_t>(snap.sessions_established),
      static_cast<std::uintmax_t>(snap.hold_expirations),
      static_cast<std::uintmax_t>(snap.updates_received),
      static_cast<std::uintmax_t>(snap.prefixes));
  return 0;
}

/// Smoke-test client for `eftool pr`: dials the given peering routers,
/// announces a synthetic override set, lingers, withdraws, exits.
int cmd_announce(const Args& args) {
  const std::vector<std::uint16_t> ports = ports_list_opt(args, "ports");
  const long count = args.num("count", 8);
  if (count < 1 || count > 65536) args.bad_value("count");
  const double linger = nonneg_real(args, "linger-secs", 1.0);
  const std::uint32_t local_pref = u32_opt(args, "local-pref", 1000);
  if (local_pref == 0) args.bad_value("local-pref");
  const std::uint32_t local_as = u32_opt(args, "as", 65000);
  if (local_as == 0) args.bad_value("as");

  service::Announcer::Config config;
  config.ports = ports;
  config.local_as = bgp::AsNumber(local_as);
  config.peer_as = bgp::AsNumber(u32_opt(args, "peer-as", 0));
  config.router_id = bgp::RouterId(u32_opt(args, "router-id", 0xefd00001));
  config.hold_time_secs = hold_secs_opt(args, "hold-secs", 90);
  config.override_local_pref = local_pref;
  if (args.unread_flags()) return usage();
  if (ports.empty()) {
    std::fprintf(stderr, "eftool announce: --ports P1[,P2...] is required\n");
    return 2;
  }

  io::EventLoop loop;
  service::Announcer announcer(loop, config);
  announcer.set_event_handler(
      [](std::size_t peer, bool up, const std::string& reason) {
        std::printf("eftool announce: peer %zu %s (%s)\n", peer,
                    up ? "up" : "down", reason.c_str());
        std::fflush(stdout);
      });
  std::thread runner([&loop] { loop.run(); });
  loop.run_sync([&announcer] { announcer.connect(); });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (announcer.stats().sessions_established < ports.size()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr,
                   "eftool announce: only %ju of %zu session(s) "
                   "established in 15s\n",
                   static_cast<std::uintmax_t>(
                       announcer.stats().sessions_established),
                   ports.size());
      loop.stop();
      runner.join();
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Synthetic overrides: one /24 per prefix, detour into transit — the
  // same shape the controller emits, minus the real allocation behind it.
  std::map<net::Prefix, core::Override> overrides;
  for (long i = 0; i < count; ++i) {
    core::Override entry;
    const std::uint32_t block =
        0x0a000000u + (static_cast<std::uint32_t>(i) << 8);
    entry.prefix = net::Prefix(net::IpAddr::v4(block), 24);
    entry.rate = net::Bandwidth::gbps(1.0);
    entry.next_hop = net::IpAddr::v4(0xC0000201);  // 192.0.2.1
    entry.as_path = bgp::AsPath{bgp::AsNumber(64512)};
    entry.target_type = bgp::PeerType::kTransit;
    overrides[entry.prefix] = entry;
  }
  loop.run_sync([&announcer, &overrides] {
    announcer.announce(overrides, bgp::wall_now());
  });
  std::printf("eftool announce: %ld prefix(es) announced to %zu peer(s)\n",
              count, ports.size());
  std::fflush(stdout);

  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(linger * 1000.0)));
  loop.run_sync([&announcer] { announcer.withdraw_all(bgp::wall_now()); });
  // Give the withdraw UPDATEs a moment to drain before the sockets close.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const service::Announcer::Stats stats = announcer.stats();
  loop.stop();
  runner.join();
  std::printf(
      "eftool announce: done (%ju update(s) sent, %ju withdraw message(s), "
      "%ju redial(s))\n",
      static_cast<std::uintmax_t>(stats.updates_sent),
      static_cast<std::uintmax_t>(stats.withdraw_msgs),
      static_cast<std::uintmax_t>(stats.redials));
  return 0;
}

/// Blocking GET against the daemon's HTTP port; returns the body, empty
/// on any failure.
std::string http_get_body(std::uint16_t port, const std::string& path) {
  io::Fd conn = io::connect_tcp(port);
  if (!conn.valid()) return {};
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: efd\r\nConnection: close\r\n\r\n";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(request.data()), request.size());
  if (!io::send_all(conn.get(), bytes)) return {};
  std::string response;
  for (;;) {
    const std::vector<std::uint8_t> chunk = io::recv_some(conn.get());
    if (chunk.empty()) break;
    response.append(chunk.begin(), chunk.end());
  }
  const std::size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? std::string() : response.substr(body + 4);
}

/// Value of one `name value` line from /metrics; -1 when absent.
double metric_value(const std::string& body, const std::string& name) {
  const std::string want = name + " ";
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    if (body.compare(pos, want.size(), want) == 0) {
      return std::atof(body.c_str() + pos + want.size());
    }
    pos = eol + 1;
  }
  return -1.0;
}

/// Polls /metrics until `name` reaches `target` — the feed's flow
/// control, so a slow daemon is waited for instead of flooded.
bool wait_for_metric(std::uint16_t http_port, const std::string& name,
                     double target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  for (;;) {
    if (metric_value(http_get_body(http_port, "/metrics"), name) >= target) {
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr,
                   "eftool feed: daemon did not reach %s >= %g in 15s\n",
                   name.c_str(), target);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Sockets into a running daemon, with running totals for flow control.
struct DaemonFeed {
  io::Fd bmp;
  io::Fd sflow;
  std::uint16_t sflow_port = 0;
  std::uint64_t bmp_bytes = 0;
  std::uint64_t windows = 0;

  bool send_bmp(const bmp::BmpMessage& msg) {
    const std::vector<std::uint8_t> bytes = bmp::encode(msg);
    if (!io::send_all(bmp.get(), bytes)) {
      std::fprintf(stderr, "eftool feed: BMP send failed\n");
      return false;
    }
    bmp_bytes += bytes.size();
    return true;
  }

  bool send_records(
      std::span<const telemetry::wire::SflowRecord> records) {
    if (!sflow.valid() || records.empty()) return true;
    const std::vector<std::uint8_t> datagram =
        telemetry::wire::encode_datagram(records);
    if (!io::UdpSocket::send_to(sflow.get(), sflow_port, datagram)) {
      std::fprintf(stderr, "eftool feed: sFlow send failed\n");
      return false;
    }
    return true;
  }
};

/// Synthesizes the per-peer header for a recorded route. The snapshot
/// keeps the neighbor's identity on every route, and neighbor router IDs
/// are unique per peering, so the ID doubles as a stable peer address.
bmp::PerPeerHeader feed_peer_header(const bgp::Route& route) {
  bmp::PerPeerHeader header;
  header.peer_addr = net::IpAddr::v4(route.neighbor_router_id.value());
  header.peer_as = route.neighbor_as.value();
  header.peer_bgp_id = route.neighbor_router_id.value();
  header.timestamp = route.learned_at;
  return header;
}

/// Streams a cycle journal into the daemon: per snapshot (keyframes and
/// deltas alike, rebuilt in full by CycleSnapshotReader), the route-set
/// delta as BMP announcements/withdrawals, then the demand table (an
/// explicit zero for each prefix the snapshot no longer carries, since
/// the daemon keeps its demand across windows) and a window-close marker
/// over UDP, then a /metrics barrier.
int feed_journal(const std::string& path, long limit,
                 std::vector<std::uint8_t> bytes, DaemonFeed& feed,
                 std::uint16_t http_port) {
  using RouteKey = std::pair<std::uint32_t, net::Prefix>;  // (bgp_id, pfx)
  std::map<RouteKey, bgp::Route> announced;
  std::set<std::uint32_t> peers_up;
  std::set<net::Prefix> demand_sent;

  audit::CycleSnapshotReader reader(std::move(bytes));
  long fed = 0;
  while (limit < 0 || fed < limit) {
    const audit::CycleSnapshot* snapshot = reader.next();
    if (!snapshot) break;

    std::map<RouteKey, const bgp::Route*> current;
    for (const bgp::Route& route : snapshot->routes) {
      current[{route.neighbor_router_id.value(), route.prefix}] = &route;
    }
    // Withdraw what disappeared since the previous snapshot...
    for (const auto& [key, route] : announced) {
      if (current.contains(key)) continue;
      bmp::RouteMonitoringMsg withdraw;
      withdraw.peer = feed_peer_header(route);
      withdraw.peer.timestamp = snapshot->when;
      withdraw.update.withdrawn.push_back(key.second);
      if (!feed.send_bmp(withdraw)) return 1;
    }
    // ...then (re-)announce everything new or changed.
    for (const auto& [key, route] : current) {
      const auto prev = announced.find(key);
      if (prev != announced.end() && prev->second == *route) continue;
      if (peers_up.insert(key.first).second) {
        bmp::PeerUpMsg up;
        up.peer = feed_peer_header(*route);
        up.local_addr = net::IpAddr::v4(0x7F000001);
        up.information.push_back(
            std::string("peer-type=") + bgp::peer_type_name(route->peer_type));
        if (!feed.send_bmp(up)) return 1;
      }
      bmp::RouteMonitoringMsg announce;
      announce.peer = feed_peer_header(*route);
      announce.update.attrs = route->attrs;
      announce.update.nlri.push_back(route->prefix);
      if (!feed.send_bmp(announce)) return 1;
    }
    announced.clear();
    for (const auto& [key, route] : current) announced.emplace(key, *route);

    if (feed.sflow.valid()) {
      std::vector<telemetry::wire::SflowRecord> records;
      const auto send_rate = [&](const net::Prefix& prefix,
                                 net::Bandwidth rate) {
        records.emplace_back(telemetry::wire::DemandRate{prefix, rate});
        if (records.size() < 64) return true;
        const bool sent = feed.send_records(records);
        records.clear();
        return sent;
      };
      std::set<net::Prefix> reported;
      for (const audit::DemandRecord& demand : snapshot->demand) {
        reported.insert(demand.prefix);
        if (!send_rate(demand.prefix, demand.rate)) return 1;
      }
      for (const net::Prefix& prefix : demand_sent) {
        if (reported.contains(prefix)) continue;
        if (!send_rate(prefix, net::Bandwidth::zero())) return 1;
      }
      demand_sent = std::move(reported);
      records.emplace_back(
          telemetry::wire::WindowClose{snapshot->when, snapshot->when});
      if (!feed.send_records(records)) return 1;
      ++feed.windows;
    }

    if (http_port != 0) {
      if (!wait_for_metric(http_port, "efd_bmp_bytes_total",
                           static_cast<double>(feed.bmp_bytes)) ||
          !wait_for_metric(http_port, "efd_windows_closed_total",
                           static_cast<double>(feed.windows))) {
        return 1;
      }
    }
    ++fed;
  }

  report_damage(path, reader);
  std::printf("fed %ld snapshot(s): %llu BMP bytes, %llu window(s)\n", fed,
              static_cast<unsigned long long>(feed.bmp_bytes),
              static_cast<unsigned long long>(feed.windows));
  return 0;
}

/// Streams an MRT TABLE_DUMP_V2 image as a one-shot BMP replay (peer ups
/// + announcements; MRT carries no demand, so no window marker).
int feed_mrt(const std::vector<std::uint8_t>& bytes, DaemonFeed& feed,
             std::uint16_t http_port) {
  const auto dump = bgp::mrt::decode(bytes);
  if (!dump) {
    std::fprintf(stderr, "eftool feed: not a journal and not MRT\n");
    return 2;
  }
  for (const bgp::mrt::PeerEntry& peer : dump->peers) {
    bmp::PeerUpMsg up;
    up.peer.peer_addr = peer.address;
    up.peer.peer_as = peer.as.value();
    up.peer.peer_bgp_id = peer.bgp_id.value();
    up.local_addr = net::IpAddr::v4(0x7F000001);
    if (!feed.send_bmp(up)) return 1;
  }
  std::size_t routes = 0;
  for (const bgp::mrt::RibRecord& record : dump->records) {
    for (const bgp::mrt::RibEntry& entry : record.entries) {
      if (entry.peer_index >= dump->peers.size()) continue;
      const bgp::mrt::PeerEntry& peer = dump->peers[entry.peer_index];
      bmp::RouteMonitoringMsg announce;
      announce.peer.peer_addr = peer.address;
      announce.peer.peer_as = peer.as.value();
      announce.peer.peer_bgp_id = peer.bgp_id.value();
      announce.peer.timestamp = entry.originated;
      announce.update.attrs = entry.attrs;
      announce.update.nlri.push_back(record.prefix);
      if (!feed.send_bmp(announce)) return 1;
      ++routes;
    }
  }
  if (http_port != 0 &&
      !wait_for_metric(http_port, "efd_bmp_bytes_total",
                       static_cast<double>(feed.bmp_bytes))) {
    return 1;
  }
  std::printf("fed MRT dump: %zu peer(s), %zu route(s), %llu BMP bytes\n",
              dump->peers.size(), routes,
              static_cast<unsigned long long>(feed.bmp_bytes));
  return 0;
}

int cmd_feed(const Args& args) {
  if (args.positionals.empty()) {
    std::fprintf(stderr, "eftool feed: missing FILE operand\n");
    return 2;
  }
  const std::string path = args.positionals.front();
  const std::uint16_t bmp_port = port_opt(args, "bmp");
  const std::uint16_t sflow_port = port_opt(args, "sflow");
  const std::uint16_t http_port = port_opt(args, "http");
  const long limit = args.num("limit", -1);
  const long retries = args.num("retry", 0);
  if (retries < 0) args.bad_value("retry");
  if (args.unread_flags()) return usage();
  if (bmp_port == 0) {
    std::fprintf(stderr, "eftool feed: --bmp PORT is required\n");
    return 2;
  }

  auto bytes = audit::JournalReader::load(path);
  if (!bytes) {
    std::fprintf(stderr, "eftool feed: cannot read %s\n", path.c_str());
    return 2;
  }

  DaemonFeed feed;
  if (retries == 0) {
    feed.bmp = io::connect_tcp(bmp_port);
  } else {
    // Daemon may still be starting: redial on an exponential schedule
    // (100ms base, 2s cap) until it answers or the budget is spent.
    io::EventLoop loop;
    io::BackoffConfig schedule;
    schedule.base = 100;  // milliseconds
    schedule.cap = 2000;
    schedule.max_retries = static_cast<std::uint32_t>(retries);
    bool finished = false;
    std::uint32_t dials = 0;
    io::Reconnector redial(
        loop, schedule,
        [&] {
          ++dials;
          feed.bmp = io::connect_tcp(bmp_port);
          return feed.bmp.valid();
        },
        [&](bool) { finished = true; });
    redial.start();
    while (!finished) loop.poll_once(std::chrono::milliseconds(100));
    if (feed.bmp.valid() && dials > 1) {
      std::fprintf(stderr, "eftool feed: connected on dial %u\n", dials);
    }
  }
  if (!feed.bmp.valid()) {
    std::fprintf(stderr, "eftool feed: cannot connect to BMP port %u\n",
                 bmp_port);
    return 1;
  }
  if (sflow_port != 0) {
    feed.sflow = io::connect_udp(sflow_port);
    feed.sflow_port = sflow_port;
    if (!feed.sflow.valid()) {
      std::fprintf(stderr, "eftool feed: cannot open sFlow socket\n");
      return 1;
    }
  }

  // The daemon books routes under the sysName announced here; everything
  // this feed sends lands on one synthetic "router".
  bmp::InitiationMsg init;
  init.sys_name = "eftool-feed";
  init.sys_descr = "eftool feed " + path;
  if (!feed.send_bmp(init)) return 1;

  // Dispatch on the journal file magic; anything else is tried as MRT.
  audit::JournalReader probe(*bytes);
  if (!probe.stats().bad_header) {
    return feed_journal(path, limit, std::move(*bytes), feed, http_port);
  }
  return feed_mrt(*bytes, feed, http_port);
}

// --- chaos: deterministic fault-injection harness ---------------------

/// Parses --blackout A:B into a predicate over 0-based step indices
/// ([A,B) drops that step's demand records while markers keep flowing).
std::function<bool(std::uint64_t)> blackout_pred(const Args& args) {
  if (!args.has("blackout")) return nullptr;
  const std::string spec = args.get("blackout", "");
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) args.bad_value("blackout");
  try {
    std::size_t consumed = 0;
    const long from = std::stol(spec.substr(0, colon), &consumed);
    if (consumed != colon) args.bad_value("blackout");
    const std::string rest = spec.substr(colon + 1);
    const long to = std::stol(rest, &consumed);
    if (consumed != rest.size()) args.bad_value("blackout");
    if (from < 0 || to < from) args.bad_value("blackout");
    return [from, to](std::uint64_t step) {
      return step >= static_cast<std::uint64_t>(from) &&
             step < static_cast<std::uint64_t>(to);
    };
  } catch (const std::exception&) {
    args.bad_value("blackout");
  }
}

/// Everything one chaos run produced that the --verify replay must
/// reproduce (digests) or the operator wants summarized (the rest).
struct ChaosOutcome {
  std::vector<service::EfdService::CycleDigest> digests;
  service::EfdService::IngestSnapshot ingest;
  io::FaultInjector::Stats faults;
  std::uint64_t router_downs = 0;
  std::uint64_t reconnect_attempts = 0;
  std::uint64_t reconnects_ok = 0;
  std::uint64_t demand_dropped = 0;
  std::string metrics;
  /// BGP enforcement leg (--bgp-faults / --audit): the in-process
  /// peering router's final state, for the summary line.
  bool bgp_leg = false;
  bool bgp_drained = true;
  service::PeeringRouterService::Snapshot pr;
};

/// Everything the chaos flags decide, read and validated before any run
/// starts, so both runs of --verify use the same plan.
struct ChaosPlan {
  topology::WorldConfig world;
  std::size_t pop = 0;
  sim::SimulationConfig sim;
  service::EfdConfig daemon;
  /// BGP enforcement + closed-loop audit leg (--bgp-faults or any
  /// --audit* knob).
  bool bgp_leg = false;
  io::FaultConfig faults;  // BMP/sFlow feed faults; seed = --fault-seed
  std::function<bool(std::uint64_t)> blackout;
};

ChaosPlan chaos_plan(const Args& args) {
  ChaosPlan plan;
  plan.world = world_flags(args);
  plan.pop = pop_flag(args);
  const long steps = args.num("steps", 12);
  if (steps <= 0) args.bad_value("steps");

  plan.sim.step = net::SimTime::seconds(60);
  plan.sim.duration = net::SimTime::seconds(60.0 * static_cast<double>(steps));
  plan.sim.controller.cycle_period = plan.sim.step;
  // Aggressive thresholds so cycles actually steer traffic — a ladder
  // guarding an always-empty override set would demonstrate nothing.
  plan.sim.controller.allocator.overload_threshold = 0.5;
  plan.sim.controller.allocator.target_utilization = 0.45;

  plan.daemon.controller = plan.sim.controller;
  plan.daemon.controller.enforcement = core::Enforcement::kShadow;
  plan.daemon.failsafe.enabled = true;
  apply_failsafe_flags(args, plan.daemon);
  apply_audit_flags(args, plan.daemon);

  plan.faults.seed = static_cast<std::uint64_t>(args.num("fault-seed", 1));
  plan.bgp_leg = args.has("bgp-faults") || plan.daemon.audit.enabled;
  plan.daemon.audit.enabled = plan.bgp_leg;
  apply_bgp_fault_flags(args, plan.daemon, plan.faults.seed);
  plan.faults.drop = unit_real(args, "drop", 0.0);
  plan.faults.duplicate = unit_real(args, "dup", 0.0);
  plan.faults.corrupt_body = unit_real(args, "corrupt", 0.0);
  plan.faults.corrupt_header = unit_real(args, "poison", 0.0);
  plan.faults.truncate = unit_real(args, "truncate", 0.0);
  plan.faults.disconnect = unit_real(args, "disconnect", 0.0);
  plan.blackout = blackout_pred(args);
  return plan;
}

/// One full chaos scenario: a simulation feeds a failsafe-armed shadow
/// daemon over loopback sockets through a seeded fault injector, in
/// lockstep. Pure function of the plan — calling it twice must yield
/// identical digests, which is exactly what --verify asserts.
ChaosOutcome run_chaos_once(const ChaosPlan& plan) {
  const topology::World world = topology::World::generate(plan.world);
  if (plan.pop >= world.pops().size()) {
    std::fprintf(stderr, "eftool chaos: --pop %zu out of range (%zu PoPs)\n",
                 plan.pop, world.pops().size());
    std::exit(2);
  }
  topology::Pop pop(world, plan.pop);

  // With the BGP leg, the shadow daemon additionally enforces each
  // cycle's set over a real TCP BGP session to an in-process peering
  // router — faults injected on the UPDATE stream — and each cycle's
  // auditor pass reads the router's Adj-RIB-In back and repairs
  // divergence.
  service::EfdConfig daemon_config = plan.daemon;
  std::unique_ptr<service::PeeringRouterService> prd;
  if (plan.bgp_leg) {
    service::PeeringRouterService::Config pr_config;
    pr_config.bgp_port = 0;
    pr_config.local_as = world.config().local_as;
    prd = std::make_unique<service::PeeringRouterService>(pr_config);
    prd->start();
    daemon_config.announce_ports = {prd->bgp_port()};
    service::PeeringRouterService* prd_raw = prd.get();
    // Safe across loops: routes() hops onto prd's own loop via
    // run_sync, called here from efd's loop thread.
    daemon_config.audit_read_back = [prd_raw] { return prd_raw->routes(); };
  }

  sim::Simulation sim(pop, plan.sim);
  service::EfdService daemon(pop, daemon_config);
  daemon.start();

  sim::LiveFeed::Config feed_config;
  feed_config.bmp_port = daemon.bmp_port();
  feed_config.sflow_port = daemon.sflow_port();
  feed_config.faults = plan.faults;
  io::BackoffConfig redial;
  redial.base = 1;  // simulation steps
  redial.cap = 4;
  redial.seed = plan.faults.seed;
  feed_config.reconnect = redial;
  feed_config.drop_demand = plan.blackout;

  constexpr std::chrono::milliseconds kBarrier(15000);
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

  // Per-step BGP drain barrier. The announcer's post-fault send counter
  // and the peering router's receive counter must agree — and the
  // session must be back up with no flap outstanding — before the next
  // step runs, or the next audit's read-back would race the wire and
  // --verify's bitwise replay would be meaningless. Resyncs after a
  // flap keep moving the target, hence the stable-target loop.
  auto drain_bgp = [&](std::chrono::milliseconds timeout) {
    if (!prd) return true;
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    std::uint64_t target = daemon.ingest().bgp_updates_sent;
    for (;;) {
      const service::EfdService::IngestSnapshot snap = daemon.ingest();
      const service::PeeringRouterService::Snapshot pr = prd->snapshot();
      if (snap.bgp_updates_sent == target &&
          pr.updates_received >= target &&
          snap.bgp_session_drops >= snap.bgp_faults_flapped &&
          snap.bgp_sessions_established == 1) {
        return true;
      }
      target = snap.bgp_updates_sent;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  sim::LiveFeed feed(sim, feed_config, sync);
  feed.connect();
  bool drained = drain_bgp(kBarrier);  // initial session establishment
  while (feed.step()) {
    if (!drain_bgp(kBarrier)) drained = false;
  }

  ChaosOutcome out;
  out.metrics = http_get_body(daemon.http_port(), "/metrics");
  out.digests = daemon.digests();
  out.ingest = daemon.ingest();
  out.faults = feed.injector()->stats();
  out.router_downs = feed.router_downs();
  out.reconnect_attempts = feed.reconnect_attempts();
  out.reconnects_ok = feed.reconnects_ok();
  out.demand_dropped = feed.demand_records_dropped();
  out.bgp_leg = plan.bgp_leg;
  out.bgp_drained = drained;
  if (prd) out.pr = prd->snapshot();
  daemon.stop();
  if (prd) prd->stop();
  return out;
}

int cmd_chaos(const Args& args) {
  const ChaosPlan plan = chaos_plan(args);
  const std::string* metrics_out = args.find("metrics-out");
  const bool verbose = args.flag("verbose");
  const bool verify = args.flag("verify");
  if (args.unread_flags()) return usage();
  const ChaosOutcome run = run_chaos_once(plan);

  if (metrics_out != nullptr) {
    std::ofstream out(*metrics_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out->c_str());
      return 2;
    }
    out << run.metrics;
  }

  if (verbose) {
    for (std::size_t i = 0; i < run.digests.size(); ++i) {
      const service::EfdService::CycleDigest& digest = run.digests[i];
      std::printf("  cycle %2zu t=%5.0fs %-14s %-8s %zu override(s)\n", i,
                  digest.when.seconds_value(),
                  audit::failsafe_mode_name(digest.mode),
                  audit::failsafe_action_name(digest.action),
                  digest.overrides.size());
    }
  }

  std::printf(
      "chaos: %zu cycle(s); ladder holds %llu, fail-statics %llu, "
      "recoveries %llu, transitions %llu\n",
      run.digests.size(),
      static_cast<unsigned long long>(run.ingest.failsafe_holds),
      static_cast<unsigned long long>(run.ingest.failsafe_fail_statics),
      static_cast<unsigned long long>(run.ingest.failsafe_recoveries),
      static_cast<unsigned long long>(run.ingest.failsafe_transitions));
  std::printf(
      "  faults: %llu delivered, %llu dropped, %llu duplicated, "
      "%llu corrupted, %llu truncated, %llu disconnects\n",
      static_cast<unsigned long long>(run.faults.delivered),
      static_cast<unsigned long long>(run.faults.dropped),
      static_cast<unsigned long long>(run.faults.duplicated),
      static_cast<unsigned long long>(run.faults.corrupted),
      static_cast<unsigned long long>(run.faults.truncated),
      static_cast<unsigned long long>(run.faults.disconnects));
  std::printf(
      "  feed: %llu router down(s), %llu redial(s) (%llu ok), "
      "%llu demand record(s) blacked out\n",
      static_cast<unsigned long long>(run.router_downs),
      static_cast<unsigned long long>(run.reconnect_attempts),
      static_cast<unsigned long long>(run.reconnects_ok),
      static_cast<unsigned long long>(run.demand_dropped));
  if (run.bgp_leg) {
    std::printf(
        "  bgp: %llu update(s) sent (%llu dropped, %llu duplicated, "
        "%llu withdraw(s) swallowed, %llu flap(s)), router holds %llu "
        "prefix(es)%s\n",
        static_cast<unsigned long long>(run.ingest.bgp_updates_sent),
        static_cast<unsigned long long>(run.ingest.bgp_faults_dropped),
        static_cast<unsigned long long>(run.ingest.bgp_faults_duplicated),
        static_cast<unsigned long long>(run.ingest.bgp_withdraws_swallowed),
        static_cast<unsigned long long>(run.ingest.bgp_faults_flapped),
        static_cast<unsigned long long>(run.pr.prefixes),
        run.bgp_drained ? "" : " [DRAIN TIMEOUT]");
    std::printf(
        "  audit: %llu run(s), %llu divergent (missing %llu, extra %llu, "
        "wrong-attrs %llu), %llu repair(s), streak %llu\n",
        static_cast<unsigned long long>(run.ingest.audit_runs),
        static_cast<unsigned long long>(run.ingest.audit_divergent),
        static_cast<unsigned long long>(run.ingest.audit_missing),
        static_cast<unsigned long long>(run.ingest.audit_extra),
        static_cast<unsigned long long>(run.ingest.audit_wrong_attrs),
        static_cast<unsigned long long>(run.ingest.audit_repairs_announce +
                                        run.ingest.audit_repairs_withdraw),
        static_cast<unsigned long long>(run.ingest.audit_divergent_streak));
    if (!run.bgp_drained) {
      std::fprintf(stderr, "chaos: FAILED — BGP drain barrier timed out\n");
      return 1;
    }
  }

  if (!verify) return 0;

  const ChaosOutcome replay = run_chaos_once(plan);
  if (replay.digests.size() != run.digests.size()) {
    std::fprintf(stderr,
                 "verify: FAILED — %zu cycle(s) vs %zu on replay\n",
                 run.digests.size(), replay.digests.size());
    return 1;
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < run.digests.size(); ++i) {
    const service::EfdService::CycleDigest& a = run.digests[i];
    const service::EfdService::CycleDigest& b = replay.digests[i];
    if (a.when == b.when && a.mode == b.mode && a.action == b.action &&
        a.overrides == b.overrides && a.audit_ran == b.audit_ran &&
        a.audit_missing == b.audit_missing &&
        a.audit_extra == b.audit_extra &&
        a.audit_wrong_attrs == b.audit_wrong_attrs &&
        a.audit_repaired == b.audit_repaired &&
        a.audit_divergent_streak == b.audit_divergent_streak) {
      continue;
    }
    ++mismatches;
    std::fprintf(stderr,
                 "verify: cycle %zu diverged (%s/%zu vs %s/%zu)\n", i,
                 audit::failsafe_mode_name(a.mode), a.overrides.size(),
                 audit::failsafe_mode_name(b.mode), b.overrides.size());
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "verify: FAILED — %zu cycle(s) diverged\n",
                 mismatches);
    return 1;
  }
  std::printf("verify: replay identical (%zu cycle(s), seed %llu)\n",
              run.digests.size(),
              static_cast<unsigned long long>(plan.faults.seed));
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: eftool <command> [options]  (boolean flags take no value)\n"
      "  world      [--clients N] [--pops N] [--seed S]\n"
      "  interfaces --pop K\n"
      "  rib        --pop K [--prefix P] [--limit N]\n"
      "  cycle      --pop K [--hour H] [--split]\n"
      "  run        --pop K [--hours H] [--no-controller] [--flaps R]\n"
      "             [--dataplane] [--dp-queue-ms MS] [--dp-slots N]\n"
      "             [--dp-wcmp N] [--dp-elephant-frac F]\n"
      "             (--dataplane: flow-level emulation with measured\n"
      "              drops, queue delay, and reorder events)\n"
      "  fleet      [--hours H] [--no-controller] [--threads N]\n"
      "             (--threads: 0 = one per hardware thread, 1 = serial;\n"
      "              output is identical for every N)\n"
      "  mrt        --pop K --out FILE\n"
      "  record     --pop K [--hours H] [--sflow] [--flaps R]\n"
      "             [--dataplane] --out FILE\n"
      "  record     --fleet [--hours H] [--threads N] --out FILE\n"
      "             (one journal per PoP: FILE.popK.efj)\n"
      "  replay     FILE [--verbose]\n"
      "  whatif     FILE [--cycle N] --drain I | --undrain I |\n"
      "             --cut-capacity I [--factor F] | --scale-demand F |\n"
      "             --threshold T | --target T | --headroom H |\n"
      "             --max-overrides N | --split\n"
      "  serve      [--pop K] [--bmp P] [--sflow P] [--http P] [--inject]\n"
      "             [--real-time] [--cycle-secs S] [--sample-rate N]\n"
      "             [--incremental] (delta allocation cycles)\n"
      "             [--failsafe] [--max-demand-age SECS] [--hold-ttl SECS]\n"
      "             [--max-churn-frac F] [--journal FILE]\n"
      "             [--announce P1[,P2...]] [--announce-hold-secs S]\n"
      "             [--audit] [--audit-interval N] [--audit-max-repairs N]\n"
      "             [--recovery-file FILE] [--recover]\n"
      "             [--bgp-faults drop=R,dup=R,swallow=R,flap=N]\n"
      "             [--dataplane] [--dp-queue-ms MS] [--dp-slots N]\n"
      "             [--dp-elephant-frac F]\n"
      "             (foreground efd daemon; port 0 = ephemeral, printed;\n"
      "              any failsafe threshold flag arms the ladder;\n"
      "              --announce enforces overrides over BGP/TCP;\n"
      "              --audit closes the loop against the router read-back;\n"
      "              --recovery-file + --recover = crash-safe warm restart)\n"
      "  pr         [--port P] [--as N] [--peer-as N] [--router-id N]\n"
      "             [--hold-secs S]\n"
      "             (foreground peering router: accepts BGP sessions,\n"
      "              applies the PoP import policy; a silent announcer\n"
      "              is flushed when the hold timer expires)\n"
      "  announce   --ports P1[,P2...] [--as N] [--peer-as N]\n"
      "             [--router-id N] [--hold-secs S] [--count N]\n"
      "             [--local-pref L] [--linger-secs S]\n"
      "             (dial peering routers, announce synthetic overrides,\n"
      "              linger, withdraw, exit)\n"
      "  feed       FILE --bmp P [--sflow P] [--http P] [--limit N]\n"
      "             [--retry N]\n"
      "             (stream a .efj cycle journal or MRT dump into a\n"
      "              running daemon; --http enables flow control,\n"
      "              --retry redials a daemon that is still starting)\n"
      "  chaos      [--steps N] [--fault-seed S] [--drop R] [--dup R]\n"
      "             [--corrupt R] [--poison R] [--truncate R]\n"
      "             [--disconnect R] [--blackout A:B] [--verify]\n"
      "             [--bgp-faults drop=R,dup=R,swallow=R,flap=N]\n"
      "             [--audit] [--audit-interval N] [--audit-max-repairs N]\n"
      "             [--max-demand-age SECS] [--hold-ttl SECS]\n"
      "             [--max-churn-frac F] [--journal FILE]\n"
      "             [--metrics-out FILE] [--verbose]\n"
      "             (seeded fault injection against a failsafe-armed\n"
      "              shadow daemon; --verify replays the scenario and\n"
      "              demands bitwise-identical decisions; --bgp-faults\n"
      "              adds a live BGP enforcement leg to an in-process\n"
      "              peering router with the closed-loop audit armed)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.command == "world") return cmd_world(args);
  if (args.command == "interfaces") return cmd_interfaces(args);
  if (args.command == "rib") return cmd_rib(args);
  if (args.command == "cycle") return cmd_cycle(args);
  if (args.command == "run") return cmd_run(args);
  if (args.command == "fleet") return cmd_fleet(args);
  if (args.command == "mrt") return cmd_mrt(args);
  if (args.command == "record") return cmd_record(args);
  if (args.command == "replay") return cmd_replay(args);
  if (args.command == "whatif") return cmd_whatif(args);
  if (args.command == "serve") return cmd_serve(args);
  if (args.command == "pr") return cmd_pr(args);
  if (args.command == "announce") return cmd_announce(args);
  if (args.command == "feed") return cmd_feed(args);
  if (args.command == "chaos") return cmd_chaos(args);
  if (!args.command.empty()) {
    std::fprintf(stderr, "eftool: unknown command '%s'\n",
                 args.command.c_str());
  }
  return usage();
}
