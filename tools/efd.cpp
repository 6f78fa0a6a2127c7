// efd — the Edge Fabric controller daemon.
//
//   efd [--clients N] [--pops N] [--seed S] [--pop K]
//       [--bmp PORT] [--sflow PORT] [--http PORT]
//       [--inject] [--real-time] [--cycle-secs S] [--sample-rate N]
//
// Listens for BMP sessions on TCP and EFS1 sFlow datagrams on UDP,
// builds a RIB and a demand estimate from them, and runs controller
// cycles on window-close markers (plus a wall-clock timer with
// --real-time). GET /status and /metrics on the HTTP port.
//
// The PoP topology (interfaces, capacities, NEXT_HOP -> egress map)
// still comes from the deterministic generated world — the daemon needs
// it to resolve routes to egresses — while the RIB and demand come
// exclusively from the sockets. Default stance is shadow (compute, do
// not push); --inject enables BGP injection into the attached PoP.
//
// Signals: SIGINT/SIGTERM shut down in an orderly way through the event
// loop's signalfd. docs/OPERATIONS.md covers the operator workflow.
#include <csignal>
#include <cstdio>
#include <string>

#include "core/controller.h"
#include "flags.h"
#include "net/units.h"
#include "service/efd.h"
#include "topology/pop.h"
#include "topology/world.h"

namespace {

using namespace ef;

int usage() {
  std::fprintf(stderr,
               "usage: efd [--clients N] [--pops N] [--seed S] [--pop K]\n"
               "           [--bmp PORT] [--sflow PORT] [--http PORT]\n"
               "           [--inject] [--real-time] [--cycle-secs S]\n"
               "           [--sample-rate N] [--incremental]\n"
               "           [--dataplane] [--dp-queue-ms MS] [--dp-slots N]\n"
               "           [--dp-elephant-frac F]\n"
               "           [--audit] [--audit-interval N]\n"
               "           [--audit-max-repairs N]\n"
               "           [--recovery-file FILE] [--recover]\n"
               "  (port 0 = pick an ephemeral port and print it)\n"
               "  Boolean flags (--inject, --incremental, ...) take no value.\n"
               "  --incremental: delta allocation cycles (decisions stay\n"
               "  bitwise identical to full recomputes). See\n"
               "  docs/SCALING.md.\n"
               "  --dataplane: flow-level dataplane emulation (hashed\n"
               "  flows, bounded interface queues, measured drops and\n"
               "  reorder events on /metrics). --dp-queue-ms: queue depth\n"
               "  in ms of buffering (>= 0). --dp-slots: ECMP member\n"
               "  slots per interface (>= 1). --dp-elephant-frac:\n"
               "  elephant fraction of the flow mix in [0,1].\n"
               "  --audit: closed-loop enforcement audit each cycle\n"
               "  (--audit-interval N = every Nth, --audit-max-repairs N\n"
               "  = per-pass remediation budget). --recovery-file FILE:\n"
               "  persist a warm-restart snapshot each healthy cycle;\n"
               "  --recover: resume from it in hold-last-good instead of\n"
               "  cold fail-static. docs/FAILSAFE.md has the runbook.\n");
  return 2;
}

std::uint16_t port_arg(const tools::FlagMap& args, const std::string& key) {
  const long port = args.num(key, 0);
  if (port < 0 || port > 65535) args.bad_value(key);
  return static_cast<std::uint16_t>(port);
}

}  // namespace

int main(int argc, char** argv) {
  tools::FlagMap args("efd");
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--help" || key == "-h") return usage();
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "efd: unexpected operand '%s'\n", key.c_str());
      return usage();
    }
    i = args.parse(argc, argv, i);
  }

  // Block the shutdown signals before any thread exists so the event
  // loop's signalfd is their only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  sigprocmask(SIG_BLOCK, &sigs, nullptr);

  topology::WorldConfig world_config;
  world_config.num_clients = static_cast<int>(args.num("clients", 56));
  world_config.num_pops = static_cast<int>(args.num("pops", 4));
  world_config.seed = static_cast<std::uint64_t>(args.num("seed", 42));
  const topology::World world = topology::World::generate(world_config);
  const std::size_t pop_index = static_cast<std::size_t>(args.num("pop", 0));
  if (pop_index >= world.pops().size()) {
    std::fprintf(stderr, "efd: --pop %zu out of range (%zu PoPs)\n",
                 pop_index, world.pops().size());
    return 2;
  }
  topology::Pop pop(world, pop_index);

  service::EfdConfig config;
  config.bmp_port = port_arg(args, "bmp");
  config.sflow_port = port_arg(args, "sflow");
  config.http_port = port_arg(args, "http");
  config.controller.enforcement = args.flag("inject")
                                      ? core::Enforcement::kBgpInjection
                                      : core::Enforcement::kShadow;
  config.controller.cycle_period =
      net::SimTime::seconds(static_cast<double>(args.num("cycle-secs", 30)));
  config.sflow_sample_rate =
      static_cast<std::uint32_t>(args.num("sample-rate", 10));
  config.real_time_cycles = args.flag("real-time");
  config.controller.incremental = args.flag("incremental");
  // Dataplane knobs are validated even while --dataplane is absent: a
  // typo'd value should fail loudly, not silently arm nothing.
  config.dataplane.enabled = args.flag("dataplane");
  const double queue_ms = args.real("dp-queue-ms", 50.0);
  if (queue_ms < 0.0) args.bad_value("dp-queue-ms");
  config.dataplane.queue_depth_ms = queue_ms;
  const long dp_slots = args.num("dp-slots", 16);
  if (dp_slots < 1 || dp_slots > 4096) args.bad_value("dp-slots");
  config.dataplane.ecmp_slots = static_cast<std::uint32_t>(dp_slots);
  const double elephant_frac = args.real("dp-elephant-frac", 0.08);
  if (elephant_frac < 0.0 || elephant_frac > 1.0) {
    args.bad_value("dp-elephant-frac");
  }
  config.dataplane.flows.elephant_fraction = elephant_frac;
  config.dataplane.seed = static_cast<std::uint64_t>(args.num("seed", 42));
  // Audit / warm-restart knobs, validated even while --audit is absent
  // (same convention as the --dp-* block above).
  config.audit.enabled = args.flag("audit") ||
                         args.has("audit-interval") ||
                         args.has("audit-max-repairs");
  const long audit_interval = args.num("audit-interval", 1);
  if (audit_interval < 1) args.bad_value("audit-interval");
  config.audit.interval_cycles =
      static_cast<std::uint32_t>(audit_interval);
  const long audit_repairs = args.num("audit-max-repairs", 64);
  if (audit_repairs < 0) args.bad_value("audit-max-repairs");
  config.audit.max_repairs = static_cast<std::uint64_t>(audit_repairs);
  config.recovery_path = args.get("recovery-file", "");
  config.recover = args.flag("recover");
  if (config.recover && config.recovery_path.empty()) {
    std::fprintf(stderr, "efd: --recover requires --recovery-file FILE\n");
    return 2;
  }
  if (!args.all_read("efd")) return usage();

  service::EfdService service(pop, config);
  service.shutdown_on_signals();
  service.start();

  std::printf("efd: pop %s (%zu interfaces), %s enforcement\n",
              pop.name().c_str(), pop.def().interfaces.size(),
              args.flag("inject") ? "bgp-injection" : "shadow");
  if (config.controller.incremental) {
    std::printf("efd: incremental allocation on\n");
  }
  if (config.audit.enabled) {
    std::printf("efd: enforcement audit on (every %u cycle(s), max %ju "
                "repair(s)/pass)\n",
                config.audit.interval_cycles,
                static_cast<std::uintmax_t>(config.audit.max_repairs));
  }
  if (!config.recovery_path.empty()) {
    std::printf("efd: recovery snapshots -> %s%s\n",
                config.recovery_path.c_str(),
                config.recover ? " (warm restart requested)" : "");
  }
  std::printf("efd: bmp 127.0.0.1:%u  sflow 127.0.0.1:%u  http 127.0.0.1:%u\n",
              service.bmp_port(), service.sflow_port(), service.http_port());
  std::fflush(stdout);

  service.wait();  // until SIGINT/SIGTERM
  std::printf("efd: stopped\n");
  return 0;
}
