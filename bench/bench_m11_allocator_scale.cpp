// M11 (§ scalability): allocator cycle cost vs problem size — how long
// one warm allocation takes as prefixes and egress options grow (up to
// the full-Internet-table 1M-prefix scale) — plus the end-to-end
// controller cycle (allocation + BGP injection) on a live PoP.
// scripts/bench.sh turns the BM_AllocatorCycle/<prefixes>/<routes> rows
// into BENCH_alloc.json's alloc_scaling curve and the full_table_target
// verdict; docs/SCALING.md §4 documents the methodology. Uses
// google-benchmark.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <tuple>

#include "core/allocator.h"
#include "core/controller.h"
#include "topology/pop.h"
#include "workload/demand.h"

namespace {

using namespace ef;

/// Synthetic environment: `prefixes` prefixes, each with `routes_per`
/// candidate routes spread over `interfaces` interfaces; demand sized so
/// that ~10% of interfaces are overloaded.
struct SyntheticEnv {
  bgp::Rib rib;
  telemetry::InterfaceRegistry interfaces;
  telemetry::DemandMatrix demand;
  std::map<net::IpAddr, core::EgressView> egress;

  SyntheticEnv(int prefixes, int routes_per, int interface_count) {
    for (int i = 0; i < interface_count; ++i) {
      // Every 10th interface is under-provisioned.
      const double gbps = (i % 10 == 0) ? 4.0 : 40.0;
      interfaces.add(telemetry::InterfaceId(static_cast<std::uint32_t>(i)),
                     net::Bandwidth::gbps(gbps));
    }
    std::vector<net::IpAddr> peers;
    for (int i = 0; i < interface_count; ++i) {
      const net::IpAddr addr =
          net::IpAddr::v4(0xac100000u + static_cast<std::uint32_t>(i));
      const bgp::PeerType type = i % 4 == 3 ? bgp::PeerType::kTransit
                                            : bgp::PeerType::kPrivatePeer;
      egress[addr] = core::EgressView{
          telemetry::InterfaceId(static_cast<std::uint32_t>(i)), type, addr};
      peers.push_back(addr);
    }

    net::Rng rng(7);
    for (int p = 0; p < prefixes; ++p) {
      const net::Prefix prefix(
          net::IpAddr::v4(0x64000000u + (static_cast<std::uint32_t>(p) << 8)),
          24);
      for (int r = 0; r < routes_per; ++r) {
        const std::size_t peer_index = static_cast<std::size_t>(
            (p + r * 7) % interface_count);
        bgp::Route route;
        route.prefix = prefix;
        route.learned_from = bgp::PeerId(static_cast<std::uint32_t>(
            peer_index * 100000 + static_cast<std::size_t>(r)));
        const core::EgressView& view = egress.at(peers[peer_index]);
        route.peer_type = view.type;
        route.neighbor_as = bgp::AsNumber(60000 + static_cast<std::uint32_t>(peer_index));
        route.neighbor_router_id =
            bgp::RouterId(static_cast<std::uint32_t>(peer_index));
        route.attrs.next_hop = peers[peer_index];
        route.attrs.local_pref = bgp::LocalPref(
            view.type == bgp::PeerType::kTransit ? 200 : 340 - r);
        route.attrs.has_local_pref = true;
        route.attrs.as_path =
            bgp::AsPath{route.neighbor_as, bgp::AsNumber(30000)};
        rib.announce(route);
      }
      demand.set(prefix,
                 net::Bandwidth::mbps(rng.uniform(5.0, 400.0)));
    }
  }

  core::EgressResolver resolver() const {
    return [this](const bgp::Route& route) -> std::optional<core::EgressView> {
      auto it = egress.find(route.attrs.next_hop);
      if (it == egress.end()) return std::nullopt;
      return it->second;
    };
  }
};

/// The 1M-prefix environment takes tens of seconds (and ~GBs) to build,
/// so each (prefixes, routes, interfaces) environment is built once and
/// shared across every benchmark instance that asks for it. Safe because
/// no benchmark mutates the env: demand is fixed and the RIB only gains
/// ranking-cache entries (which allocation decisions never depend on).
SyntheticEnv& cached_env(int prefixes, int routes_per, int interfaces) {
  static std::map<std::tuple<int, int, int>, std::unique_ptr<SyntheticEnv>>
      cache;
  auto& slot = cache[{prefixes, routes_per, interfaces}];
  if (!slot) {
    slot = std::make_unique<SyntheticEnv>(prefixes, routes_per, interfaces);
  }
  return *slot;
}

void BM_AllocatorCycle(benchmark::State& state) {
  const int prefixes = static_cast<int>(state.range(0));
  const int routes_per = static_cast<int>(state.range(1));
  SyntheticEnv& env = cached_env(prefixes, routes_per, 40);
  core::Allocator allocator{core::AllocatorConfig{}};
  core::Allocator::Workspace workspace;
  const auto resolver = env.resolver();
  // One untimed cycle warms the workspace and the ranking cache: the
  // timed loop then measures the warm steady-state cycle a controller
  // pays every ~30s.
  benchmark::DoNotOptimize(allocator.allocate(
      env.rib, env.demand, env.interfaces, resolver, workspace));
  for (auto _ : state) {
    auto result = allocator.allocate(env.rib, env.demand, env.interfaces,
                                     resolver, workspace);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * prefixes);
  state.counters["prefixes"] = prefixes;
  state.counters["routes/prefix"] = routes_per;
}
BENCHMARK(BM_AllocatorCycle)
    ->Args({500, 3})
    ->Args({2000, 3})
    ->Args({8000, 3})
    ->Args({32000, 3})
    ->Args({8000, 6})
    ->Args({8000, 12})
    // The prefix scaling curve (docs/SCALING.md §4): the same warm cycle
    // at quarter- and full-Internet-table scale. scripts/bench.sh derives
    // alloc_scaling and the full_table_target verdict (1M × 3 routes
    // ≤ 2 s) from these rows.
    ->Args({250000, 3})
    ->Args({1000000, 3})
    ->Unit(benchmark::kMillisecond);

void BM_ControllerCycleEndToEnd(benchmark::State& state) {
  topology::WorldConfig config;
  config.num_clients = 56;
  config.num_pops = 1;
  static const topology::World world = topology::World::generate(config);
  topology::Pop pop(world, 0);
  core::Controller controller(pop, {});
  controller.connect();
  workload::DemandGenerator gen(world, 0, {});

  // Alternate between peak and 90%-of-peak demand so each cycle changes
  // the override set (worst case: allocation + announce + withdraw).
  const telemetry::DemandMatrix peak = gen.baseline(net::SimTime::hours(0));
  telemetry::DemandMatrix dipped;
  peak.for_each([&](const net::Prefix& prefix, net::Bandwidth rate) {
    dipped.set(prefix, rate * 0.9);
  });

  std::int64_t t = 0;
  for (auto _ : state) {
    const auto& demand = (t % 2 == 0) ? peak : dipped;
    auto stats =
        controller.run_cycle(demand, net::SimTime::seconds(30.0 * static_cast<double>(t)));
    benchmark::DoNotOptimize(stats);
    ++t;
  }
  state.counters["prefixes"] =
      static_cast<double>(pop.collector().rib().prefix_count());
}
BENCHMARK(BM_ControllerCycleEndToEnd)->Unit(benchmark::kMillisecond);

void BM_RibBestLookup(benchmark::State& state) {
  SyntheticEnv& env = cached_env(10000, 4, 40);
  std::vector<net::Prefix> probes;
  env.demand.for_each([&](const net::Prefix& prefix, net::Bandwidth) {
    probes.push_back(prefix);
  });
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.rib.best(probes[i % probes.size()]));
    ++i;
  }
}
BENCHMARK(BM_RibBestLookup);

}  // namespace

// Proof-of-build-mode for the recording script: our bench TUs must be
// compiled with NDEBUG (Release). The vendored libbenchmark reports its
// OWN build mode in library_build_type, which on distro packages is
// often "debug" even in a Release tree; ef_bench_build is about THIS
// binary's translation units, which is what the timings depend on.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("ef_bench_build", "release");
#else
  benchmark::AddCustomContext("ef_bench_build", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
