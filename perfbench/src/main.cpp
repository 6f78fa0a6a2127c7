// efd_cycle_bench: end-to-end efd cycle benchmark over loopback.
//
//   efd_cycle_bench --workload <steady_rate|peak_shift|sampled_pop>
//                   --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Prints a context line (host fingerprint, scale, knobs, failures) and,
// as the last line, {"correct", "attempted", "failed", "metrics"}.
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// report the per-layer metrics and write their spans under
// .bench_build/spans/. See perfbench/README.md.
#include <malloc.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace efbench {

std::string write_spans(const SpanLog& spans, const Options& options) {
  const std::filesystem::path dir =
      std::filesystem::path(".bench_build") / "spans";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path =
      dir / (options.workload + "-seed" + std::to_string(options.seed) +
             ".jsonl");
  spans.write_jsonl(path.string());
  return path.string();
}

}  // namespace efbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "efd_cycle_bench: %s\nusage: efd_cycle_bench --workload "
               "<steady_rate|peak_shift|sampled_pop> --seed <n> --seconds "
               "<s> --trace <0|1> [--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace efbench;
  // A peer closing mid-write must surface as a send error, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  // Fixed allocator policy, so that memory figures depend on the
  // program and not on thread timing. By default glibc gives threads
  // arenas in the order they first allocate, raises its mmap threshold
  // whenever a large block is freed and hands heap tops back to the
  // kernel; peak RSS then moved by 10-15% between runs of one seed. One
  // arena, large blocks (a cycle's O(RIB) buffers are ~26 MB at
  // 100k x 3) from the heap, and freed memory kept mapped for reuse.
  ::mallopt(M_ARENA_MAX, 1);
  ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 1 << 30);
  pin_feeder();

  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return usage("missing value");
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      const std::string t = v;
      if (t != "0" && t != "1") return usage("bad --trace");
      options.trace = t == "1";
    } else {
      return usage("unknown flag");
    }
  }

  RunReport report;
  if (options.workload == "steady_rate" || options.workload == "peak_shift") {
    report = run_rate_workload(options);
  } else if (options.workload == "sampled_pop") {
    report = run_sampled_workload(options);
  } else {
    return usage("unknown workload");
  }

  for (const auto& [key, value] : host_fingerprint()) {
    report.context["host." + key] = value;
  }
  report.context["seed"] = std::to_string(options.seed);
  report.context["seconds"] = std::to_string(options.seconds);
  report.context["trace"] = options.trace ? "1" : "0";
  report.context["smoke"] = options.smoke ? "1" : "0";
  report.context["knobs"] =
      "alloc_threads=1 decode_threads=0 incremental=on failsafe=on "
      "audit_interval=1 recovery=on announcer=1 prd";
  print_report(report);
  return 0;
}
