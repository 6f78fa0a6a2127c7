// The benchmark's workloads. Each stands up a real efd and a real prd in
// this process, drives them as a closed loop with one client, checks
// every cycle's output, and reports metrics for the run's mode.
#pragma once

#include <string>

#include "harness.h"

namespace efbench {

/// steady_rate and peak_shift (rate_workload.cpp).
RunReport run_rate_workload(const Options& options);

/// sampled_pop (sampled_workload.cpp).
RunReport run_sampled_workload(const Options& options);

/// Writes a traced run's spans under .bench_build/spans/ and returns the
/// file's path relative to the working directory.
std::string write_spans(const SpanLog& spans, const Options& options);

}  // namespace efbench
