// Turns one run's loop log, daemon counters and (traced runs) layer spans
// into the reported metrics. Untraced runs report the end-to-end set,
// traced runs the per-layer set.
#pragma once

#include <vector>

#include "harness.h"
#include "layers.h"

namespace efbench {

struct ReportInputs {
  const Options* options = nullptr;
  /// The daemon's digests of the measured cycles, aligned with the loop.
  std::vector<service::EfdService::CycleDigest> digests;
  service::EfdService::IngestSnapshot ingest;
  /// audit_unrepaired as it stood after set-up.
  std::uint64_t unrepaired_at_start = 0;
  /// Null in untraced runs.
  const LayerPipeline* pipeline = nullptr;
  /// Journal growth over the measured cycles.
  std::uint64_t journal_bytes = 0;
};

/// Applies the per-cycle output checks that need the digests (ladder
/// action, prd Adj-RIB-In parity), then fills attempted/failed and the
/// metrics for the run's mode.
void finish_report(RunReport& report, LoopLog& loop, const ReportInputs& in);

}  // namespace efbench
