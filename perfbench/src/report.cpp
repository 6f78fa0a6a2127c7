#include "report.h"

#include <algorithm>
#include <cstdio>

namespace efbench {

namespace {

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

}  // namespace

void finish_report(RunReport& report, LoopLog& loop, const ReportInputs& in) {
  const std::size_t cycles = loop.cycles();
  if (in.digests.size() != cycles) {
    report.fail("daemon ran " + std::to_string(in.digests.size()) +
                " measured cycles, feeder drove " + std::to_string(cycles));
  }
  for (std::size_t i = 0; i < std::min(cycles, in.digests.size()); ++i) {
    const auto& digest = in.digests[i];
    if (digest.action != audit::FailsafeAction::kRun) {
      loop.fail_cycle(i, "ladder did not run cycle " + std::to_string(i));
    }
    if (i < loop.held.size() &&
        loop.held[i] != digest_fingerprint(digest.overrides)) {
      loop.fail_cycle(i, "cycle " + std::to_string(i) +
                             ": prd Adj-RIB-In differs from the digest");
    }
  }
  if (in.ingest.audit_unrepaired != in.unrepaired_at_start) {
    report.fail("audit_unrepaired grew to " +
                std::to_string(in.ingest.audit_unrepaired));
  }
  if (in.ingest.sflow_datagrams != loop.datagrams_sent) {
    report.fail("datagrams lost: sent " + std::to_string(loop.datagrams_sent) +
                ", daemon received " +
                std::to_string(in.ingest.sflow_datagrams));
  }

  report.attempted = std::max<std::uint64_t>(1, cycles);
  report.failed = 0;
  for (std::size_t i = 0; i < cycles; ++i) {
    if (!loop.cycle_error[i].empty()) {
      ++report.failed;
      report.fail(loop.cycle_error[i]);
    }
  }
  if (cycles == 0) {
    report.failed = 1;
    report.fail("no cycle was measured");
  }

  // A failed cycle misses every latency limit.
  std::vector<double> latency = loop.cycle_ms;
  latency.resize(cycles, static_cast<double>(kBarrier.count()));
  for (std::size_t i = 0; i < cycles; ++i) {
    if (!loop.cycle_error[i].empty()) {
      latency[i] = static_cast<double>(kBarrier.count());
    }
  }
  const double p50 = median(latency);
  const Tail tail = tail_with_ten_beyond(latency);
  report.context["cycles"] = std::to_string(cycles);
  report.context["cycle_tail_percentile"] = fixed(tail.percentile, 0);
  report.context["setup_runs"] = std::to_string(loop.setup_s.size());
  {
    std::vector<double> sizes;
    for (const auto& d : in.digests) {
      sizes.push_back(static_cast<double>(d.overrides.size()));
    }
    report.context["overrides_p50"] = fixed(median(sizes), 1);
    report.context["updates_per_cycle_p50"] = fixed(median(loop.updates), 1);
  }

  if (!in.options->trace) {
    report.set("setup_s", median(loop.setup_s), "s");
    report.set("cycle_p50_ms", p50, "ms");
    report.set("cycle_tail_ms", tail.value, "ms");
    report.set("feed_krec_s", median(loop.feed_krec_s), "krec/s");
    report.set("peak_rss_mb", loop.peak_rss_mb, "MB");
    return;
  }

  // --- per-layer metrics (traced run) -------------------------------------
  LayerPipeline::Summary layers;
  if (in.pipeline) layers = in.pipeline->summarize(in.digests);

  std::vector<double> dirty, active, changed;
  double incremental = 0, fallbacks = 0, non_run = 0;
  for (std::size_t i = 0; i < in.digests.size(); ++i) {
    const auto& d = in.digests[i];
    incremental += d.incremental_cycle ? 1 : 0;
    fallbacks += static_cast<double>(d.full_fallbacks);
    non_run += d.action == audit::FailsafeAction::kRun ? 0 : 1;
    dirty.push_back(static_cast<double>(d.dirty_prefixes));
    active.push_back(static_cast<double>(d.overrides.size()));
    if (i > 0) {
      changed.push_back(static_cast<double>(
          overrides_changed(in.digests[i - 1].overrides, d.overrides)));
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(in.digests.size()));

  report.set("bmp.decode_mb_s", layers.decode_mb_s, "MB/s");
  report.set("bmp.apply_mb_s", layers.apply_mb_s, "MB/s");
  report.set("bmp.churn_ms", median(loop.bmp_ms), "ms");
  report.set("bmp.malformed", static_cast<double>(in.ingest.bmp_malformed),
             "count");

  report.set("telemetry.decode_ns_per_record", layers.decode_ns_per_record,
             "ns");
  report.set("telemetry.aggregate_ns_per_sample",
             layers.aggregate_ns_per_sample, "ns");
  report.set("telemetry.finalize_ms", layers.finalize_ms, "ms");
  report.set("telemetry.smooth_ms", layers.smooth_ms, "ms");
  report.set("telemetry.demand_changes", layers.demand_changes, "count");
  report.set("telemetry.unmatched_samples", layers.unmatched_samples,
             "count");

  report.set("core.alloc_ms", layers.alloc_ms, "ms");
  report.set("core.incremental_frac", incremental / n, "frac");
  report.set("core.fallbacks", fallbacks, "count");
  report.set("core.dirty_prefixes", median(dirty), "count");
  report.set("core.overrides_active", median(active), "count");
  report.set("core.overrides_changed", median(changed), "count");
  report.set("core.churn_deferred",
             static_cast<double>(in.ingest.churn_deferred), "count");

  report.set("audit.capture_ms", layers.capture_ms, "ms");
  report.set("audit.serialize_ms", layers.serialize_ms, "ms");
  report.set("audit.journal_write_ms", layers.journal_write_ms, "ms");
  report.set("audit.journal_bytes_per_cycle",
             static_cast<double>(in.journal_bytes) / n, "B");
  report.set("audit.recovery_ms", layers.recovery_ms, "ms");
  report.set("audit.recovery_bytes", layers.recovery_bytes, "B");

  report.set("service.audit_ms", layers.audit_ms, "ms");
  report.set("service.readback_routes", layers.readback_routes, "count");
  report.set("service.announce_ms", layers.announce_ms, "ms");
  report.set("service.updates_per_cycle", median(loop.updates), "count");
  report.set("service.withdraws_per_cycle", median(loop.withdraws), "count");
  report.set("service.audit_unrepaired",
             static_cast<double>(in.ingest.audit_unrepaired), "count");
  report.set("service.non_run_cycles", non_run, "count");

  report.set("bgp.encode_us_per_update", layers.encode_us_per_update, "us");
  report.set("bgp.prd_apply_ms", median(loop.prd_apply_ms), "ms");

  report.set("dataplane.step_ms", layers.dataplane_step_ms, "ms");
  report.set("dataplane.ns_per_flow", layers.dataplane_ns_per_flow, "ns");
  report.set("dataplane.flows_active",
             static_cast<double>(in.ingest.dataplane_flows_active), "count");

  // The daemon ran untraced in this run too, so its cycle median is the
  // untraced figure; what the named stages do not cover is socket hops,
  // loop scheduling and the pipeline's own overhead.
  report.set("io.unattributed_ms",
             p50 - layers.stages_ms - median(loop.prd_apply_ms), "ms");
  report.set("io.datagrams_lost",
             static_cast<double>(loop.datagrams_sent -
                                 std::min(loop.datagrams_sent,
                                          in.ingest.sflow_datagrams)),
             "count");
  report.set("failed_frac",
             static_cast<double>(report.failed) /
                 static_cast<double>(report.attempted),
             "frac");
  report.context["traced_cycle_p50_ms"] = fixed(p50, 3);
  report.context["alloc_wall_ratio_pipeline_to_daemon"] =
      fixed(layers.alloc_wall_ratio, 3);
}

}  // namespace efbench
