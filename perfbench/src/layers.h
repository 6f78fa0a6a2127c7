// The traced run's layer pipeline.
//
// In a traced run the benchmark calls each layer's public entry point
// itself, in efd's stage order, on the same inputs the daemon receives,
// and records one span per call. The daemon under measurement runs
// untraced beside it: the pipeline runs between cycles, never inside the
// daemon's timed interval. Spans stay in memory until the run ends.
//
// Stage order of one efd cycle (service/efd.cpp): BMP decode + RIB apply
// and sFlow decode + aggregate as bytes arrive; on the window-close
// marker, finalize + smooth (sampled feeds), audit of the previous
// cycle's set against the router read-back, allocation (with the journal
// capture/serialize/write inside the controller's cycle observer),
// announce (UPDATE encode), dataplane step, digest copy, recovery write.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/journal.h"
#include "bgp/speaker.h"
#include "bmp/collector.h"
#include "core/controller.h"
#include "dataplane/dataplane.h"
#include "harness.h"
#include "service/auditor.h"
#include "telemetry/sflow.h"
#include "topology/pop.h"

namespace efbench {

class LayerPipeline {
 public:
  struct Config {
    topology::Pop* pop = nullptr;
    /// Same controller settings as the daemon (incremental etc.).
    core::ControllerConfig controller;
    /// true: the pipeline keeps its own BMP collector fed by table_load()
    /// and bmp(); false: it reads the PoP's in-process collector RIB
    /// (the LiveFeed path, whose PoP RIB is what the BMP stream mirrors).
    bool own_collector = true;
    bool sampled = false;
    std::uint32_t sample_rate = 10;
    double smoothing_alpha = 0.4;
    bool journal = false;
    dataplane::DataplaneConfig dataplane;
    /// Scratch directory for the pipeline's journal and recovery file.
    std::string dir;
  };

  LayerPipeline(Config config, SpanLog& spans);
  ~LayerPipeline();

  /// Full-table BMP load: decode every frame, then apply, in chunks.
  void table_load(const std::vector<std::uint8_t>& stream);
  /// One window's BMP bytes: decode + apply spans.
  void bmp(std::uint64_t cycle, const std::vector<std::uint8_t>& stream);
  /// One window's EFS1 datagrams: decode + per-record handling spans.
  void datagrams(std::uint64_t cycle,
                 const std::vector<std::vector<std::uint8_t>>& datagrams);
  /// Router read-back ahead of the marker (what the cycle's audit reads).
  void read_back(std::uint64_t cycle,
                 service::PeeringRouterService& prd);
  /// The marker-triggered cycle, stage by stage.
  void cycle(std::uint64_t cycle, net::SimTime now, net::SimTime window_end);
  /// Closes the pipeline's journal (before the run's fd-leak check).
  void close() {
    journal_.reset();
    journal_drain_.reset();
  }

  /// Per-layer metrics derived from the spans and counters.
  struct Summary {
    double decode_mb_s = 0, apply_mb_s = 0;
    double decode_ns_per_record = 0, aggregate_ns_per_sample = 0;
    double finalize_ms = 0, smooth_ms = 0;
    double demand_changes = 0;
    double unmatched_samples = 0;
    double alloc_ms = 0;
    double capture_ms = 0, serialize_ms = 0, journal_write_ms = 0;
    double recovery_ms = 0, recovery_bytes = 0;
    double audit_ms = 0, readback_routes = 0, announce_ms = 0;
    double encode_us_per_update = 0;
    double dataplane_step_ms = 0, dataplane_ns_per_flow = 0;
    double dataplane_flows = 0;
    /// Median over cycles of the summed in-cycle stage spans.
    double stages_ms = 0;
    /// Median ratio of the pipeline's allocator wall to the daemon's.
    double alloc_wall_ratio = 0;
  };
  Summary summarize(
      const std::vector<service::EfdService::CycleDigest>& digests) const;

  /// The pipeline's own decisions per cycle (for the parity check).
  const std::vector<std::vector<core::Override>>& decisions() const {
    return decisions_;
  }

 private:
  /// efd's per-record handling: sampled records into the aggregator,
  /// precomputed rates into the direct demand matrix.
  void on_record(const telemetry::wire::SflowRecord& record);

  Config config_;
  SpanLog& spans_;
  std::unique_ptr<bmp::BmpCollector> collector_;
  std::unique_ptr<core::Controller> controller_;
  std::unique_ptr<telemetry::TrafficAggregator> aggregator_;
  telemetry::DemandSmoother smoother_;
  telemetry::DemandMatrix direct_;
  service::EnforcementAuditor auditor_;
  std::unique_ptr<JournalDrain> journal_drain_;
  std::unique_ptr<audit::JournalWriter> journal_;
  std::unique_ptr<dataplane::Dataplane> dataplane_;
  std::map<net::Prefix, core::Override> intent_;
  std::map<net::Prefix, bgp::BgpSpeaker::Origination> announced_;
  std::vector<bgp::Route> read_back_;
  std::vector<std::vector<core::Override>> decisions_;
  std::vector<double> alloc_wall_ms_;
  std::vector<double> flows_;
  std::vector<double> recovery_bytes_;
  std::vector<double> readback_sizes_;
  std::vector<double> window_changes_;
  std::uint64_t current_cycle_ = 0;
  int current_alloc_span_ = -1;
  std::uint64_t window_records_ = 0;
  std::uint64_t table_bytes_ = 0;
  double table_decode_ms_ = 0, table_apply_ms_ = 0;
  std::uint64_t records_decoded_ = 0;
  std::uint64_t records_handled_ = 0;
  std::uint64_t updates_encoded_ = 0;
  net::SimTime last_step_;
  bool stepped_ = false;
};

}  // namespace efbench
