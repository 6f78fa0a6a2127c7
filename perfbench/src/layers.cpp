#include "layers.h"

#include <algorithm>
#include <cstdio>

#include "audit/snapshot.h"
#include "bgp/policy.h"
#include "bgp/wire.h"
#include "bmp/wire.h"
#include "net/log.h"
#include "telemetry/sflow_wire.h"

namespace efbench {

namespace {

/// Router key the daemon assigns to the first BMP session it sees; the
/// rate workloads feed exactly one.
constexpr std::uint32_t kRouterKey = 1;

/// Splits a BMP byte stream into whole frames.
std::vector<std::span<const std::uint8_t>> split_frames(
    const std::vector<std::uint8_t>& stream) {
  std::vector<std::span<const std::uint8_t>> frames;
  std::size_t offset = 0;
  while (offset < stream.size()) {
    const std::span<const std::uint8_t> rest(stream.data() + offset,
                                             stream.size() - offset);
    const bmp::FrameDecode head = bmp::peek_frame(rest);
    if (!head.ok() || head.consumed > rest.size()) break;
    frames.push_back(rest.first(head.consumed));
    offset += head.consumed;
  }
  return frames;
}

}  // namespace

LayerPipeline::LayerPipeline(Config config, SpanLog& spans)
    : config_(std::move(config)),
      spans_(spans),
      smoother_(config_.smoothing_alpha),
      auditor_([this] {
        service::AuditorConfig audit;
        audit.enabled = true;
        audit.interval_cycles = 1;
        audit.override_local_pref = config_.controller.override_local_pref;
        return audit;
      }()) {
  core::ControllerConfig controller = config_.controller;
  controller.enforcement = core::Enforcement::kShadow;
  controller_ = std::make_unique<core::Controller>(*config_.pop, controller);
  if (config_.own_collector) {
    collector_ = std::make_unique<bmp::BmpCollector>();
    controller_->set_rib_source(&collector_->rib());
  }
  if (config_.sampled) {
    aggregator_ = std::make_unique<telemetry::TrafficAggregator>(
        config_.pop->prefix_table(), config_.sample_rate);
  }
  if (config_.journal) {
    {
      // Drained off the feeder's CPU, as the daemon's journal is drained
      // off the daemon's.
      const DaemonCpus daemon_cpus;
      journal_drain_ =
          std::make_unique<JournalDrain>(config_.dir + "/trace.efj");
    }
    EF_CHECK(journal_drain_->ok(),
             "cannot create the journal FIFO " << journal_drain_->path());
    journal_ = std::make_unique<audit::JournalWriter>(journal_drain_->path());
    controller_->set_cycle_observer(
        [this](const core::Controller::CycleRecord& record) {
          audit::CycleSnapshot snapshot;
          {
            Scoped span(&spans_, "audit.capture", current_alloc_span_,
                        current_cycle_);
            snapshot = audit::capture_cycle(record, /*include_timing=*/true);
          }
          std::vector<std::uint8_t> bytes;
          {
            Scoped span(&spans_, "audit.serialize", current_alloc_span_,
                        current_cycle_);
            bytes = snapshot.serialize();
          }
          Scoped span(&spans_, "audit.journal_write", current_alloc_span_,
                      current_cycle_);
          journal_->append(bytes);
        });
  }
  if (config_.dataplane.enabled) {
    dataplane_ = std::make_unique<dataplane::Dataplane>(
        config_.pop->interfaces(), config_.dataplane, config_.pop->index());
  }
}

LayerPipeline::~LayerPipeline() = default;

void LayerPipeline::table_load(const std::vector<std::uint8_t>& stream) {
  const auto frames = split_frames(stream);
  constexpr std::size_t kChunk = 4096;
  for (std::size_t i = 0; i < frames.size(); i += kChunk) {
    const std::size_t end = std::min(frames.size(), i + kChunk);
    std::vector<bmp::FrameDecode> decoded;
    decoded.reserve(end - i);
    const auto t0 = Clock::now();
    for (std::size_t f = i; f < end; ++f) {
      decoded.push_back(bmp::decode_frame(frames[f]));
    }
    const auto t1 = Clock::now();
    for (const bmp::FrameDecode& frame : decoded) {
      if (frame.ok() && collector_) collector_->apply(kRouterKey, *frame.message);
    }
    const auto t2 = Clock::now();
    spans_.add("bmp.table_decode", t0, t1, -1, 0);
    spans_.add("bmp.table_apply", t1, t2, -1, 0);
    table_decode_ms_ += ms_between(t0, t1);
    table_apply_ms_ += ms_between(t1, t2);
  }
  table_bytes_ += stream.size();
}

void LayerPipeline::bmp(std::uint64_t cycle,
                        const std::vector<std::uint8_t>& stream) {
  const auto frames = split_frames(stream);
  std::vector<bmp::FrameDecode> decoded;
  decoded.reserve(frames.size());
  {
    Scoped span(&spans_, "bmp.decode", -1, cycle);
    for (const auto& frame : frames) decoded.push_back(bmp::decode_frame(frame));
  }
  Scoped span(&spans_, "bmp.apply", -1, cycle);
  for (const bmp::FrameDecode& frame : decoded) {
    if (frame.ok() && collector_) collector_->apply(kRouterKey, *frame.message);
  }
}

void LayerPipeline::datagrams(
    std::uint64_t cycle,
    const std::vector<std::vector<std::uint8_t>>& datagrams) {
  std::vector<telemetry::wire::DatagramDecode> decoded;
  decoded.reserve(datagrams.size());
  {
    Scoped span(&spans_, "telemetry.decode", -1, cycle);
    for (const auto& datagram : datagrams) {
      decoded.push_back(telemetry::wire::decode_datagram(datagram));
    }
  }
  Scoped span(&spans_, "telemetry.aggregate", -1, cycle);
  for (const auto& datagram : decoded) {
    records_decoded_ += datagram.records.size();
    for (const auto& record : datagram.records) on_record(record);
  }
}

void LayerPipeline::on_record(const telemetry::wire::SflowRecord& record) {
  if (const auto* sample = std::get_if<telemetry::FlowSample>(&record)) {
    if (aggregator_) aggregator_->ingest(*sample);
    ++records_handled_;
    ++window_records_;
  } else if (const auto* rate =
                 std::get_if<telemetry::wire::DemandRate>(&record)) {
    direct_.set(rate->prefix, rate->rate);
    ++records_handled_;
    ++window_records_;
  }
}

void LayerPipeline::read_back(std::uint64_t cycle,
                              service::PeeringRouterService& prd) {
  Scoped span(&spans_, "service.readback", -1, cycle);
  read_back_ = prd.routes();
}

void LayerPipeline::cycle(std::uint64_t cycle, net::SimTime now,
                          net::SimTime window_end) {
  current_cycle_ = cycle;
  Scoped root(&spans_, "cycle", -1, cycle);
  const telemetry::DemandMatrix* demand = &direct_;
  if (config_.sampled) {
    telemetry::DemandMatrix estimate;
    {
      Scoped span(&spans_, "telemetry.finalize", root.id(), cycle);
      estimate = aggregator_->finalize_window(window_end);
    }
    {
      Scoped span(&spans_, "telemetry.smooth", root.id(), cycle);
      smoother_.update(estimate);
    }
    demand = &smoother_.current();
    window_changes_.push_back(static_cast<double>(estimate.prefix_count()));
  } else {
    window_changes_.push_back(static_cast<double>(window_records_));
  }
  window_records_ = 0;

  {
    Scoped span(&spans_, "service.audit", root.id(), cycle);
    auditor_.audit(intent_, read_back_, now);
  }
  readback_sizes_.push_back(static_cast<double>(read_back_.size()));

  {
    Scoped span(&spans_, "core.run_cycle", root.id(), cycle);
    current_alloc_span_ = span.id();
    const core::CycleStats stats = controller_->run_cycle(*demand, now);
    alloc_wall_ms_.push_back(
        std::chrono::duration<double, std::milli>(stats.allocation_wall)
            .count());
  }

  const auto& active = controller_->active_overrides();
  {
    // The announcer's path: the override set as originations, then one
    // UPDATE per new or changed prefix and one per withdrawn prefix.
    Scoped span(&spans_, "service.announce", root.id(), cycle);
    std::map<net::Prefix, bgp::BgpSpeaker::Origination> originations;
    for (const auto& [prefix, entry] : active) {
      bgp::BgpSpeaker::Origination origination;
      origination.path_tail = entry.as_path;
      origination.local_pref =
          bgp::LocalPref(config_.controller.override_local_pref);
      origination.next_hop = entry.next_hop;
      origination.communities = {core::kOverrideCommunity,
                                 bgp::peer_type_community(entry.target_type)};
      originations.emplace(prefix, std::move(origination));
    }
    Scoped encode(&spans_, "bgp.encode", span.id(), cycle);
    for (const auto& [prefix, origination] : originations) {
      const auto it = announced_.find(prefix);
      if (it != announced_.end() && it->second == origination) continue;
      bgp::UpdateMessage update;
      update.attrs.as_path = origination.path_tail;
      update.attrs.next_hop = *origination.next_hop;
      update.attrs.local_pref = *origination.local_pref;
      update.attrs.has_local_pref = true;
      update.attrs.communities = origination.communities;
      update.nlri.push_back(prefix);
      const auto bytes = bgp::wire::encode(bgp::Message(update));
      updates_encoded_ += bytes.empty() ? 0 : 1;
    }
    for (const auto& [prefix, origination] : announced_) {
      if (originations.contains(prefix)) continue;
      bgp::UpdateMessage withdraw;
      withdraw.withdrawn.push_back(prefix);
      const auto bytes = bgp::wire::encode(bgp::Message(withdraw));
      updates_encoded_ += bytes.empty() ? 0 : 1;
    }
    announced_ = std::move(originations);
  }

  if (dataplane_) {
    Scoped span(&spans_, "dataplane.step", root.id(), cycle);
    const net::SimTime dt = stepped_ && now > last_step_
                                ? now - last_step_
                                : config_.controller.cycle_period;
    const bgp::Rib& rib =
        collector_ ? collector_->rib() : config_.pop->collector().rib();
    const dataplane::DataplaneStepStats stats = dataplane_->step(
        *demand, now, dt,
        [&](const net::Prefix& prefix,
            std::vector<dataplane::WcmpEgress>& out) {
          if (const auto it = active.find(prefix); it != active.end()) {
            out.push_back({it->second.target_interface, 1.0});
            return;
          }
          if (const bgp::Route* best = rib.best(prefix)) {
            if (const auto egress = config_.pop->egress_of_route(*best)) {
              out.push_back({egress->interface, 1.0});
            }
          }
        });
    last_step_ = now;
    stepped_ = true;
    flows_.push_back(static_cast<double>(stats.flows_active));
  }

  std::vector<core::Override> digest;
  {
    Scoped span(&spans_, "service.digest", root.id(), cycle);
    digest.reserve(active.size());
    for (const auto& [prefix, entry] : active) digest.push_back(entry);
    intent_ = active;
  }

  {
    Scoped span(&spans_, "audit.recovery", root.id(), cycle);
    audit::RecoverySnapshot snap;
    snap.when = now;
    snap.overrides = digest;
    const std::vector<std::uint8_t> bytes = snap.serialize();
    recovery_bytes_.push_back(static_cast<double>(bytes.size()));
    const std::string path = config_.dir + "/trace.efc";
    {
      audit::JournalWriter writer(path + ".tmp");
      writer.append(bytes);
      writer.flush();
    }
    std::rename((path + ".tmp").c_str(), path.c_str());
  }
  decisions_.push_back(std::move(digest));
}

LayerPipeline::Summary LayerPipeline::summarize(
    const std::vector<service::EfdService::CycleDigest>& digests) const {
  Summary out;
  const auto per_cycle = [this](const std::string& name) {
    std::vector<double> values;
    for (const auto& [cycle, ms] : spans_.per_cycle_ms(name)) {
      values.push_back(ms);
    }
    return values;
  };
  const auto total = [&per_cycle](const std::string& name) {
    double sum = 0;
    for (double v : per_cycle(name)) sum += v;
    return sum;
  };

  if (table_decode_ms_ > 0) {
    out.decode_mb_s = static_cast<double>(table_bytes_) / 1e6 /
                      (table_decode_ms_ / 1000.0);
  }
  if (table_apply_ms_ > 0) {
    out.apply_mb_s = static_cast<double>(table_bytes_) / 1e6 /
                     (table_apply_ms_ / 1000.0);
  }
  if (records_decoded_ > 0) {
    out.decode_ns_per_record =
        total("telemetry.decode") * 1e6 / static_cast<double>(records_decoded_);
  }
  if (records_handled_ > 0) {
    out.aggregate_ns_per_sample = total("telemetry.aggregate") * 1e6 /
                                  static_cast<double>(records_handled_);
  }
  out.finalize_ms = median(per_cycle("telemetry.finalize"));
  out.smooth_ms = median(per_cycle("telemetry.smooth"));
  out.demand_changes = median(window_changes_);
  out.unmatched_samples =
      aggregator_ ? static_cast<double>(aggregator_->unmatched_samples()) : 0;

  std::vector<double> alloc_self;
  const auto& spans = spans_.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "core.run_cycle") {
      alloc_self.push_back(spans_.self_ms(static_cast<int>(i)));
    }
  }
  out.alloc_ms = median(alloc_self);
  out.capture_ms = median(per_cycle("audit.capture"));
  out.serialize_ms = median(per_cycle("audit.serialize"));
  out.journal_write_ms = median(per_cycle("audit.journal_write"));
  out.recovery_ms = median(per_cycle("audit.recovery"));
  out.recovery_bytes = median(recovery_bytes_);

  std::vector<double> audit_ms;
  {
    const auto readback = spans_.per_cycle_ms("service.readback");
    for (const auto& [cycle, ms] : spans_.per_cycle_ms("service.audit")) {
      const auto it = readback.find(cycle);
      audit_ms.push_back(ms + (it == readback.end() ? 0.0 : it->second));
    }
  }
  out.audit_ms = median(audit_ms);
  out.readback_routes = median(readback_sizes_);
  out.announce_ms = median(per_cycle("service.announce"));
  if (updates_encoded_ > 0) {
    out.encode_us_per_update =
        total("bgp.encode") * 1000.0 / static_cast<double>(updates_encoded_);
  }
  out.dataplane_step_ms = median(per_cycle("dataplane.step"));
  out.dataplane_flows = median(flows_);
  if (out.dataplane_flows > 0) {
    out.dataplane_ns_per_flow =
        out.dataplane_step_ms * 1e6 / out.dataplane_flows;
  }

  // In-cycle stage time per cycle: everything efd does between the
  // marker and the announce leaving, as the pipeline measured it.
  std::map<std::uint64_t, double> stage_sum;
  for (const char* name :
       {"telemetry.finalize", "telemetry.smooth", "service.readback",
        "service.audit", "core.run_cycle", "service.announce",
        "dataplane.step", "service.digest", "audit.recovery"}) {
    for (const auto& [cycle, ms] : spans_.per_cycle_ms(name)) {
      stage_sum[cycle] += ms;
    }
  }
  std::vector<double> stages;
  for (const auto& [cycle, ms] : stage_sum) stages.push_back(ms);
  out.stages_ms = median(stages);

  std::vector<double> daemon_wall;
  for (const auto& digest : digests) {
    daemon_wall.push_back(
        std::chrono::duration<double, std::milli>(digest.allocation_wall)
            .count());
  }
  const double daemon_median = median(daemon_wall);
  if (daemon_median > 0) {
    out.alloc_wall_ratio = median(alloc_wall_ms_) / daemon_median;
  }
  return out;
}

}  // namespace efbench
