#include "service/efd.h"

#include <csignal>
#include <cstdio>

#include <sstream>

#include "audit/journal.h"
#include "audit/snapshot.h"
#include "net/log.h"

namespace ef::service {

namespace {

/// Adapts the BMP common-header peek to the reassembler's interface.
io::PeekFn bmp_peek() {
  return [](std::span<const std::uint8_t> data) {
    const bmp::FrameDecode head = bmp::peek_frame(data);
    io::Peek peek;
    switch (head.status) {
      case bmp::FrameDecode::Status::kOk:
        peek.status = io::PeekStatus::kFrame;
        peek.len = head.consumed;
        break;
      case bmp::FrameDecode::Status::kNeedMore:
        peek.status = io::PeekStatus::kNeedMore;
        peek.len = head.need;
        break;
      case bmp::FrameDecode::Status::kError:
        peek.status = io::PeekStatus::kError;
        peek.reason = "bad BMP common header";
        break;
    }
    return peek;
  };
}

/// Every IngestSnapshot field with its /metrics name: efd's own counters
/// first (in EfdService::Counter order), then the announcer's (in
/// Announcer::Counter order), so each prefix loads straight from its
/// owner's storage.
using SnapshotRow = CounterRow<EfdService::IngestSnapshot>;
#define EF_EFD_ROW(field, metric, help) \
  {&EfdService::IngestSnapshot::field, metric, help},
#define EF_EFD_BGP_ROW(field, ingest, metric, help) \
  {&EfdService::IngestSnapshot::ingest, metric, help},
constexpr SnapshotRow kSnapshotRows[] = {
    EF_EFD_COUNTERS(EF_EFD_ROW) EF_ANNOUNCER_COUNTERS(EF_EFD_BGP_ROW)};
#undef EF_EFD_ROW
#undef EF_EFD_BGP_ROW

struct GaugeRow {
  std::string_view metric;
  std::string_view help;
};
enum class Gauge : std::size_t { EF_EFD_GAUGES(EF_COUNTER_ID) };
#define EF_GAUGE_ROW(id, metric, help) {metric, help},
constexpr GaugeRow kGaugeRows[] = {EF_EFD_GAUGES(EF_GAUGE_ROW)};
#undef EF_GAUGE_ROW

/// Fills the auto threshold: demand younger than one cycle period is
/// unambiguously fresh.
FailsafeConfig normalized_failsafe(const EfdConfig& config) {
  FailsafeConfig fs = config.failsafe;
  if (fs.fresh_demand_age.millis_value() <= 0) {
    fs.fresh_demand_age = config.controller.cycle_period;
  }
  return fs;
}

}  // namespace

EfdService::EfdService(topology::Pop& pop, EfdConfig config)
    : pop_(&pop),
      config_(config),
      controller_(pop, config.controller),
      aggregator_(pop.prefix_table(), config.sflow_sample_rate),
      smoother_(config.sflow_smoothing_alpha),
      ladder_(normalized_failsafe(config)) {
  if (config_.dataplane.enabled) {
    dataplane_ = std::make_unique<dataplane::Dataplane>(
        pop.interfaces(), config_.dataplane, pop.index());
  }
  controller_.set_rib_source(&collector_.rib());
  controller_.connect();
  counters_.set(Counter::failsafe_mode,
                static_cast<std::uint64_t>(ladder_.mode()));
  if (!config_.journal_path.empty()) {
    journal_ = std::make_unique<audit::CycleJournal>(config_.journal_path,
                                                     /*include_timing=*/true);
    EF_CHECK(journal_->ok(),
             "efd: cannot open journal " << config_.journal_path);
    controller_.set_cycle_observer(
        [this](const core::Controller::CycleRecord& record) {
          journal_->append(record);
          publish_journal_counters();
        });
  }
  if (config_.real_time_cycles) {
    // Wall-clock cycles need a wall-clock hold TTL: when the feed is
    // what died, a TTL keyed off feed time never expires. Sim/chaos
    // feeds keep the feed-clock path so replays stay deterministic.
    ladder_.set_steady_clock(
        [] { return std::chrono::steady_clock::now(); });
  }
  if (config_.audit.enabled) {
    AuditorConfig audit_config = config_.audit;
    audit_config.override_local_pref =
        config_.controller.override_local_pref;
    auditor_ = std::make_unique<EnforcementAuditor>(audit_config);
  }
  if (config_.recover && !config_.recovery_path.empty()) try_recover();
}

EfdService::~EfdService() { stop(); }

void EfdService::start() {
  EF_CHECK(!thread_.joinable(), "efd already started");

  auto bmp_listener = io::TcpListener::open(config_.bmp_port);
  EF_CHECK(bmp_listener.has_value(),
           "efd: cannot listen for BMP on 127.0.0.1:" << config_.bmp_port);
  bmp_listener_ = std::move(*bmp_listener);

  auto sflow = io::UdpSocket::bind(config_.sflow_port);
  EF_CHECK(sflow.has_value(),
           "efd: cannot bind sFlow UDP 127.0.0.1:" << config_.sflow_port);
  sflow_sock_ = std::move(*sflow);

  http_ = std::make_unique<HttpServer>(
      loop_, config_.http_port,
      [this](const std::string& path) { return serve_http(path); });

  loop_.watch(bmp_listener_->fd(), io::kRead,
              [this](std::uint32_t) { on_bmp_accept(); });
  loop_.watch(sflow_sock_->fd(), io::kRead,
              [this](std::uint32_t) { on_sflow_ready(); });

  if (!config_.announce_ports.empty()) {
    Announcer::Config announcer_config;
    announcer_config.ports = config_.announce_ports;
    announcer_config.local_as = pop_->world().config().local_as;
    announcer_config.router_id = bgp::RouterId(
        0xefd00000u | static_cast<std::uint32_t>(pop_->index() + 1));
    announcer_config.hold_time_secs = config_.announce_hold_secs;
    announcer_config.tick_period = config_.announce_tick_period;
    announcer_config.override_local_pref =
        config_.controller.override_local_pref;
    announcer_config.faults = config_.announce_faults;
    announcer_config.fault_script = config_.announce_fault_script;
    announcer_ = std::make_unique<Announcer>(loop_, announcer_config);
    announcer_->set_event_handler(
        [this](std::size_t peer, bool up, const std::string& reason) {
          on_announcer_event(peer, up, reason);
        });
    announcer_->connect();
    if (recovered_) {
      // Warm restart: seed the speaker's origination set with the
      // recovered overrides now, so the first session establishment
      // full-syncs the pre-crash set instead of waiting for the first
      // kRun cycle (the ladder may hold for several cycles first).
      announcer_->announce(controller_.active_overrides(), now_);
    }
  }

  if (config_.real_time_cycles) {
    loop_.call_every(config_.cycle_wall_period, [this] {
      now_ = now_ + config_.controller.cycle_period;
      if (config_.controller.enforcement != core::Enforcement::kShadow) {
        controller_.tick(now_);
      }
      run_cycle_guarded(now_, smoother_.current());
      next_cycle_ = now_ + config_.controller.cycle_period;
    });
  }

  thread_ = std::thread([this] { loop_.run(); });
}

void EfdService::stop() {
  if (!thread_.joinable()) return;
  loop_.stop();
  wait();
}

void EfdService::wait() {
  if (!thread_.joinable()) return;
  thread_.join();
  // Orderly teardown (including the SIGTERM path routed through
  // shutdown_on_signals) leaves a final recovery snapshot behind, so a
  // subsequent --recover restart resumes from the very set the routers
  // still carry through their hold timers.
  if (!config_.recovery_path.empty()) persist_recovery(now_);
  // Loop is down; tear ingest state down from this thread. Fd RAII
  // closes every socket.
  for (auto& [fd, conn] : bmp_conns_) loop_.unwatch(fd);
  bmp_conns_.clear();
  announcer_.reset();  // killed or not, its sockets close here
  http_.reset();
  if (bmp_listener_) loop_.unwatch(bmp_listener_->fd());
  bmp_listener_.reset();
  if (sflow_sock_) loop_.unwatch(sflow_sock_->fd());
  sflow_sock_.reset();
}

std::uint16_t EfdService::bmp_port() const {
  return bmp_listener_ ? bmp_listener_->port() : 0;
}
std::uint16_t EfdService::sflow_port() const {
  return sflow_sock_ ? sflow_sock_->port() : 0;
}
std::uint16_t EfdService::http_port() const {
  return http_ ? http_->port() : 0;
}

void EfdService::shutdown_on_signals() {
  loop_.watch_signals({SIGINT, SIGTERM}, [this](int sig) {
    EF_LOG_INFO("efd: signal " << sig << ", shutting down");
    loop_.stop();
  });
}

void EfdService::on_bmp_accept() {
  for (;;) {
    io::Fd fd = bmp_listener_->accept_one();
    if (!fd.valid()) return;
    const int raw = fd.get();
    bmp_conns_.emplace(raw,
                       std::make_unique<BmpConn>(std::move(fd), bmp_peek()));
    loop_.watch(raw, io::kRead, [this, raw](std::uint32_t ready) {
      on_bmp_event(raw, ready);
    });
    counters_.add(Counter::bmp_connections);
  }
}

void EfdService::on_bmp_event(int fd, std::uint32_t ready) {
  auto it = bmp_conns_.find(fd);
  if (it == bmp_conns_.end()) return;
  BmpConn& conn = *it->second;

  bool open = true;
  if (ready & (io::kRead | io::kHangup | io::kError)) {
    open = conn.tcp.read_some();
  }
  const auto data = conn.tcp.readable();
  if (!data.empty()) {
    conn.frames.feed(data, [&](std::span<const std::uint8_t> frame) {
      handle_bmp_frame(conn, frame);
    });
    conn.tcp.consume(data.size());
    // Published only after every complete frame in `data` was applied —
    // the feeder's "all my bytes are in the RIB" barrier.
    counters_.add(Counter::bmp_bytes, data.size());
  }
  if (conn.frames.poisoned()) {
    EF_LOG_WARN("efd: dropping BMP session on fd "
                << fd << ": " << conn.frames.poison_reason());
    open = false;
  }
  if (!open || conn.tcp.broken()) close_bmp_conn(fd, true);
}

void EfdService::handle_bmp_frame(BmpConn& conn,
                                  std::span<const std::uint8_t> frame) {
  const bmp::FrameDecode decoded = bmp::decode_frame(frame);
  if (!decoded.ok()) {
    counters_.add(Counter::bmp_malformed);
    EF_LOG_WARN("efd: skipping BMP frame: " << decoded.reason);
    return;
  }
  if (!conn.router_key) {
    const auto* init = std::get_if<bmp::InitiationMsg>(&*decoded.message);
    if (init == nullptr) {
      // A feed that talks before introducing itself has no router
      // identity to book routes under.
      counters_.add(Counter::bmp_malformed);
      return;
    }
    auto [it, inserted] =
        router_keys_.try_emplace(init->sys_name, next_router_key_);
    if (inserted) ++next_router_key_;
    conn.router_key = it->second;
    FeedHealth& health = feed_health_[*conn.router_key];
    if (!inserted && !health.connected) {
      counters_.add(Counter::router_reconnects);
    }
    health.connected = true;
    counters_.set(Counter::routers_down, assess_health(now_).routers_down);
  }
  collector_.apply(*conn.router_key, *decoded.message);
  counters_.add(Counter::bmp_messages);
}

void EfdService::close_bmp_conn(int fd, bool count_disconnect) {
  auto it = bmp_conns_.find(fd);
  if (it == bmp_conns_.end()) return;
  // Session loss means lost visibility: withdrawals we miss while the
  // feed is down would linger as phantom routes, so purge now and let
  // the reconnect replay rebuild.
  if (it->second->router_key) {
    collector_.drop_router(*it->second->router_key);
    FeedHealth& health = feed_health_[*it->second->router_key];
    health.connected = false;
    health.down_since = now_;  // feed time: deterministic under replay
    counters_.set(Counter::routers_down, assess_health(now_).routers_down);
  }
  loop_.unwatch(fd);
  bmp_conns_.erase(it);
  if (count_disconnect) {
    counters_.add(Counter::bmp_disconnects);
  }
}

void EfdService::on_sflow_ready() {
  sflow_sock_->drain([this](std::span<const std::uint8_t> datagram) {
    counters_.add(Counter::sflow_bytes, datagram.size());
    const telemetry::wire::DatagramDecode decoded =
        telemetry::wire::decode_datagram(datagram);
    if (!decoded.ok) {
      EF_LOG_WARN("efd: dropped non-EFS1 datagram (" << decoded.reason
                                                     << ")");
      counters_.add(Counter::sflow_datagrams);
      return;
    }
    for (const auto& record : decoded.records) handle_record(record);
    counters_.add(Counter::sflow_records, decoded.records.size());
    // After the records took effect (windows closed, cycles run): the
    // feeder's pacing barrier.
    counters_.add(Counter::sflow_datagrams);
  });
}

void EfdService::handle_record(
    const telemetry::wire::SflowRecord& record) {
  if (const auto* sample = std::get_if<telemetry::FlowSample>(&record)) {
    aggregator_.ingest(*sample);
    window_had_demand_ = true;
    return;
  }
  if (const auto* demand =
          std::get_if<telemetry::wire::DemandRate>(&record)) {
    direct_demand_.set(demand->prefix, demand->rate);
    direct_seen_ = true;
    window_had_demand_ = true;
    return;
  }
  if (const auto* close =
          std::get_if<telemetry::wire::WindowClose>(&record)) {
    on_window_close(*close);
    return;
  }
}

void EfdService::on_window_close(
    const telemetry::wire::WindowClose& close) {
  now_ = close.cycle_now;

  // Demand freshness advances only on windows that actually carried
  // records — a bare marker stream with no samples is exactly the "feed
  // is up but the data stopped" rot the ladder exists to catch.
  if (window_had_demand_) {
    demand_seen_ = true;
    last_demand_ = now_;
  }
  window_had_demand_ = false;

  // Same estimate the simulator hands its controller: precomputed demand
  // verbatim when the feed ships it, otherwise finalize + smooth the
  // sampled window.
  const telemetry::DemandMatrix* estimate =
      direct_seen_
          ? &direct_demand_
          : &smoother_.update(aggregator_.finalize_window(close.window_end));

  if (config_.controller.enforcement != core::Enforcement::kShadow) {
    controller_.tick(now_);
  }
  if (now_ >= next_cycle_) {
    run_cycle_guarded(now_, *estimate);
    next_cycle_ = now_ + config_.controller.cycle_period;
  }

  counters_.add(Counter::windows_closed);
}

void EfdService::run_cycle_guarded(net::SimTime now,
                                   const telemetry::DemandMatrix& demand) {
  CycleDigest digest;
  // Audit first: judge the *previous* cycle's enforced set before this
  // cycle replaces it, so every announce has had one full cycle to
  // propagate before the read-back is compared against it. The audit
  // streak feeds the ladder decision below.
  if (auditor_ && auditor_->note_cycle()) run_audit(now, digest);

  const InputHealth health = assess_health(now);
  const audit::FailsafeMode mode_before = ladder_.mode();
  FailsafeLadder::Decision decision = ladder_.decide(health, now);

  std::chrono::nanoseconds wall{0};
  double hit_rate = 0.0;
  bool incremental_cycle = false;
  std::size_t dirty_prefixes = 0;
  std::size_t escalations = 0;
  std::size_t full_fallbacks = 0;
  switch (decision.action) {
    case audit::FailsafeAction::kRun: {
      const core::CycleStats stats = controller_.run_cycle(demand, now);
      wall = stats.allocation_wall;
      hit_rate = stats.ranking_cache_hit_rate;
      incremental_cycle = stats.incremental_cycle;
      dirty_prefixes = stats.dirty_prefixes;
      escalations = stats.escalations;
      full_fallbacks = stats.full_fallbacks;
      if (config_.controller.incremental) {
        if (stats.incremental_cycle) {
          counters_.add(Counter::alloc_incremental_cycles);
          counters_.set(
              Counter::alloc_incremental_wall_ns,
              static_cast<std::uint64_t>(stats.allocation_wall.count()));
        } else {
          counters_.set(
              Counter::alloc_full_wall_ns,
              static_cast<std::uint64_t>(stats.allocation_wall.count()));
        }
        counters_.add(Counter::alloc_full_fallbacks, stats.full_fallbacks);
        counters_.add(Counter::alloc_escalations, stats.escalations);
        counters_.set(Counter::alloc_dirty_prefixes, stats.dirty_prefixes);
      }
      if (stats.churn_deferred > 0) {
        counters_.add(Counter::churn_deferred, stats.churn_deferred);
      }
      if (stats.watchdog_aborted) {
        // The controller already enforced the empty set; the ladder just
        // has to acknowledge we are fail-static now.
        ladder_.note_watchdog_abort();
        decision.action = audit::FailsafeAction::kWithdraw;
        decision.mode = ladder_.mode();
        decision.transitioned = ladder_.mode() != mode_before;
        decision.reason = "cycle watchdog: wall-clock budget overrun";
      } else {
        ladder_.note_good_cycle(now);
      }
      break;
    }
    case audit::FailsafeAction::kHold:
      // Keep last cycle's override set exactly as it stands: no
      // allocation, no enforcement delta — the routers already carry it.
      break;
    case audit::FailsafeAction::kWithdraw:
      controller_.withdraw_all(now);
      break;
  }

  // Enforce over the wire. After a kRun the active set is the fresh
  // decision (empty after a watchdog abort, which also withdraws);
  // fail-static sends an explicit withdraw-all rather than waiting for
  // the routers' hold timers. kHold leaves the announced set untouched.
  if (announcer_) {
    if (decision.action == audit::FailsafeAction::kRun) {
      announcer_->announce(controller_.active_overrides(), now);
    } else if (decision.action == audit::FailsafeAction::kWithdraw) {
      announcer_->withdraw_all(now);
    }
  }

  if (decision.transitioned) {
    // A ladder transition is exactly the kind of event the RIB/demand
    // change logs cannot see (holds and withdraws change what the
    // routers carry without touching the allocator's inputs): drop the
    // incremental ledger so the next running cycle recomputes in full.
    controller_.invalidate_ledger();
    audit::FailsafeEvent event;
    event.when = now;
    event.from_mode = mode_before;
    event.to_mode = decision.mode;
    event.action = decision.action;
    event.reason = decision.reason;
    event.routers_known = health.routers_known;
    event.routers_down = health.routers_down;
    event.demand_age_ms =
        health.demand_seen
            ? static_cast<std::uint64_t>(health.demand_age.millis_value())
            : 0;
    event.overrides_active = controller_.active_overrides().size();
    journal_event(event);
    EF_LOG_WARN("efd: failsafe "
                << audit::failsafe_mode_name(mode_before) << " -> "
                << audit::failsafe_mode_name(decision.mode) << " ("
                << decision.reason << ")");
  }
  publish_ladder_counters();

  // Dataplane emulation: hash this window's demand as 5-tuple flows
  // onto the egresses the cycle's decisions selected and service the
  // interface queues over the elapsed feed time. Pure measurement — it
  // never feeds back into the controller's inputs.
  if (dataplane_) {
    const net::SimTime dt = dataplane_stepped_ && now > last_dataplane_step_
                                ? now - last_dataplane_step_
                                : config_.controller.cycle_period;
    const auto& overrides = controller_.active_overrides();
    const dataplane::DataplaneStepStats stats = dataplane_->step(
        demand, now, dt,
        [&](const net::Prefix& prefix,
            std::vector<dataplane::WcmpEgress>& out) {
          if (const auto it = overrides.find(prefix); it != overrides.end()) {
            out.push_back({it->second.target_interface, 1.0});
            return;
          }
          if (const bgp::Route* best = collector_.rib().best(prefix)) {
            if (const auto egress = pop_->egress_of_route(*best)) {
              out.push_back({egress->interface, 1.0});
            }
          }
        });
    last_dataplane_step_ = now;
    dataplane_stepped_ = true;
    const dataplane::DataplaneTotals& totals = dataplane_->totals();
    counters_.set(Counter::dataplane_flows_active, stats.flows_active);
    counters_.set(Counter::dataplane_flows_moved, totals.flows_moved);
    counters_.set(Counter::dataplane_reorder_events, totals.reorder_events);
    counters_.set(Counter::dataplane_offered_bytes, totals.offered_bytes);
    counters_.set(Counter::dataplane_delivered_bytes,
                  totals.delivered_bytes);
    counters_.set(Counter::dataplane_dropped_bytes, totals.dropped_bytes);
    counters_.set(Counter::dataplane_queued_bytes, stats.queued_bytes);
    counters_.add(Counter::dataplane_steps);
  }

  digest.when = now;
  digest.allocation_wall = wall;
  digest.ranking_cache_hit_rate = hit_rate;
  digest.action = decision.action;
  digest.mode = decision.mode;
  digest.incremental_cycle = incremental_cycle;
  digest.dirty_prefixes = dirty_prefixes;
  digest.escalations = escalations;
  digest.full_fallbacks = full_fallbacks;
  digest.overrides.reserve(controller_.active_overrides().size());
  for (const auto& [prefix, override_entry] :
       controller_.active_overrides()) {
    digest.overrides.push_back(override_entry);
  }
  {
    std::lock_guard<std::mutex> lock(digest_mutex_);
    digests_.push_back(std::move(digest));
  }
  // Whatever this cycle left enforced (the fresh set after kRun, the
  // held set after kHold, nothing after kWithdraw) is the intent the
  // next audit judges.
  audited_intent_ = controller_.active_overrides();
  if (!config_.recovery_path.empty() &&
      decision.action == audit::FailsafeAction::kRun) {
    persist_recovery(now);
  }
  counters_.add(Counter::cycles_run);
}

std::vector<bgp::Route> EfdService::audit_observed() {
  if (config_.audit_read_back) return config_.audit_read_back();
  std::vector<bgp::Route> observed;
  if (config_.controller.enforcement == core::Enforcement::kBgpInjection) {
    // In-process audit digest: scan the attached PoP routers' RIBs
    // directly. The auditor drops everything that is not
    // controller-learned, so passing the full tables is fine.
    for (int i = 0; i < pop_->router_count(); ++i) {
      pop_->router(i).rib().for_each(
          [&](const net::Prefix&, std::span<const bgp::Route> routes) {
            for (const bgp::Route& route : routes) {
              if (route.peer_type == bgp::PeerType::kController) {
                observed.push_back(route);
              }
            }
          });
    }
  }
  return observed;
}

void EfdService::run_audit(net::SimTime now, CycleDigest& digest) {
  const AuditReport report =
      auditor_->audit(audited_intent_, audit_observed(), now);
  digest.audit_ran = true;
  digest.audit_missing = report.missing.size();
  digest.audit_extra = report.extra.size();
  digest.audit_wrong_attrs = report.wrong_attrs.size();
  digest.audit_repaired =
      report.repair_announce.size() + report.repair_withdraw.size();
  digest.audit_divergent_streak = report.divergent_streak;

  if (!report.repair_announce.empty() ||
      !report.repair_withdraw.empty()) {
    if (announcer_) {
      announcer_->refresh(report.repair_announce, now);
      announcer_->force_withdraw(report.repair_withdraw, now);
    } else {
      controller_.repair_overrides(report.repair_announce,
                                   report.repair_withdraw, now);
    }
  }

  const EnforcementAuditor::Stats& stats = auditor_->stats();
  counters_.set(Counter::audit_runs, stats.audits);
  counters_.set(Counter::audit_divergent, stats.divergent_audits);
  counters_.set(Counter::audit_missing, stats.missing_total);
  counters_.set(Counter::audit_extra, stats.extra_total);
  counters_.set(Counter::audit_wrong_attrs, stats.wrong_attrs_total);
  counters_.set(Counter::audit_repairs_announce, stats.repairs_announce);
  counters_.set(Counter::audit_repairs_withdraw, stats.repairs_withdraw);
  counters_.set(Counter::audit_unrepaired, stats.unrepaired_total);
  counters_.set(Counter::audit_divergent_streak, report.divergent_streak);

  if (!report.divergent()) return;
  audit::AuditEvent event;
  event.when = now;
  event.intended = report.intended;
  event.observed = report.observed;
  event.missing = report.missing.size();
  event.extra = report.extra.size();
  event.wrong_attrs = report.wrong_attrs.size();
  event.repaired_announce = report.repair_announce.size();
  event.repaired_withdraw = report.repair_withdraw.size();
  event.unrepaired = report.unrepaired;
  event.divergent_streak = report.divergent_streak;
  event.escalated =
      ladder_.config().max_audit_failures > 0 &&
      report.divergent_streak >= ladder_.config().max_audit_failures;
  if (journal_) {
    journal_->append_event(event.serialize());
    journal_->flush();
    publish_journal_counters();
  }
  EF_LOG_WARN("efd: audit divergence missing="
              << report.missing.size() << " extra=" << report.extra.size()
              << " wrong_attrs=" << report.wrong_attrs.size()
              << " repaired=" << digest.audit_repaired
              << " streak=" << report.divergent_streak);
}

void EfdService::persist_recovery(net::SimTime when) {
  audit::RecoverySnapshot snap;
  snap.when = when;
  snap.overrides.reserve(controller_.active_overrides().size());
  for (const auto& [prefix, override_entry] :
       controller_.active_overrides()) {
    snap.overrides.push_back(override_entry);
  }
  // Write-aside + rename: a crash mid-write leaves the previous
  // snapshot intact, never a torn file.
  const std::string tmp = config_.recovery_path + ".tmp";
  {
    audit::JournalWriter writer(tmp);
    if (!writer.ok()) {
      EF_LOG_WARN("efd: cannot write recovery file " << tmp);
      return;
    }
    writer.append(snap.serialize());
    writer.flush();
    if (!writer.ok()) {
      EF_LOG_WARN("efd: recovery write failed for " << tmp);
      return;
    }
  }
  if (std::rename(tmp.c_str(), config_.recovery_path.c_str()) != 0) {
    EF_LOG_WARN("efd: cannot rename " << tmp << " into place");
    return;
  }
  counters_.add(Counter::recovery_writes);
}

void EfdService::try_recover() {
  auto bytes = audit::JournalReader::load(config_.recovery_path);
  if (!bytes) {
    EF_LOG_WARN("efd: --recover set but no recovery file at "
                << config_.recovery_path << "; cold start");
    return;
  }
  audit::JournalReader reader(std::move(*bytes));
  std::optional<audit::RecoverySnapshot> snap;
  while (auto record = reader.next()) {
    if (auto decoded = audit::RecoverySnapshot::deserialize(*record)) {
      snap = std::move(*decoded);
    }
  }
  if (!snap) {
    EF_LOG_WARN("efd: recovery file " << config_.recovery_path
                                      << " holds no intact snapshot; "
                                         "cold start");
    return;
  }
  // Resume in hold-last-good anchored at the snapshot: re-announce the
  // pre-crash set and treat its timestamp as the newest good inputs, so
  // the ladder holds (bounded by its TTL) instead of passing through
  // cold fail-static while the feeds re-attach.
  controller_.restore_overrides(snap->overrides, snap->when);
  ladder_.restore_anchor(snap->when);
  now_ = snap->when;
  demand_seen_ = true;
  last_demand_ = snap->when;
  audited_intent_ = controller_.active_overrides();
  recovered_ = true;
  counters_.set(Counter::recovered, 1);
  counters_.set(Counter::failsafe_mode,
                static_cast<std::uint64_t>(ladder_.mode()));
  audit::FailsafeEvent event;
  event.when = snap->when;
  event.from_mode = audit::FailsafeMode::kFailStatic;
  event.to_mode = ladder_.mode();
  event.action = audit::FailsafeAction::kHold;
  event.reason = "warm restart: recovered " +
                 std::to_string(snap->overrides.size()) + " overrides";
  event.overrides_active = controller_.active_overrides().size();
  journal_event(event);
  EF_LOG_INFO("efd: warm restart from "
              << config_.recovery_path << ": " << snap->overrides.size()
              << " overrides re-announced, hold-last-good anchored at "
              << snap->when.millis_value() << "ms");
}

InputHealth EfdService::assess_health(net::SimTime now) const {
  InputHealth health;
  health.routers_known = static_cast<std::uint32_t>(feed_health_.size());
  for (const auto& [key, feed] : feed_health_) {
    if (feed.connected) continue;
    ++health.routers_down;
    const net::SimTime age = now - feed.down_since;
    if (age > health.max_router_down_age) health.max_router_down_age = age;
  }
  health.demand_seen = demand_seen_;
  if (demand_seen_) health.demand_age = now - last_demand_;
  health.audit_divergent_streak =
      auditor_ ? auditor_->divergent_streak() : 0;
  return health;
}

void EfdService::journal_event(const audit::FailsafeEvent& event) {
  if (!journal_) return;
  journal_->append_event(event.serialize());
  // Transitions are rare and are exactly the records a post-mortem
  // needs, so pay the flush.
  journal_->flush();
  publish_journal_counters();
}

void EfdService::publish_journal_counters() {
  counters_.set(Counter::journal_keyframes, journal_->keyframes());
  counters_.set(Counter::journal_deltas, journal_->deltas());
  counters_.set(Counter::journal_bytes, journal_->bytes_written());
}

void EfdService::on_announcer_event(std::size_t peer_index, bool up,
                                    const std::string& reason) {
  if (up) {
    EF_LOG_INFO("efd: announcer session " << peer_index << " established");
    return;
  }
  EF_LOG_WARN("efd: announcer session " << peer_index << " down: "
                                        << reason);
  // A dropped enforcement session is a ladder-stream event: the routers
  // behind it are now relying on hold-timer expiry, not on us.
  const InputHealth health = assess_health(now_);
  audit::FailsafeEvent event;
  event.when = now_;
  event.from_mode = ladder_.mode();
  event.to_mode = ladder_.mode();
  event.action = audit::FailsafeAction::kRun;
  event.reason = "announcer: session " + std::to_string(peer_index) +
                 " down (" + reason + ")";
  event.routers_known = health.routers_known;
  event.routers_down = health.routers_down;
  event.demand_age_ms =
      health.demand_seen
          ? static_cast<std::uint64_t>(health.demand_age.millis_value())
          : 0;
  event.overrides_active = controller_.active_overrides().size();
  journal_event(event);
}

void EfdService::kill_announcer() {
  loop_.run_sync([this] {
    if (announcer_) announcer_->kill();
  });
}

void EfdService::publish_ladder_counters() {
  const FailsafeLadder::Stats& stats = ladder_.stats();
  counters_.set(Counter::failsafe_mode,
                static_cast<std::uint64_t>(ladder_.mode()));
  counters_.set(Counter::failsafe_holds, stats.holds);
  counters_.set(Counter::failsafe_fail_statics, stats.fail_statics);
  counters_.set(Counter::failsafe_recoveries, stats.recoveries);
  counters_.set(Counter::failsafe_transitions, stats.transitions);
  counters_.set(Counter::watchdog_aborts, stats.watchdog_aborts);
  counters_.set(Counter::audit_escalations, stats.audit_escalations);
}

EfdService::IngestSnapshot EfdService::ingest() const {
  IngestSnapshot snap;
  const std::span<const SnapshotRow> rows(kSnapshotRows);
  const auto own = static_cast<std::size_t>(Counter::kCount);
  counters_.load(snap, rows.first(own));
  if (announcer_) announcer_->counters().load(snap, rows.subspan(own));
  // The HTTP server keeps this one itself; its row here only exports it.
  snap.http_aborted_conns = http_ ? http_->aborted_conns() : 0;
  return snap;
}

std::string EfdService::metrics_reference() {
  std::ostringstream os;
  os << "| metric | help |\n|---|---|\n";
  for (const SnapshotRow& row : kSnapshotRows) {
    os << "| `" << row.metric << "` | " << row.help << " |\n";
  }
  for (const GaugeRow& row : kGaugeRows) {
    os << "| `" << row.metric << "` | " << row.help << " |\n";
  }
  return os.str();
}

std::vector<EfdService::CycleDigest> EfdService::digests() const {
  std::lock_guard<std::mutex> lock(digest_mutex_);
  return digests_;
}

bool EfdService::wait_until(
    const std::function<bool(const IngestSnapshot&)>& pred,
    std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (pred(ingest())) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

bool EfdService::wait_for_bmp_bytes(
    std::uint64_t n, std::chrono::milliseconds timeout) const {
  return wait_until(
      [n](const IngestSnapshot& s) { return s.bmp_bytes >= n; }, timeout);
}

bool EfdService::wait_for_disconnects(
    std::uint64_t n, std::chrono::milliseconds timeout) const {
  return wait_until(
      [n](const IngestSnapshot& s) { return s.bmp_disconnects >= n; },
      timeout);
}

bool EfdService::wait_for_windows(
    std::uint64_t n, std::chrono::milliseconds timeout) const {
  return wait_until(
      [n](const IngestSnapshot& s) { return s.windows_closed >= n; },
      timeout);
}

bool EfdService::wait_for_datagrams(
    std::uint64_t n, std::chrono::milliseconds timeout) const {
  return wait_until(
      [n](const IngestSnapshot& s) { return s.sflow_datagrams >= n; },
      timeout);
}

HttpResponse EfdService::serve_http(const std::string& path) {
  HttpResponse response;
  if (path == "/status") {
    response.body = render_status();
  } else if (path == "/metrics") {
    response.body = render_metrics();
  } else {
    response.status = 404;
    response.body = "efd: unknown path (try /status or /metrics)\n";
  }
  return response;
}

std::string EfdService::render_status() const {
  // Runs on the loop thread (HttpServer shares the loop), so reading the
  // collector and controller directly is race-free.
  const IngestSnapshot snap = ingest();
  const auto& cstats = collector_.stats();
  std::ostringstream os;
  os << "efd status\n"
     << "pop: " << pop_->name() << "\n"
     << "feed_time_ms: " << now_.millis_value() << "\n"
     << "bmp: connections=" << snap.bmp_connections
     << " disconnects=" << snap.bmp_disconnects
     << " bytes=" << snap.bmp_bytes << " messages=" << snap.bmp_messages
     << " malformed=" << snap.bmp_malformed << "\n"
     << "rib: prefixes=" << collector_.rib().prefix_count()
     << " routes=" << collector_.rib().route_count()
     << " peers=" << collector_.peers().size() << "\n"
     << "bmp_msgs: init=" << cstats.initiations << " up=" << cstats.peer_ups
     << " down=" << cstats.peer_downs
     << " route_monitoring=" << cstats.route_monitorings
     << " term=" << cstats.terminations << "\n"
     << "sflow: datagrams=" << snap.sflow_datagrams
     << " records=" << snap.sflow_records << " bytes=" << snap.sflow_bytes
     << " windows=" << snap.windows_closed << "\n"
     << "cycles: run=" << snap.cycles_run
     << " overrides_active=" << controller_.active_overrides().size()
     << "\n";
  if (ladder_.config().enabled) {
    const InputHealth health = assess_health(now_);
    os << "failsafe: mode="
       << audit::failsafe_mode_name(ladder_.mode())
       << " demand=" << input_state_name(ladder_.demand_state(health))
       << " feed=" << input_state_name(ladder_.feed_state(health))
       << " routers_down=" << health.routers_down << "/"
       << health.routers_known << " holds=" << snap.failsafe_holds
       << " fail_statics=" << snap.failsafe_fail_statics
       << " recoveries=" << snap.failsafe_recoveries << "\n";
  }
  if (config_.audit.enabled) {
    os << "audit: runs=" << snap.audit_runs
       << " divergent=" << snap.audit_divergent
       << " missing=" << snap.audit_missing
       << " extra=" << snap.audit_extra
       << " wrong_attrs=" << snap.audit_wrong_attrs
       << " repairs=" << (snap.audit_repairs_announce +
                          snap.audit_repairs_withdraw)
       << " streak=" << snap.audit_divergent_streak
       << " recovered=" << snap.recovered << "\n";
  }
  {
    std::lock_guard<std::mutex> lock(digest_mutex_);
    if (!digests_.empty()) {
      const CycleDigest& last = digests_.back();
      os << "last_cycle: when_ms=" << last.when.millis_value()
         << " allocation_wall_us=" << last.allocation_wall.count() / 1000
         << " ranking_cache_hit_rate=" << last.ranking_cache_hit_rate
         << "\n";
    }
  }
  return os.str();
}

std::string EfdService::render_metrics() const {
  const IngestSnapshot snap = ingest();
  std::ostringstream os;
  for (const SnapshotRow& row : kSnapshotRows) {
    os << row.metric << ' ' << snap.*row.field << '\n';
  }
  // Gauges of loop-thread state. The *_enabled flags are exported even
  // while off, so dashboards can tell "healthy" / "convergent" / "no
  // drops" apart from "not guarded" / "not auditing" / "not measuring".
  const auto gauge = [&os](Gauge id, const auto& value) {
    os << kGaugeRows[static_cast<std::size_t>(id)].metric << ' ' << value
       << '\n';
  };
  const InputHealth health = assess_health(now_);
  gauge(Gauge::rib_prefixes, collector_.rib().prefix_count());
  gauge(Gauge::rib_routes, collector_.rib().route_count());
  gauge(Gauge::overrides_active, controller_.active_overrides().size());
  gauge(Gauge::failsafe_enabled, ladder_.config().enabled ? 1 : 0);
  gauge(Gauge::alloc_incremental_enabled,
        config_.controller.incremental ? 1 : 0);
  gauge(Gauge::routers_known, health.routers_known);
  gauge(Gauge::demand_age_ms,
        health.demand_seen ? health.demand_age.millis_value() : -1);
  gauge(Gauge::audit_enabled, config_.audit.enabled ? 1 : 0);
  gauge(Gauge::dataplane_enabled, config_.dataplane.enabled ? 1 : 0);
  std::lock_guard<std::mutex> lock(digest_mutex_);
  if (!digests_.empty()) {
    gauge(Gauge::last_allocation_wall_ns,
          digests_.back().allocation_wall.count());
    gauge(Gauge::last_ranking_cache_hit_rate,
          digests_.back().ranking_cache_hit_rate);
  }
  return os.str();
}

}  // namespace ef::service
