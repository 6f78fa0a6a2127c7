// efd: the Edge Fabric controller daemon.
//
// Everything the simulator wires together in-process, as a long-running
// service fed over real sockets: BMP sessions arrive on a TCP listener
// and build a RIB in a BmpCollector; EFS1 sFlow datagrams arrive on UDP
// and drive the demand estimation pipeline; window-close markers (and,
// optionally, a wall-clock timer) trigger controller cycles; and a
// plaintext HTTP endpoint exposes /status and /metrics.
//
// All ingest and cycle state lives on the event-loop thread — the only
// cross-thread surface is the counters (and the mutex-guarded cycle
// digests), which is what makes the daemon cheap to reason about under
// TSan. Each counter is one row of EF_EFD_COUNTERS below; the loop
// thread publishes every counter write with release ordering after the
// state change it reports, and ingest() loads every counter with acquire
// (counters.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "audit/cycle_journal.h"
#include "audit/event.h"
#include "bmp/collector.h"
#include "core/controller.h"
#include "dataplane/dataplane.h"
#include "io/event_loop.h"
#include "io/frame.h"
#include "io/socket.h"
#include "service/announcer.h"
#include "service/auditor.h"
#include "service/counters.h"
#include "service/failsafe.h"
#include "service/http.h"
#include "telemetry/sflow.h"
#include "telemetry/sflow_wire.h"
#include "topology/pop.h"

// efd's counters, one row each: IngestSnapshot field, /metrics name, help.
// Written by the loop thread (counters.h); docs/OPERATIONS.md's metrics
// reference is rendered from this table, EF_ANNOUNCER_COUNTERS and
// EF_EFD_GAUGES.
#define EF_EFD_COUNTERS(X)                                                    \
  X(bmp_connections, "efd_bmp_connections_total", "BMP sessions accepted")   \
  X(bmp_disconnects, "efd_bmp_disconnects_total",                             \
    "BMP sessions closed (EOF, error or poisoned framing)")                   \
  X(bmp_bytes, "efd_bmp_bytes_total",                                         \
    "BMP bytes whose complete frames are applied to the RIB")                \
  X(bmp_messages, "efd_bmp_messages_total", "BMP messages applied to the RIB") \
  X(bmp_malformed, "efd_bmp_malformed_total",                                 \
    "BMP frames skipped: undecodable, or sent before an Initiation")         \
  X(sflow_datagrams, "efd_sflow_datagrams_total",                             \
    "sFlow datagrams received, EFS1 or not")                                 \
  X(sflow_records, "efd_sflow_records_total", "EFS1 records decoded")         \
  X(sflow_bytes, "efd_sflow_bytes_total", "sFlow datagram bytes received")    \
  X(windows_closed, "efd_windows_closed_total",                               \
    "demand windows closed by window-close markers")                         \
  X(cycles_run, "efd_cycles_run_total",                                       \
    "guarded controller cycles (run, hold or withdraw)")                     \
  X(failsafe_mode, "efd_failsafe_mode",                                       \
    "ladder mode: 0 healthy, 1 hold-last-good, 2 fail-static")               \
  X(failsafe_holds, "efd_failsafe_holds_total", "cycles answered with hold") \
  X(failsafe_fail_statics, "efd_failsafe_fail_statics_total",                 \
    "cycles answered with withdraw")                                         \
  X(failsafe_recoveries, "efd_failsafe_recoveries_total",                     \
    "ladder transitions back to healthy")                                    \
  X(failsafe_transitions, "efd_failsafe_transitions_total",                   \
    "ladder mode changes")                                                   \
  X(watchdog_aborts, "efd_watchdog_aborts_total",                             \
    "cycles aborted by the wall-clock budget")                               \
  X(churn_deferred, "efd_churn_deferred_total",                               \
    "override changes pushed to a later cycle by --max-churn-frac")          \
  X(alloc_incremental_cycles, "efd_alloc_incremental_cycles_total",           \
    "cycles the incremental (delta) path ran")                               \
  X(alloc_full_fallbacks, "efd_alloc_full_fallbacks_total",                   \
    "incremental-mode cycles that fell back to a full recompute")            \
  X(alloc_escalations, "efd_alloc_escalations_total",                         \
    "overload-class flips seen by the incremental engine")                   \
  X(alloc_dirty_prefixes, "efd_alloc_dirty_prefixes",                         \
    "dirty prefixes in the last incremental-mode cycle")                     \
  X(alloc_incremental_wall_ns, "efd_alloc_incremental_wall_ns",               \
    "allocation wall time of the last delta cycle")                          \
  X(alloc_full_wall_ns, "efd_alloc_full_wall_ns",                             \
    "allocation wall time of the last full cycle in incremental mode")       \
  X(routers_down, "efd_routers_down", "known BMP feeds currently down")      \
  X(router_reconnects, "efd_router_reconnects_total",                         \
    "BMP feeds that came back after a drop")                                 \
  X(http_aborted_conns, "efd_http_aborted_conns_total",                       \
    "HTTP clients gone mid-response")                                        \
  X(audit_runs, "efd_audit_runs_total", "audit passes executed")             \
  X(audit_divergent, "efd_audit_divergent_total",                             \
    "audit passes that found any divergence")                                \
  X(audit_missing, "efd_audit_missing_total",                                 \
    "missing-class audit findings, cumulative")                              \
  X(audit_extra, "efd_audit_extra_total",                                     \
    "extra-stale audit findings, cumulative")                                \
  X(audit_wrong_attrs, "efd_audit_wrong_attrs_total",                         \
    "wrong-attrs audit findings, cumulative")                                \
  X(audit_repairs_announce, "efd_audit_repairs_announce_total",               \
    "audit repair re-announcements sent")                                    \
  X(audit_repairs_withdraw, "efd_audit_repairs_withdraw_total",               \
    "audit repair withdraws sent")                                           \
  X(audit_unrepaired, "efd_audit_unrepaired_total",                           \
    "audit findings deferred past the per-pass repair budget")               \
  X(audit_divergent_streak, "efd_audit_divergent_streak",                     \
    "consecutive divergent audits (0 = convergent)")                         \
  X(audit_escalations, "efd_audit_escalations_total",                         \
    "cycles where the audit rung decided the ladder mode")                   \
  X(journal_keyframes, "efd_journal_keyframes_total",                         \
    "full cycle records (keyframes) journaled")                              \
  X(journal_deltas, "efd_journal_deltas_total",                               \
    "delta cycle records journaled")                                         \
  X(journal_bytes, "efd_journal_bytes_total",                                 \
    "bytes written to the journal, file header included")                    \
  X(recovery_writes, "efd_recovery_writes_total",                             \
    "warm-restart recovery snapshots written")                               \
  X(recovered, "efd_recovered",                                               \
    "1 when this process started from a recovery snapshot")                  \
  X(dataplane_steps, "efd_dataplane_steps_total",                             \
    "dataplane emulation steps (one per cycle)")                             \
  X(dataplane_flows_active, "efd_dataplane_flows_active",                     \
    "flows active in the last dataplane step")                               \
  X(dataplane_flows_moved, "efd_dataplane_flows_moved_total",                 \
    "flows moved to a different egress")                                     \
  X(dataplane_reorder_events, "efd_dataplane_reorder_events_total",           \
    "moved flows that had bytes in flight (reordering risk)")                \
  X(dataplane_offered_bytes, "efd_dataplane_offered_bytes_total",             \
    "bytes offered to the emulated interface queues")                        \
  X(dataplane_delivered_bytes, "efd_dataplane_delivered_bytes_total",         \
    "bytes the emulated interfaces delivered")                               \
  X(dataplane_dropped_bytes, "efd_dataplane_dropped_bytes_total",             \
    "bytes dropped at full emulated queues")                                 \
  X(dataplane_queued_bytes, "efd_dataplane_queue_depth_bytes",                \
    "bytes queued after the last dataplane step")

// The announcer's rows re-exported through IngestSnapshot.
#define EF_EFD_BGP_FIELD(field, ingest, ...) std::uint64_t ingest = 0;

// Gauges read straight from loop-thread state when /metrics renders; no
// IngestSnapshot field. Row: id, /metrics name, help.
#define EF_EFD_GAUGES(X)                                                      \
  X(rib_prefixes, "efd_rib_prefixes", "prefixes in the BMP-fed RIB")          \
  X(rib_routes, "efd_rib_routes", "routes in the BMP-fed RIB")                \
  X(overrides_active, "efd_overrides_active", "active override set size")     \
  X(failsafe_enabled, "efd_failsafe_enabled", "1 when the ladder is armed")  \
  X(alloc_incremental_enabled, "efd_alloc_incremental_enabled",               \
    "1 when --incremental is armed")                                         \
  X(routers_known, "efd_routers_known", "BMP feeds ever seen")                \
  X(demand_age_ms, "efd_demand_age_ms",                                       \
    "feed-time age of the newest demand window (-1: none yet)")              \
  X(audit_enabled, "efd_audit_enabled", "1 when the auditor is armed")        \
  X(dataplane_enabled, "efd_dataplane_enabled",                               \
    "1 when dataplane emulation is on")                                      \
  X(last_allocation_wall_ns, "efd_last_allocation_wall_ns",                   \
    "allocation wall time of the last cycle (after the first cycle)")        \
  X(last_ranking_cache_hit_rate, "efd_last_ranking_cache_hit_rate",           \
    "ranking-cache hit rate of the last cycle (after the first cycle)")

namespace ef::service {

struct EfdConfig {
  /// Listening ports; 0 picks an ephemeral port (see the accessors).
  std::uint16_t bmp_port = 0;
  std::uint16_t sflow_port = 0;
  std::uint16_t http_port = 0;

  /// Allocation pipeline configuration. Enforcement selects the daemon's
  /// stance: kBgpInjection injects into the attached PoP's routers,
  /// kShadow computes decisions without pushing them (mirror/dry-run).
  core::ControllerConfig controller;

  /// Must match the feed's sampler for scale-up to be correct.
  std::uint32_t sflow_sample_rate = 10;
  /// EWMA weight for smoothing sampled windows (ignored for feeds that
  /// ship precomputed demand records, which arrive already smoothed).
  double sflow_smoothing_alpha = 0.4;

  /// When true, a wall-clock timer also runs cycles every
  /// `cycle_wall_period`, advancing feed time by `controller.cycle_period`
  /// per fire — keeps a daemon with a stalled (or absent) feed cycling.
  bool real_time_cycles = false;
  std::chrono::milliseconds cycle_wall_period{1000};

  /// Input health guards + degradation ladder (see failsafe.h). Disabled
  /// by default: the daemon then behaves exactly as before the ladder
  /// existed. `fresh_demand_age == 0` is normalized to the cycle period.
  FailsafeConfig failsafe;

  /// When non-empty, every controller cycle's snapshot and every
  /// degradation-ladder transition is appended to this audit journal
  /// (mixed EFJ1 stream; see audit/event.h).
  std::string journal_path;

  /// BGP enforcement plane. When non-empty, efd dials each port on
  /// 127.0.0.1 as a TCP-backed BGP session (the announcer) and enforces
  /// every cycle's override set over the wire: delta UPDATEs carrying
  /// `controller.override_local_pref` and the override community, and an
  /// explicit withdraw-all when the ladder goes fail-static. Announcer
  /// session drops are journaled as failsafe events. Pair with kShadow
  /// enforcement when the wire replaces in-process injection.
  std::vector<std::uint16_t> announce_ports;
  std::uint16_t announce_hold_secs = 90;
  std::chrono::milliseconds announce_tick_period{500};

  /// BGP-path fault injection on the announcer's sessions (chaos only;
  /// see Announcer::Config::faults). nullopt = clean wire.
  std::optional<io::FaultConfig> announce_faults;
  std::vector<io::ScriptedFault> announce_fault_script;

  /// Closed-loop enforcement audit (see auditor.h). Every
  /// audit.interval_cycles-th guarded cycle, the previous cycle's
  /// enforced set is diffed against the router-side read-back, bounded
  /// repairs are sent, and repeated divergence escalates into the
  /// failsafe ladder. audit.override_local_pref is normalized to
  /// controller.override_local_pref.
  AuditorConfig audit;
  /// Read-back channel: returns the router-side routes to audit against
  /// (e.g. PeeringRouterService::routes() — its run_sync hop is safe
  /// here because prd runs its own loop). Invoked on efd's loop thread.
  /// When unset, kBgpInjection mode reads the attached PoP routers'
  /// RIBs directly (the in-process audit digest); other modes audit
  /// against an empty read-back only if a channel is provided — i.e.
  /// never, so enable the audit with exactly one of these wired.
  std::function<std::vector<bgp::Route>()> audit_read_back;

  /// Crash-safe warm restart. When `recovery_path` is non-empty, each
  /// healthy cycle (and the orderly teardown in wait()) atomically
  /// rewrites that file with a RecoverySnapshot of the enforced
  /// override set. With `recover` also set, startup reads the file and
  /// resumes in hold-last-good from the recovered anchor — re-announcing
  /// the pre-crash set instead of passing through cold fail-static.
  /// A missing/corrupt file degrades to the normal cold start.
  std::string recovery_path;
  bool recover = false;

  /// Flow-level dataplane emulation (off by default). When enabled,
  /// every controller cycle additionally hashes a heavy-tailed flow
  /// population onto the egress interfaces the cycle's decisions
  /// selected (override target first, then the collector RIB's best
  /// path) and services bounded interface queues, exporting measured
  /// drop/reorder/queue-depth counters through /metrics.
  dataplane::DataplaneConfig dataplane;
};

class EfdService {
 public:
  /// `pop` provides interface state and NEXT_HOP -> egress resolution
  /// (and, under kBgpInjection, the routers to inject into); it must
  /// outlive the service. The RIB and demand come from the sockets, not
  /// from the PoP's in-process collector.
  EfdService(topology::Pop& pop, EfdConfig config);
  ~EfdService();

  EfdService(const EfdService&) = delete;
  EfdService& operator=(const EfdService&) = delete;

  /// Opens the listeners and spawns the loop thread. Call once.
  void start();
  /// Stops the loop and joins the thread; idempotent. Sockets close here.
  void stop();
  /// Blocks until the loop exits on its own (signal or explicit stop from
  /// another thread), then tears ingest state down. The efd binary's
  /// foreground wait.
  void wait();
  bool running() const { return thread_.joinable(); }

  std::uint16_t bmp_port() const;
  std::uint16_t sflow_port() const;
  std::uint16_t http_port() const;

  /// Routes SIGINT/SIGTERM into an orderly stop() via the loop's
  /// signalfd. The caller must have blocked those signals process-wide
  /// (sigprocmask before spawning any thread) and call this before
  /// start(). The efd binary uses this; tests and embedded services
  /// don't.
  void shutdown_on_signals();

  /// Cross-thread-readable counters (plain snapshot): one field per
  /// EF_EFD_COUNTERS row, then one per EF_ANNOUNCER_COUNTERS row (all
  /// zero without announce_ports).
  struct IngestSnapshot {
    EF_EFD_COUNTERS(EF_COUNTER_FIELD)
    EF_ANNOUNCER_COUNTERS(EF_EFD_BGP_FIELD)
  };
  IngestSnapshot ingest() const;

  /// The /metrics reference as a markdown table, one row per exported
  /// name with its help text, rendered from the counter and gauge tables.
  /// docs/OPERATIONS.md embeds it verbatim.
  static std::string metrics_reference();

  /// What one cycle decided — the unit the loopback integration test
  /// compares bitwise against the in-process controller.
  struct CycleDigest {
    net::SimTime when;
    std::vector<core::Override> overrides;  // active set, prefix order
    std::chrono::nanoseconds allocation_wall{0};
    double ranking_cache_hit_rate = 0.0;
    /// What the degradation ladder let this cycle do (kRun when the
    /// failsafe is disabled).
    audit::FailsafeAction action = audit::FailsafeAction::kRun;
    audit::FailsafeMode mode = audit::FailsafeMode::kHealthy;
    /// Incremental-engine execution trace (all defaults unless
    /// controller.incremental is set and the cycle ran).
    bool incremental_cycle = false;
    std::size_t dirty_prefixes = 0;
    std::size_t escalations = 0;
    std::size_t full_fallbacks = 0;
    /// Enforcement-audit trace (defaults unless an audit ran this
    /// cycle). Part of the chaos --verify digest comparison: two runs
    /// with the same fault schedule must audit identically.
    bool audit_ran = false;
    std::uint64_t audit_missing = 0;
    std::uint64_t audit_extra = 0;
    std::uint64_t audit_wrong_attrs = 0;
    std::uint64_t audit_repaired = 0;
    std::uint32_t audit_divergent_streak = 0;
  };
  std::vector<CycleDigest> digests() const;

  /// Blocks until `pred(ingest())` holds or `timeout` passes. The
  /// feeder-side barrier: every counter is published with release
  /// ordering after the state change it reports and loaded with acquire,
  /// so a satisfied predicate — on any counter — means the daemon
  /// finished that processing (and is idle if nothing else was sent).
  bool wait_until(const std::function<bool(const IngestSnapshot&)>& pred,
                  std::chrono::milliseconds timeout) const;
  bool wait_for_bmp_bytes(std::uint64_t n,
                          std::chrono::milliseconds timeout) const;
  bool wait_for_disconnects(std::uint64_t n,
                            std::chrono::milliseconds timeout) const;
  bool wait_for_windows(std::uint64_t n,
                        std::chrono::milliseconds timeout) const;
  bool wait_for_datagrams(std::uint64_t n,
                          std::chrono::milliseconds timeout) const;

  /// Loop-thread-owned state; only touch from the loop thread or while
  /// the service is provably idle (after a wait_* barrier or stop()).
  const bmp::BmpCollector& collector() const { return collector_; }
  core::Controller& controller() { return controller_; }
  io::EventLoop& loop() { return loop_; }

  /// The BGP enforcement plane, or nullptr without announce_ports. The
  /// atomic Stats/per-peer counters are readable from any thread.
  const Announcer* announcer() const { return announcer_.get(); }

  /// The dataplane emulation, or nullptr unless config.dataplane.enabled.
  /// Loop-thread-owned like the collector; read after a barrier.
  const dataplane::Dataplane* dataplane() const { return dataplane_.get(); }

  /// Fail-safe drill: silences every announcer session without a
  /// NOTIFICATION or FIN (sockets stay open), so the peering routers
  /// only notice via hold-timer expiry. Callable from any thread while
  /// the service runs.
  void kill_announcer();

 private:
  struct BmpConn {
    io::TcpConn tcp;
    io::FrameReassembler frames;
    std::optional<std::uint32_t> router_key;  // set by Initiation sysName
    BmpConn(io::Fd fd, io::PeekFn peek)
        : tcp(std::move(fd)), frames(std::move(peek)) {}
  };

  void on_bmp_accept();
  void on_bmp_event(int fd, std::uint32_t ready);
  /// Decodes one complete frame and applies it: malformed accounting,
  /// router-identity bookkeeping, collector apply.
  void handle_bmp_frame(BmpConn& conn,
                        std::span<const std::uint8_t> frame);
  void close_bmp_conn(int fd, bool count_disconnect);
  void on_sflow_ready();
  void handle_record(const telemetry::wire::SflowRecord& record);
  void on_window_close(const telemetry::wire::WindowClose& close);
  /// Assembles input health, asks the ladder, and runs / holds /
  /// withdraws accordingly. Every call produces one CycleDigest.
  void run_cycle_guarded(net::SimTime now,
                         const telemetry::DemandMatrix& demand);
  /// The audit pass at the head of a guarded cycle: reads back the
  /// router-side state, diffs it against the previous cycle's enforced
  /// set, executes the bounded repair plan, journals divergence, and
  /// fills the digest's audit fields.
  void run_audit(net::SimTime now, CycleDigest& digest);
  /// Router-side read-back: config_.audit_read_back when wired, else
  /// the attached PoP routers' RIBs (kBgpInjection in-process mode).
  std::vector<bgp::Route> audit_observed();
  /// Atomically (tmp + rename) rewrites the recovery file with the
  /// current enforced set. Called each healthy kRun cycle and once more
  /// on orderly teardown.
  void persist_recovery(net::SimTime when);
  /// Constructor-time warm restart: loads the newest valid
  /// RecoverySnapshot and resumes in hold-last-good from its anchor.
  void try_recover();
  InputHealth assess_health(net::SimTime now) const;
  void journal_event(const audit::FailsafeEvent& event);
  void publish_journal_counters();
  void on_announcer_event(std::size_t peer_index, bool up,
                          const std::string& reason);
  void publish_ladder_counters();
  HttpResponse serve_http(const std::string& path);
  std::string render_status() const;
  std::string render_metrics() const;

  topology::Pop* pop_;
  EfdConfig config_;
  io::EventLoop loop_;
  std::thread thread_;

  bmp::BmpCollector collector_;
  core::Controller controller_;
  telemetry::TrafficAggregator aggregator_;
  telemetry::DemandSmoother smoother_;
  /// Precomputed demand (DemandRate records), kept across windows: the
  /// feed updates it in place and retires a prefix by reporting zero.
  /// Set-in-place keeps the demand change log, not the feed size, as
  /// the incremental allocator's per-cycle work.
  telemetry::DemandMatrix direct_demand_;
  bool direct_seen_ = false;  // any DemandRate ever received
  net::SimTime now_;
  net::SimTime next_cycle_;  // zero: first marker runs a cycle, like sim

  FailsafeLadder ladder_;
  /// Liveness of each BMP feed, keyed by router key. A key stays known
  /// forever once seen — a router that stops talking is an outage, not
  /// a shrinking fleet.
  struct FeedHealth {
    bool connected = false;
    net::SimTime down_since;
  };
  std::map<std::uint32_t, FeedHealth> feed_health_;
  bool window_had_demand_ = false;  // records seen since last marker
  bool demand_seen_ = false;        // any demand window ever closed
  net::SimTime last_demand_;        // feed time of the newest one
  std::unique_ptr<audit::CycleJournal> journal_;
  std::unique_ptr<Announcer> announcer_;
  std::unique_ptr<EnforcementAuditor> auditor_;
  /// The intent each audit diffs against: the override set enforced at
  /// the END of the previous guarded cycle. Auditing the *previous*
  /// cycle's set (not the one about to be computed) gives the announce a
  /// full cycle to propagate before it is judged.
  std::map<net::Prefix, core::Override> audited_intent_;
  bool recovered_ = false;  // started from a recovery snapshot
  std::unique_ptr<dataplane::Dataplane> dataplane_;
  net::SimTime last_dataplane_step_;
  bool dataplane_stepped_ = false;

  std::optional<io::TcpListener> bmp_listener_;
  std::optional<io::UdpSocket> sflow_sock_;
  std::unique_ptr<HttpServer> http_;
  std::map<int, std::unique_ptr<BmpConn>> bmp_conns_;
  std::map<std::string, std::uint32_t> router_keys_;  // sysName -> key
  std::uint32_t next_router_key_ = 1;

  enum class Counter : std::size_t { EF_EFD_COUNTERS(EF_COUNTER_ID) kCount };
  Counters<Counter> counters_;

  mutable std::mutex digest_mutex_;
  std::vector<CycleDigest> digests_;
};

}  // namespace ef::service
