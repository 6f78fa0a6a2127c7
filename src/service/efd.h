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
// cross-thread surface is the atomic counters (and the mutex-guarded
// cycle digests), which is what makes the daemon cheap to reason about
// under TSan.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "audit/event.h"
#include "audit/journal.h"
#include "bmp/collector.h"
#include "core/controller.h"
#include "dataplane/dataplane.h"
#include "io/event_loop.h"
#include "io/frame.h"
#include "io/socket.h"
#include "runtime/thread_pool.h"
#include "service/announcer.h"
#include "service/auditor.h"
#include "service/failsafe.h"
#include "service/http.h"
#include "telemetry/sflow.h"
#include "telemetry/sflow_wire.h"
#include "topology/pop.h"

namespace ef::service {

struct EfdConfig {
  /// Listening ports; 0 picks an ephemeral port (see the accessors).
  std::uint16_t bmp_port = 0;
  std::uint16_t sflow_port = 0;
  std::uint16_t http_port = 0;

  /// Allocation pipeline configuration. Enforcement selects the daemon's
  /// stance: kBgpInjection injects into the attached PoP's routers,
  /// kShadow computes decisions without pushing them (mirror/dry-run).
  ///
  /// With controller.incremental set, the daemon keeps the direct-demand
  /// matrix (DemandRate feeds) alive across windows instead of clearing
  /// it after each cycle, so the demand change log — not the feed size —
  /// drives per-cycle work. A prefix the feed stops reporting then keeps
  /// its last rate until re-reported (send zero to retire it). Sampled
  /// (FlowSample + smoother) feeds rescale every prefix each window and
  /// therefore gain nothing from the delta path.
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

  /// Worker threads for BMP frame decoding. 0 (default) decodes inline
  /// on the event-loop thread, exactly the pre-pipeline behaviour. N > 0
  /// moves wire decoding onto a pool: each router session's frames are
  /// copied off the read buffer, decoded off-loop (at most one batch per
  /// session in flight, so per-router apply order is preserved), and the
  /// decoded messages are posted back to the loop thread, which remains
  /// the only writer of the RIB. Sessions decode concurrently with each
  /// other and with allocation cycles. docs/SCALING.md §3 covers sizing.
  unsigned decode_threads = 0;
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

  /// Cross-thread-readable ingest counters (plain snapshot).
  struct IngestSnapshot {
    std::uint64_t bmp_connections = 0;
    std::uint64_t bmp_disconnects = 0;
    std::uint64_t bmp_bytes = 0;
    std::uint64_t bmp_messages = 0;
    std::uint64_t bmp_malformed = 0;
    std::uint64_t bmp_decode_batches = 0;  // off-loop decoded batches
    std::uint64_t sflow_datagrams = 0;
    std::uint64_t sflow_records = 0;
    std::uint64_t sflow_bytes = 0;
    std::uint64_t windows_closed = 0;
    std::uint64_t cycles_run = 0;
    // Degradation-ladder state (all zero while failsafe is disabled).
    std::uint64_t failsafe_mode = 0;  // audit::FailsafeMode as integer
    std::uint64_t failsafe_holds = 0;
    std::uint64_t failsafe_fail_statics = 0;
    std::uint64_t failsafe_recoveries = 0;
    std::uint64_t failsafe_transitions = 0;
    std::uint64_t watchdog_aborts = 0;
    std::uint64_t churn_deferred = 0;
    // Incremental allocation (all zero unless controller.incremental).
    std::uint64_t alloc_incremental_cycles = 0;  // delta path ran
    std::uint64_t alloc_full_fallbacks = 0;      // fell back to full
    std::uint64_t alloc_escalations = 0;         // overload-class flips
    std::uint64_t alloc_dirty_prefixes = 0;      // last cycle's dirty set
    std::uint64_t alloc_incremental_wall_ns = 0;  // last delta cycle
    std::uint64_t alloc_full_wall_ns = 0;         // last full cycle
    std::uint64_t routers_down = 0;
    std::uint64_t router_reconnects = 0;
    std::uint64_t http_aborted_conns = 0;
    // Announcer / BGP enforcement plane (all zero without announce_ports).
    std::uint64_t bgp_sessions_configured = 0;
    std::uint64_t bgp_sessions_established = 0;
    std::uint64_t bgp_session_drops = 0;
    std::uint64_t bgp_redials = 0;
    std::uint64_t bgp_updates_sent = 0;
    std::uint64_t bgp_withdraw_msgs = 0;
    std::uint64_t bgp_prefixes_announced = 0;
    // Injected BGP-path faults (zero without announce_faults).
    std::uint64_t bgp_faults_dropped = 0;
    std::uint64_t bgp_faults_duplicated = 0;
    std::uint64_t bgp_faults_flapped = 0;
    std::uint64_t bgp_withdraws_swallowed = 0;
    // Enforcement audit (all zero unless audit.enabled).
    std::uint64_t audit_runs = 0;
    std::uint64_t audit_divergent = 0;
    std::uint64_t audit_missing = 0;
    std::uint64_t audit_extra = 0;
    std::uint64_t audit_wrong_attrs = 0;
    std::uint64_t audit_repairs_announce = 0;
    std::uint64_t audit_repairs_withdraw = 0;
    std::uint64_t audit_unrepaired = 0;
    std::uint64_t audit_divergent_streak = 0;
    std::uint64_t audit_escalations = 0;
    // Warm-restart recovery (zero without recovery_path).
    std::uint64_t recovery_writes = 0;
    std::uint64_t recovered = 0;  // 1 = started from a recovery snapshot
    // Dataplane emulation (all zero unless config.dataplane.enabled).
    std::uint64_t dataplane_steps = 0;
    std::uint64_t dataplane_flows_active = 0;
    std::uint64_t dataplane_flows_moved = 0;
    std::uint64_t dataplane_reorder_events = 0;
    std::uint64_t dataplane_offered_bytes = 0;
    std::uint64_t dataplane_delivered_bytes = 0;
    std::uint64_t dataplane_dropped_bytes = 0;
    std::uint64_t dataplane_queued_bytes = 0;
  };
  IngestSnapshot ingest() const;

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
  /// feeder-side barrier: counters are published with release ordering
  /// after the corresponding state change, so a satisfied predicate
  /// means the daemon finished processing (and is idle if nothing else
  /// was sent).
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
  /// One read's worth of complete BMP frames, copied off the connection
  /// buffer so a pool worker can decode them while the loop thread moves
  /// on. `bytes` is the raw byte count the batch accounts for — credited
  /// to bmp_bytes_ only after every decoded frame was applied (or the
  /// connection is provably gone), preserving the feeder barrier.
  struct DecodeBatch {
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<bmp::FrameDecode> decoded;  // filled by the pool worker
    std::size_t bytes = 0;
  };

  struct BmpConn {
    io::TcpConn tcp;
    io::FrameReassembler frames;
    std::optional<std::uint32_t> router_key;  // set by Initiation sysName
    /// Process-unique connection id: decode completions carry it so a
    /// recycled fd can never apply a dead session's frames to a new one.
    std::uint64_t id = 0;
    /// Batches read but not yet handed to the decode pool. At most one
    /// batch per connection is in flight at a time — that is what keeps
    /// apply order per router identical to arrival order.
    std::deque<DecodeBatch> pending_batches;
    bool decode_inflight = false;
    BmpConn(io::Fd fd, io::PeekFn peek)
        : tcp(std::move(fd)), frames(std::move(peek)) {}
  };

  void on_bmp_accept();
  void on_bmp_event(int fd, std::uint32_t ready);
  void handle_bmp_frame(BmpConn& conn,
                        std::span<const std::uint8_t> frame);
  /// Everything handle_bmp_frame does after wire decode: malformed
  /// accounting, router-identity bookkeeping, collector apply. Shared by
  /// the inline path and the decode-pool completion path.
  void apply_bmp_decode(BmpConn& conn, const bmp::FrameDecode& decoded);
  /// Submits the next pending batch for `conn` if none is in flight.
  void kick_decode(int fd, BmpConn& conn);
  /// Loop-thread completion: applies a decoded batch (if the connection
  /// is still the same one), credits its bytes, and kicks the next batch.
  void apply_decoded_batch(int fd, std::uint64_t conn_id, DecodeBatch& batch);
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
  telemetry::DemandMatrix direct_demand_;
  bool direct_seen_ = false;
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
  std::unique_ptr<audit::JournalWriter> journal_;
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
  std::uint64_t next_conn_id_ = 1;
  /// BMP decode pool (config.decode_threads > 0); null = inline decode.
  /// Reset in wait() before ingest state is torn down, so no decode task
  /// outlives the connections it was spawned for.
  std::unique_ptr<runtime::ThreadPool> decode_pool_;

  std::atomic<std::uint64_t> bmp_connections_{0};
  std::atomic<std::uint64_t> bmp_disconnects_{0};
  std::atomic<std::uint64_t> bmp_bytes_{0};
  std::atomic<std::uint64_t> bmp_messages_{0};
  std::atomic<std::uint64_t> bmp_malformed_{0};
  std::atomic<std::uint64_t> bmp_decode_batches_{0};
  std::atomic<std::uint64_t> sflow_datagrams_{0};
  std::atomic<std::uint64_t> sflow_records_{0};
  std::atomic<std::uint64_t> sflow_bytes_{0};
  std::atomic<std::uint64_t> windows_closed_{0};
  std::atomic<std::uint64_t> cycles_run_{0};
  std::atomic<std::uint64_t> failsafe_mode_{0};
  std::atomic<std::uint64_t> failsafe_holds_{0};
  std::atomic<std::uint64_t> failsafe_fail_statics_{0};
  std::atomic<std::uint64_t> failsafe_recoveries_{0};
  std::atomic<std::uint64_t> failsafe_transitions_{0};
  std::atomic<std::uint64_t> watchdog_aborts_{0};
  std::atomic<std::uint64_t> churn_deferred_{0};
  std::atomic<std::uint64_t> alloc_incremental_cycles_{0};
  std::atomic<std::uint64_t> alloc_full_fallbacks_{0};
  std::atomic<std::uint64_t> alloc_escalations_{0};
  std::atomic<std::uint64_t> alloc_dirty_prefixes_{0};
  std::atomic<std::uint64_t> alloc_incremental_wall_ns_{0};
  std::atomic<std::uint64_t> alloc_full_wall_ns_{0};
  std::atomic<std::uint64_t> routers_down_{0};
  std::atomic<std::uint64_t> router_reconnects_{0};
  std::atomic<std::uint64_t> audit_runs_{0};
  std::atomic<std::uint64_t> audit_divergent_{0};
  std::atomic<std::uint64_t> audit_missing_{0};
  std::atomic<std::uint64_t> audit_extra_{0};
  std::atomic<std::uint64_t> audit_wrong_attrs_{0};
  std::atomic<std::uint64_t> audit_repairs_announce_{0};
  std::atomic<std::uint64_t> audit_repairs_withdraw_{0};
  std::atomic<std::uint64_t> audit_unrepaired_{0};
  std::atomic<std::uint64_t> audit_streak_{0};
  std::atomic<std::uint64_t> audit_escalations_{0};
  std::atomic<std::uint64_t> recovery_writes_{0};
  std::atomic<std::uint64_t> dataplane_steps_{0};
  std::atomic<std::uint64_t> dataplane_flows_active_{0};
  std::atomic<std::uint64_t> dataplane_flows_moved_{0};
  std::atomic<std::uint64_t> dataplane_reorder_events_{0};
  std::atomic<std::uint64_t> dataplane_offered_bytes_{0};
  std::atomic<std::uint64_t> dataplane_delivered_bytes_{0};
  std::atomic<std::uint64_t> dataplane_dropped_bytes_{0};
  std::atomic<std::uint64_t> dataplane_queued_bytes_{0};

  mutable std::mutex digest_mutex_;
  std::vector<CycleDigest> digests_;
};

}  // namespace ef::service
