// The efd announcer: the controller's BGP enforcement plane over real
// sockets.
//
// Each configured peering router (a PeeringRouterService, or anything
// speaking RFC 4271 on a loopback port) gets one TCP-backed BGP session.
// Every cycle the announcer is handed the controller's active override
// set; it reuses BgpSpeaker::set_originations, so only the delta since
// the last announced state leaves the box — UPDATEs with the high
// override LOCAL_PREF and the community-tagged origin for new/changed
// prefixes, withdraws for disappeared ones — and a session that redials
// mid-flight is resynchronized with the full current set on
// re-establishment. The UPDATE bytes are built by the exact same
// origination path the in-process controller injects through, which is
// what makes the interop test's bitwise comparison meaningful.
//
// kill() is the fail-safe drill: every session goes silent without a
// NOTIFICATION or FIN, so the routers only learn of the controller's
// death when their hold timers expire — at which point they drop every
// injected override and revert to vanilla BGP (paper §4.3).
//
// Threading: connect/announce/withdraw_all/kill must run on the loop
// thread (efd calls them from its cycle path; tests use run_sync). The
// Stats snapshot and per-peer counters are atomics, readable anywhere.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgp/session_driver.h"
#include "bgp/speaker.h"
#include "core/allocator.h"
#include "io/backoff.h"
#include "io/event_loop.h"
#include "io/fault.h"
#include "service/counters.h"

// The announcer's counters, one row each: Stats field, the efd
// IngestSnapshot field that re-exports it, /metrics name, help text.
// updates_sent counts post-fault wire messages, so drain barriers against
// the peer's updates_received stay exact; the faults_* / swallowed rows
// stay zero unless Config::faults is set.
#define EF_ANNOUNCER_COUNTERS(X)                                              \
  X(sessions_configured, bgp_sessions_configured,                             \
    "efd_bgp_sessions_configured", "peering routers in --announce")          \
  X(sessions_established, bgp_sessions_established,                           \
    "efd_bgp_sessions_established", "announcer sessions currently up")       \
  X(session_drops, bgp_session_drops, "efd_bgp_session_drops_total",          \
    "announcer session drops (each one is a ladder event)")                  \
  X(redials, bgp_redials, "efd_bgp_redials_total",                            \
    "announcer reconnect attempts (backoff-paced)")                          \
  X(updates_sent, bgp_updates_sent, "efd_bgp_updates_sent_total",             \
    "UPDATE messages sent, all routers")                                     \
  X(withdraw_msgs, bgp_withdraw_msgs, "efd_bgp_withdraw_updates_total",       \
    "UPDATEs that only withdraw")                                            \
  X(prefixes_active, bgp_prefixes_announced, "efd_bgp_prefixes_announced",    \
    "currently announced override set size")                                 \
  X(faults_dropped, bgp_faults_dropped, "efd_bgp_faults_dropped_total",       \
    "UPDATEs an injected fault kept off the wire")                           \
  X(faults_duplicated, bgp_faults_duplicated,                                 \
    "efd_bgp_faults_duplicated_total", "UPDATEs an injected fault sent twice") \
  X(faults_flapped, bgp_faults_flapped, "efd_bgp_faults_flapped_total",       \
    "sessions an injected fault failed after a send")                        \
  X(withdraws_swallowed, bgp_withdraws_swallowed,                             \
    "efd_bgp_withdraws_swallowed_total",                                      \
    "withdraw-bearing UPDATEs an injected fault dropped")

namespace ef::service {

class Announcer {
 public:
  struct Config {
    /// Peering-router BGP ports on 127.0.0.1, one session each.
    std::vector<std::uint16_t> ports;
    /// iBGP: same AS as the routers (the controller session is internal).
    bgp::AsNumber local_as;
    bgp::RouterId router_id{0xefd00001};
    bgp::AsNumber peer_as;  // expected in the peer's OPEN; 0 = any
    std::uint16_t hold_time_secs = 90;
    std::chrono::milliseconds tick_period{500};
    /// LOCAL_PREF stamped on injected routes — must beat every
    /// import-policy default so overrides win the decision process.
    std::uint32_t override_local_pref = 1000;
    /// Redial schedule (ticks are milliseconds). max_retries 0 =
    /// keep dialing forever.
    io::BackoffConfig redial{.base = 100, .cap = 2000, .max_retries = 0};
    /// BGP-path fault injection (chaos). One persistent injector per
    /// peer, seeded from faults->seed mixed with the peer index, indexed
    /// by *UPDATE* message only — KEEPALIVE/OPEN timing is wall-clock
    /// driven and must not perturb the schedule, or bitwise chaos replay
    /// breaks. Supported kinds on this path: drop (UPDATE never leaves),
    /// duplicate (sent twice), disconnect (sent, then the session is
    /// flapped — also models a delayed ESTABLISHED, since the redial
    /// defers the next establishment), and the swallow_withdraw roll.
    /// Corrupt/truncate are not meaningful here (they poison the peer's
    /// framing and void the drain-barrier counting) and are delivered
    /// mangled at the caller's own risk. nullopt = no injector, bytes
    /// identical to a build without this feature.
    std::optional<io::FaultConfig> faults;
    /// Scripted faults, addressed by per-peer UPDATE index (applies to
    /// every peer's injector). Lets tests flap at an exact UPDATE.
    std::vector<io::ScriptedFault> fault_script;
  };

  /// Session lifecycle report for the failsafe ladder: established,
  /// dropped (with reason), or redial budget exhausted.
  using EventFn = std::function<void(std::size_t peer_index, bool up,
                                     const std::string& reason)>;

  Announcer(io::EventLoop& loop, Config config);
  ~Announcer();
  Announcer(const Announcer&) = delete;
  Announcer& operator=(const Announcer&) = delete;

  void set_event_handler(EventFn fn) { on_event_ = std::move(fn); }

  /// Dials every configured port; failures enter the backoff schedule.
  void connect();

  /// Replaces the enforced override set: delta UPDATEs + withdraws only.
  void announce(const std::map<net::Prefix, core::Override>& overrides,
                net::SimTime now);

  /// Explicit fail-static: withdraws every announced prefix now, without
  /// waiting for any hold timer.
  void withdraw_all(net::SimTime now);

  /// Auditor repair: re-sends the current origination UPDATE for each
  /// prefix to every established session (fixes missing / wrong-
  /// attribute divergence at the router). Prefixes not currently in the
  /// announced set are ignored — force_withdraw is the tool for those.
  void refresh(const std::vector<net::Prefix>& prefixes, net::SimTime now);

  /// Auditor repair: unconditional withdraws for router state this
  /// announcer has no origination for (extra-stale divergence — e.g.
  /// overrides surviving from a previous controller incarnation).
  void force_withdraw(const std::vector<net::Prefix>& prefixes,
                      net::SimTime now);

  /// Silent death: stops every session's timers and reads but keeps the
  /// sockets open — peers see silence until their hold timers expire.
  /// No further announce/redial happens. Keep the Announcer alive for as
  /// long as the silence should last (destruction closes the fds).
  void kill();
  bool killed() const { return killed_; }

  std::size_t peer_count() const { return peers_.size(); }

  enum class Counter : std::size_t {
    EF_ANNOUNCER_COUNTERS(EF_COUNTER_ID) kCount
  };
  struct Stats {
    EF_ANNOUNCER_COUNTERS(EF_COUNTER_FIELD)
  };
  Stats stats() const;
  /// The counter storage itself, for owners that re-export it: efd loads
  /// it straight into its IngestSnapshot.
  const Counters<Counter>& counters() const { return counters_; }

  /// UPDATE messages delivered to peer `i` across all of its sessions —
  /// the barrier counter the interop test compares against the
  /// peering router's updates_received.
  std::uint64_t updates_sent_to(std::size_t i) const;

  /// Loop-thread-owned; tests may inspect while provably idle.
  bgp::BgpSpeaker& speaker() { return speaker_; }

 private:
  struct Peer {
    std::uint16_t port = 0;
    bgp::PeerId id;  // 0 = no session registered
    std::unique_ptr<bgp::SessionDriver> driver;
    std::unique_ptr<io::Reconnector> reconnector;
    /// Survives redials: the per-peer UPDATE index keeps counting across
    /// session flaps so the fault schedule is one deterministic sequence
    /// for the whole run.
    std::unique_ptr<io::FaultInjector> faults;
    bool up = false;
  };

  bool dial(std::size_t index);
  void on_session_up(std::size_t index);
  void on_driver_down(std::size_t index, const std::string& reason);
  void publish();

  io::EventLoop& loop_;
  Config config_;
  bgp::BgpSpeaker speaker_;
  std::vector<std::unique_ptr<Peer>> peers_;
  EventFn on_event_;
  bool killed_ = false;

  Counters<Counter> counters_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> per_peer_sent_;
};

}  // namespace ef::service
