// The Edge Fabric controller: the periodic loop around the allocator.
//
// Every cycle it reads the PoP's BMP-assembled RIB, the sFlow demand
// estimate, and interface state; runs the stateless allocator; and makes
// the router state match by announcing/withdrawing override routes over
// an ordinary BGP session with a high LOCAL_PREF. If the controller dies,
// the session's hold timer expires and the routers discard every
// override — the system degrades to vanilla BGP, never to a wedged state.
#pragma once

#include <chrono>
#include <map>
#include <optional>

#include "bgp/speaker.h"
#include "core/allocator.h"
#include "core/safety.h"
#include "topology/pop.h"

namespace ef::core {

/// Community stamped on every injected override so analyses (and
/// operators) can identify Edge Fabric routes at a glance.
inline constexpr bgp::Community kOverrideCommunity{64998, 1};

/// How overrides reach the forwarding plane.
enum class Enforcement : std::uint8_t {
  /// The paper's deployed design: BGP announcements with high LOCAL_PREF.
  /// Self-reverting — session teardown withdraws everything.
  kBgpInjection = 0,
  /// Espresso-style host routing: program hosts/edge directly with the
  /// egress choice. Faster and finer-grained, but host state survives a
  /// controller crash, so every entry carries a lease that the running
  /// controller keeps refreshing; a dead controller's entries persist
  /// (possibly stale!) until the lease runs out.
  kHostRouting = 1,
  /// Compute-only: run the full allocation + safety pipeline and track
  /// the override set, but never push it anywhere. This is the efd
  /// daemon's mirror mode (decisions are compared against an enforcing
  /// controller) and doubles as an operator dry-run.
  kShadow = 2,
};

struct ControllerConfig {
  AllocatorConfig allocator;
  SafetyConfig safety;
  Enforcement enforcement = Enforcement::kBgpInjection;
  /// Lease on host-routing entries, as a multiple of the cycle period.
  double host_lease_cycles = 3.0;
  net::SimTime cycle_period = net::SimTime::seconds(30);
  /// LOCAL_PREF on injected routes; must exceed every import-policy
  /// default so overrides win the decision process outright.
  std::uint32_t override_local_pref = 1000;
  /// Hysteresis ablation: when > 0, an override whose original interface
  /// is still above this utilization is retained even if the stateless
  /// allocation would drop it. 0 reproduces the paper's pure stateless
  /// behaviour.
  double restore_threshold = 0.0;
  /// Inject to every peering router at the PoP (paper behaviour), so the
  /// loss of one injection session does not strand the overrides.
  bool inject_all_routers = true;
  /// Churn guard: cap on the fraction of tracked prefixes (current ∪
  /// proposed override sets) whose override may *change* in one cycle —
  /// a new override, or an existing one moving to a different egress.
  /// Removals and rate-only refreshes are always free (shrinking toward
  /// plain BGP is the safe direction). Deferred changes keep last
  /// cycle's decision and retry next cycle. 0 disables the guard.
  double max_churn_frac = 0.0;
  /// Cycle watchdog: wall-clock budget for one run_cycle call. On
  /// overrun the cycle aborts fail-static — every override is withdrawn
  /// instead of enforced, because a controller that can no longer keep
  /// up is acting on data older than it thinks. 0 disables the watchdog.
  std::chrono::nanoseconds cycle_budget{0};
  /// Incremental (delta) allocation: carry the previous cycle's
  /// classification in a ledger and re-rank/re-project only the prefixes
  /// the RIB and demand change logs report dirty. Bitwise identical to
  /// the full recompute every cycle (the allocator falls back to a full
  /// pass whenever it cannot prove that), so this is an execution knob,
  /// never a decision input, and deliberately NOT part of
  /// AllocatorConfig (which is serialized into the audit wire format).
  /// See docs/SCALING.md §6 and DESIGN.md §15.
  bool incremental = false;
};

struct CycleStats {
  AllocationResult allocation;
  SafetyStats safety;
  std::size_t overrides_active = 0;
  std::size_t added = 0;
  std::size_t removed = 0;
  std::size_t retained_by_hysteresis = 0;
  std::size_t perf_overrides = 0;  // accepted from the advisor
  /// Override changes the churn guard pushed to a later cycle.
  std::size_t churn_deferred = 0;
  /// The cycle watchdog fired: enforcement was replaced by a full
  /// withdrawal and `applied` is empty.
  bool watchdog_aborted = false;
  net::SimTime when;
  /// Real (wall-clock) time the allocator call took this cycle — the
  /// production observability hook for the ~30s cycle budget. Not
  /// simulated time; recorded in v2 snapshots as an execution annotation
  /// only (replay never consults it — it is not a decision input).
  std::chrono::nanoseconds allocation_wall{0};
  /// Fraction of prefix rankings served from the RIB's epoch cache this
  /// cycle (1.0 = fully warm, 0.0 = every ranking recomputed or no
  /// rankings requested).
  double ranking_cache_hit_rate = 0.0;
  /// The delta path ran this cycle (ControllerConfig::incremental set
  /// and no fallback condition hit).
  bool incremental_cycle = false;
  /// Deduped dirty-set size the incremental engine processed (0 on full
  /// cycles — a fallback recomputes everything without counting).
  std::size_t dirty_prefixes = 0;
  /// Interfaces whose overload class flipped (crossed or un-crossed the
  /// threshold) relative to the previous incremental cycle.
  std::size_t escalations = 0;
  /// 1 when an incremental-mode cycle fell back to a full recompute
  /// (ledger invalid, inputs swapped, trimmed log, resolver change, or
  /// dirty set past the ceiling); always 0 when incremental is off.
  std::size_t full_fallbacks = 0;
};

class Controller {
 public:
  Controller(topology::Pop& pop, ControllerConfig config);

  /// Establishes the injection BGP session(s). With
  /// `inject_all_routers` (default), one session per peering router;
  /// otherwise a single session to `router_index`.
  void connect(int router_index = 0);

  /// True while at least one injection session is established.
  bool connected() const;

  /// Number of currently-established injection sessions.
  std::size_t established_sessions() const;

  /// Failure injection for tests: closes one injection session (by
  /// position in the connect order) without touching the others.
  void drop_session(std::size_t index, net::SimTime now);

  /// Runs one allocation cycle against `demand` and pushes the resulting
  /// override delta to the routers.
  CycleStats run_cycle(const telemetry::DemandMatrix& demand,
                       net::SimTime now);

  /// Fail-static: withdraws every active override without running an
  /// allocation cycle, leaving the routers on plain BGP. This is the
  /// degradation ladder's bottom rung — the daemon calls it when its
  /// inputs are too stale to act on.
  void withdraw_all(net::SimTime now);

  /// Warm restart: adopts `overrides` as the active set and (under BGP
  /// injection) re-injects them through the speaker, exactly as a cycle
  /// that allocated this set would have. The efd daemon calls this on
  /// `--recover` startup with the recovery-file snapshot, so the routers
  /// converge back to the pre-crash state before any fresh inputs
  /// arrive. Invalidates the incremental ledger — the restored set has
  /// no change-log lineage.
  void restore_overrides(const std::vector<Override>& overrides,
                         net::SimTime now);

  /// Auditor repair for in-process BGP injection: re-sends the current
  /// origination UPDATE for each `reannounce` prefix still in the active
  /// set (fixing missing / wrong-attribute divergence at the routers)
  /// and unconditional withdraws for `withdraw` (purging router state
  /// this controller never announced, e.g. a previous incarnation's
  /// leftovers). No-op under kHostRouting/kShadow — the audit read-back
  /// only exists for the BGP enforcement plane.
  void repair_overrides(const std::vector<net::Prefix>& reannounce,
                        const std::vector<net::Prefix>& withdraw,
                        net::SimTime now);

  /// Drops the incremental ledger: the next cycle recomputes in full.
  /// Call on any event the RIB/demand change logs cannot see — failsafe
  /// ladder transitions, external state resets. No-op when incremental
  /// mode is off (the ledger is simply never consulted).
  void invalidate_ledger() { ledger_.invalidate(); }

  /// Drives the injection session's keepalive/hold timers. Must run at
  /// least every hold/3 of simulated time — a controller that stops
  /// ticking is indistinguishable from a dead one and loses its session
  /// (and with it, all overrides). That is the fail-safe, working.
  void tick(net::SimTime now);

  /// Simulates controller failure. Under BGP injection the session
  /// teardown flushes every override immediately (fail-safe). Under host
  /// routing a crash leaves the host entries in place until their leases
  /// expire — exactly the asymmetry the paper weighs; pass
  /// `graceful=true` to model an orderly shutdown that cleans up.
  void shutdown(net::SimTime now, bool graceful = false);

  /// Optional performance-aware extension (paper §6): called each cycle
  /// after capacity allocation with the allocation result; returns extra
  /// overrides to steer prefixes whose BGP-preferred path underperforms.
  /// Advised overrides never displace capacity overrides and are dropped
  /// when the target interface lacks headroom.
  using Advisor = std::function<std::vector<Override>(const AllocationResult&)>;
  void set_advisor(Advisor advisor) { advisor_ = std::move(advisor); }

  /// Everything one cycle consumed and produced, handed to the cycle
  /// observer so an audit recorder (src/audit) can snapshot it without
  /// core depending on the audit subsystem. All references are borrowed
  /// and valid only for the duration of the callback. The RIB reference
  /// is taken after override injection; controller-injected routes
  /// (PeerType::kController) must be ignored by consumers, exactly as the
  /// allocator ignores them.
  struct CycleRecord {
    const telemetry::DemandMatrix& demand;
    const bgp::Rib& rib;
    const telemetry::InterfaceRegistry& interfaces;
    const EgressResolver& resolve;
    const AllocatorConfig& allocator_config;
    const std::map<net::Prefix, Override>& applied;  // post-safety set
    const CycleStats& stats;
  };
  using CycleObserver = std::function<void(const CycleRecord&)>;
  void set_cycle_observer(CycleObserver observer) {
    observer_ = std::move(observer);
  }

  /// Points allocation, safety, and the cycle observer at an external
  /// RIB instead of the PoP's in-process collector. The efd daemon uses
  /// this to run cycles against the RIB its socket-fed collector
  /// assembled; enforcement still flows through the PoP's sessions.
  /// Pass nullptr to revert. The RIB must outlive the controller or the
  /// next set_rib_source call.
  void set_rib_source(const bgp::Rib* rib) { rib_source_ = rib; }

  const std::map<net::Prefix, Override>& active_overrides() const {
    return active_;
  }
  const ControllerConfig& config() const { return config_; }
  bgp::BgpSpeaker& speaker() { return speaker_; }

 private:
  topology::Pop* pop_;
  ControllerConfig config_;
  Allocator allocator_;
  /// Persistent fast-path scratch: reused every cycle so warm cycles do
  /// not re-allocate; never carries decision state (see Allocator).
  Allocator::Workspace workspace_;
  /// Cross-cycle state for the incremental path; unused (and empty)
  /// unless ControllerConfig::incremental is set.
  Allocator::Ledger ledger_;
  SafetyGuard safety_;
  bgp::BgpSpeaker speaker_;
  std::vector<bgp::PeerId> sessions_;
  const bgp::Rib* rib_source_ = nullptr;  // nullptr = PoP collector RIB
  std::map<net::Prefix, Override> active_;
  Advisor advisor_;
  CycleObserver observer_;
};

}  // namespace ef::core
