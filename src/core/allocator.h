// The Edge Fabric allocator: one stateless allocation cycle.
//
// Inputs: the PoP-wide multi-path RIB (from BMP), per-prefix demand (from
// sFlow), and interface capacities/drain state (from the interface
// registry). Output: the set of prefixes to detour and the alternate route
// each should take, computed from scratch — the controller carries no
// state between cycles, which is the paper's central robustness choice
// (a crashed controller leaves nothing stale behind).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bgp/rib.h"
#include "telemetry/interface.h"
#include "telemetry/traffic.h"

namespace ef::core {

/// How the allocator sees an egress option (resolved from a route's
/// NEXT_HOP by the host environment).
struct EgressView {
  telemetry::InterfaceId interface;
  bgp::PeerType type = bgp::PeerType::kTransit;
  net::IpAddr address;  // the peer's session address (route NEXT_HOP)
};

using EgressResolver =
    std::function<std::optional<EgressView>(const bgp::Route&)>;

/// One override decision: steer `prefix` away from its BGP-preferred
/// interface onto the alternate route described here.
struct Override {
  net::Prefix prefix;
  net::Bandwidth rate;                     // demand moved
  net::IpAddr next_hop;                    // alternate peer address
  bgp::AsPath as_path;                     // alternate route's AS path
  telemetry::InterfaceId from_interface;   // BGP-preferred egress
  telemetry::InterfaceId target_interface; // where the detour lands
  bgp::PeerType from_type = bgp::PeerType::kPrivatePeer;
  bgp::PeerType target_type = bgp::PeerType::kTransit;

  friend bool operator==(const Override&, const Override&) = default;
};

enum class DetourOrder : std::uint8_t {
  /// Paper behaviour: move the prefixes whose best alternate is most
  /// preferred (peer before transit), largest demand first within a tier.
  kBestAlternateFirst = 0,
  /// Ablation: move the largest prefixes first regardless of where their
  /// alternate lands.
  kLargestFirst = 1,
};

struct AllocatorConfig {
  /// Detour when projected utilization exceeds this fraction of capacity.
  double overload_threshold = 0.95;
  /// Shift prefixes until projected utilization is at or below this.
  double target_utilization = 0.90;
  /// Never fill an alternate interface beyond this fraction.
  double detour_headroom = 0.95;
  DetourOrder order = DetourOrder::kBestAlternateFirst;
  /// Safety valve: cap on overrides per cycle (0 = unlimited).
  std::size_t max_overrides = 0;
  /// When a prefix's whole demand fits no alternate, split it into
  /// more-specific halves and place them independently (the paper's
  /// finer-grained override extension). Traffic is assumed uniform
  /// within a prefix, so each half carries half the rate.
  bool allow_prefix_splitting = false;
  /// Maximum split recursion (1 = halves, 2 = quarters, ...).
  int max_split_depth = 2;

  friend bool operator==(const AllocatorConfig&,
                         const AllocatorConfig&) = default;
};

struct AllocationResult {
  std::vector<Override> overrides;
  /// Projected load under pure BGP (no overrides), per interface.
  std::map<telemetry::InterfaceId, net::Bandwidth> projected_load;
  /// Load after applying the overrides above.
  std::map<telemetry::InterfaceId, net::Bandwidth> final_load;
  /// Interfaces whose projected load exceeded the threshold.
  std::size_t overloaded_interfaces = 0;
  /// Demand that had to stay on an overloaded interface because no
  /// alternate had room (or none existed).
  net::Bandwidth unresolved_overload;
  /// Demand with no usable route at all.
  net::Bandwidth unroutable;

  friend bool operator==(const AllocationResult&,
                         const AllocationResult&) = default;
};

class Allocator {
 public:
  /// Reusable scratch memory for the allocation fast path: the
  /// sorted-demand vector, per-interface pinned-prefix pools and flat
  /// load tables, and the per-cycle NEXT_HOP -> egress memo table. A
  /// workspace persists across cycles so warm cycles allocate (almost)
  /// nothing; its contents are wiped at the start of every allocate()
  /// and NEVER carry decision state between cycles — the allocation
  /// stays a pure function of (RIB, demand, interfaces), which the
  /// audit replay and the cold-vs-warm property test prove. Opaque:
  /// the layout lives in allocator.cpp. Not shareable across threads
  /// concurrently (one workspace per controller).
  class Workspace {
   public:
    Workspace();
    ~Workspace();
    Workspace(Workspace&&) noexcept;
    Workspace& operator=(Workspace&&) noexcept;

   private:
    friend class Allocator;
    struct Impl;
    std::unique_ptr<Impl> impl_;
  };

  /// Persistent cross-cycle state for allocate_incremental(): per-prefix
  /// classification, per-interface load totals and pinned cohorts, the
  /// egress slot table, and the identity (Rib/DemandMatrix instance ids
  /// + change-log cursors) it was built against. Unlike the Workspace —
  /// pure scratch, wiped every cycle — the Ledger deliberately carries
  /// decision-shaped state between cycles; its contract is that
  /// consuming it produces bitwise the result a from-scratch allocate()
  /// would (the IncrementalAllocProperty suite locks this in). Anything
  /// the change feeds cannot see (failsafe transitions, external state
  /// resets) must invalidate() it; allocate_incremental() detects the
  /// rest (identity swaps, config changes, interface-set changes,
  /// resolver outcome changes, trimmed logs) and falls back to a full
  /// recompute on its own. Opaque; not shareable across threads.
  class Ledger {
   public:
    Ledger();
    ~Ledger();
    Ledger(Ledger&&) noexcept;
    Ledger& operator=(Ledger&&) noexcept;

    /// Drops all carried state: the next incremental cycle runs full.
    void invalidate();

   private:
    friend class Allocator;
    struct Impl;
    std::unique_ptr<Impl> impl_;
  };

  /// How allocate_incremental() actually ran, for stats/metrics.
  struct IncrementalOutcome {
    bool incremental = false;    // delta path taken
    bool full_fallback = false;  // fell back to a full recompute
    std::size_t dirty_prefixes = 0;  // deduped dirty-set size
    std::size_t escalations = 0;  // interfaces whose overload class flipped
  };

  explicit Allocator(AllocatorConfig config = {}) : config_(config) {}

  /// Runs one allocation over the given inputs. Routes injected by the
  /// controller itself (PeerType::kController) are ignored when computing
  /// preferred paths, so the projection always reflects what vanilla BGP
  /// would do — the key to statelessness.
  ///
  /// `resolve` is invoked at most once per distinct NEXT_HOP per cycle
  /// (resolutions are memoized in the workspace for the duration of the
  /// call), so it must be a pure function of the route's NEXT_HOP while
  /// allocate() runs — true of every forwarding-plane resolver, which
  /// mirrors what the routers do with the next hop.
  AllocationResult allocate(const bgp::Rib& rib,
                            const telemetry::DemandMatrix& demand,
                            const telemetry::InterfaceRegistry& interfaces,
                            const EgressResolver& resolve,
                            Workspace& workspace) const;

  /// Convenience overload with a throwaway workspace (cold path); the
  /// decisions are identical to the warm overload above.
  AllocationResult allocate(const bgp::Rib& rib,
                            const telemetry::DemandMatrix& demand,
                            const telemetry::InterfaceRegistry& interfaces,
                            const EgressResolver& resolve) const;

  /// Incremental (delta) cycle: reuses the ledger's previous-cycle
  /// classification and per-interface load totals, re-ranking and
  /// re-projecting only the prefixes the Rib and DemandMatrix change
  /// logs report dirty since the ledger's cursors. Overload detection
  /// and detour placement (phase 2) run fresh every cycle over the
  /// carried cohorts, so threshold crossings and un-crossings — the
  /// escalation cases — are handled by construction and merely counted.
  /// The result is bitwise identical to allocate() on the same inputs;
  /// DemandMatrix's integral-bps rate quantization is what makes the
  /// subtract/add load updates exact.
  ///
  /// Falls back to a full recompute (rebuilding the ledger) when the
  /// ledger is invalid, identities or config changed, the interface set
  /// changed, a change log was trimmed, any egress slot resolves
  /// differently than cached, or the dirty set exceeds
  /// `dirty_ceiling` x demand.prefix_count() — so the worst case never
  /// regresses below the full path. Unlike allocate(), `resolve` may be
  /// invoked more than once per distinct NEXT_HOP in a fallback cycle
  /// (still at most twice); it must stay pure for the call's duration.
  AllocationResult allocate_incremental(
      const bgp::Rib& rib, const telemetry::DemandMatrix& demand,
      const telemetry::InterfaceRegistry& interfaces,
      const EgressResolver& resolve, Workspace& workspace, Ledger& ledger,
      double dirty_ceiling, IncrementalOutcome* outcome = nullptr) const;

  const AllocatorConfig& config() const { return config_; }

 private:
  AllocatorConfig config_;
};

}  // namespace ef::core
