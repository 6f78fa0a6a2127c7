#include "core/allocator.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <unordered_map>
#include <utility>

#include "net/log.h"

namespace ef::core {

namespace {

/// Preference tier of a detour target, mirroring the egress ladder:
/// moving traffic to another peer beats falling back to transit.
int target_tier(bgp::PeerType type) {
  switch (type) {
    case bgp::PeerType::kPrivatePeer:
      return 0;
    case bgp::PeerType::kPublicPeer:
      return 1;
    case bgp::PeerType::kRouteServer:
      return 2;
    default:
      return 3;
  }
}

/// A prefix pinned (by BGP preference) to a specific interface. The
/// ranked non-controller alternates live in the workspace's shared arena
/// (offset + count) so per-prefix heap allocations disappear from the
/// warm cycle.
struct PinnedPrefix {
  net::Prefix prefix;
  net::Bandwidth rate;
  const bgp::Route* best = nullptr;
  std::uint32_t alt_begin = 0;  // into the owning arena (see below)
  std::uint32_t alt_count = 0;
  int best_alternate_tier = 9;  // tier of first usable alt
};

/// Precompiled egress table entry: each distinct NEXT_HOP is resolved
/// through the EgressResolver once per cycle; hot-path lookups are one
/// hash probe (or, for cached best routes, a plain index). `usable_iface`
/// is false when the resolver returned nullopt or the interface is
/// unknown to the registry. `exemplar` is one route carrying this
/// NEXT_HOP, used to re-run the resolver at the next cycle start when
/// the table survives. The workspace points exemplars into the Rib
/// (valid while the Rib is unchanged, which is exactly when its table
/// survives); the ledger points them at its own route copies.
struct EgressSlot {
  EgressView view;
  const bgp::Route* exemplar = nullptr;
  std::uint32_t iface = 0;  // dense interface index
  bool usable_iface = false;
};

/// Most preferred usable alternate tier for one pinned prefix's arena
/// slice, excluding detours back onto its own interface. Cached in the
/// ledger (recomputed whenever a prefix is reclassified) because it only
/// depends on the slice and the slot table — and any slot-state change
/// invalidates the whole ledger.
int alternate_tier(const std::vector<std::uint32_t>& alt_slot,
                   const std::vector<EgressSlot>& slots,
                   std::uint32_t alt_begin, std::uint32_t alt_count,
                   std::uint32_t iface) {
  int tier = 9;
  for (std::uint32_t a = 0; a < alt_count; ++a) {
    const EgressSlot& slot = slots[alt_slot[alt_begin + a]];
    if (!slot.usable_iface || slot.iface == static_cast<std::uint32_t>(iface))
      continue;
    tier = std::min(tier, target_tier(slot.view.type));
  }
  return tier;
}

/// Compact sort key for detour ordering — 16 bytes instead of the
/// 48-byte PinnedPrefix, so ordering a 30k-member cohort touches a
/// fraction of the memory. `idx` points back into the cohort; the
/// prefix tie-break dereferences it (rare: only equal-tier equal-rate
/// pairs).
struct DetourKey {
  double rate;
  std::uint32_t tier;
  std::uint32_t idx;
};

/// One overloaded cohort's detour order: a sorted prefix of the
/// cohort's total detour order. Usually a bounded top-K batch (see
/// order_cohort); placement escalates to the full sorted order if the
/// batch runs dry with overload left to shed.
struct CohortOrder {
  std::vector<DetourKey> keys;
};

/// Phase 2 after overload detection: per-interface detour ordering and
/// the serial detour placement, over the already-detected `overloaded`
/// dense indices (ascending). Shared by the full and the incremental
/// path — identical inputs must place identical detours, which is the
/// incremental engine's bitwise-identity contract. The arena triple
/// (`alternates`, `alt_slot`, `slots`) is whichever store owns the
/// pinned prefixes' slices: the workspace's on the full path (with
/// `rescore` — its members were just rebuilt and carry no tier), the
/// ledger's on the incremental one (tiers cached at reclassify time).
/// Cohort member order is never touched; ordering happens on the key
/// scratch, which is why the ledger can hand its position-addressed
/// cohorts straight in.
void score_sort_place(const AllocatorConfig& config,
                      const telemetry::InterfaceRegistry& interfaces,
                      const std::vector<const bgp::Route*>& alternates,
                      const std::vector<std::uint32_t>& alt_slot,
                      const std::vector<EgressSlot>& slots,
                      const std::vector<std::uint32_t>& overloaded,
                      std::vector<std::vector<PinnedPrefix>>& pinned_by_iface,
                      const std::vector<net::Bandwidth>& usable,
                      std::vector<net::Bandwidth>& final_load, bool rescore,
                      std::vector<CohortOrder>& key_scratch,
                      AllocationResult& result) {
  if (key_scratch.size() < overloaded.size()) {
    key_scratch.resize(overloaded.size());
  }

  // Detour priority: most preferred usable alternate tier first (so
  // peer-alternate prefixes move before transit-only ones), then rate
  // descending, then prefix for a strict total order. The prefix
  // tie-break is the only member dereference.
  const auto make_detour_before = [&config](
                                      const std::vector<PinnedPrefix>& pp) {
    return [&config, pp = &pp](const DetourKey& a, const DetourKey& b) {
      if (config.order == DetourOrder::kBestAlternateFirst &&
          a.tier != b.tier) {
        return a.tier < b.tier;
      }
      if (a.rate != b.rate) return a.rate > b.rate;
      return (*pp)[a.idx].prefix < (*pp)[b.idx].prefix;
    };
  };

  // Expected members consumed if rates were uniform. Placement stops
  // once `to_move` is shed, so in steady state only a sliver of each
  // cohort is ever visited — ordering the whole cohort would dominate
  // the warm cycle. The estimate reads only placement inputs (loads are
  // untouched until the serial pass below, and overloaded interfaces
  // are never detour targets), so full and incremental cycles compute
  // identical batch sizes — and the batch size only decides when the
  // escalation below kicks in, never the visit order itself.
  const auto est_consumed = [&](std::size_t iface) {
    const std::size_t size = pinned_by_iface[iface].size();
    const net::Bandwidth to_move =
        final_load[iface] - usable[iface] * config.target_utilization;
    const double mean =
        final_load[iface].bits_per_sec() / static_cast<double>(size);
    if (!(mean > 0.0)) return static_cast<double>(size);
    return to_move.bits_per_sec() / mean;
  };

  // Rebuilds one cohort's full sorted key array (ascending detour
  // order). Used for heavy drains and for escalation mid-placement.
  const auto order_all = [&](std::size_t iface, CohortOrder& co) {
    const auto& pinned_prefixes = pinned_by_iface[iface];
    co.keys.clear();
    co.keys.reserve(pinned_prefixes.size());
    for (std::size_t i = 0; i < pinned_prefixes.size(); ++i) {
      const PinnedPrefix& pinned = pinned_prefixes[i];
      co.keys.push_back(
          {pinned.rate.bits_per_sec(),
           static_cast<std::uint32_t>(pinned.best_alternate_tier),
           static_cast<std::uint32_t>(i)});
    }
    std::sort(co.keys.begin(), co.keys.end(),
              make_detour_before(pinned_prefixes));
  };

  // Bounded top-K selection: one comparison per member against the
  // batch's weakest entry (the heap root under detour_before-as-less),
  // no writes for the losers. The batch is the unique first-K of the
  // cohort's total detour order, so consuming it by cursor visits
  // members in exactly the order a full sort would — the batch bound
  // affects cost only, never a decision.
  const auto order_topk = [&](std::size_t iface, CohortOrder& co,
                              std::size_t batch) {
    const auto& pinned_prefixes = pinned_by_iface[iface];
    const auto detour_before = make_detour_before(pinned_prefixes);
    co.keys.clear();
    co.keys.reserve(batch);
    for (std::size_t i = 0; i < pinned_prefixes.size(); ++i) {
      const PinnedPrefix& pinned = pinned_prefixes[i];
      const DetourKey key{
          pinned.rate.bits_per_sec(),
          static_cast<std::uint32_t>(pinned.best_alternate_tier),
          static_cast<std::uint32_t>(i)};
      if (co.keys.size() < batch) {
        co.keys.push_back(key);
        std::push_heap(co.keys.begin(), co.keys.end(), detour_before);
      } else if (detour_before(key, co.keys.front())) {
        std::pop_heap(co.keys.begin(), co.keys.end(), detour_before);
        co.keys.back() = key;
        std::push_heap(co.keys.begin(), co.keys.end(), detour_before);
      }
    }
    std::sort_heap(co.keys.begin(), co.keys.end(), detour_before);
  };

  constexpr std::size_t kFirstBatch = 128;

  for (std::size_t oi = 0; oi < overloaded.size(); ++oi) {
    const std::size_t iface = overloaded[oi];
    auto& pinned_prefixes = pinned_by_iface[iface];
    const std::size_t size = pinned_prefixes.size();
    CohortOrder& co = key_scratch[oi];
    if (rescore) {
      for (PinnedPrefix& pinned : pinned_prefixes) {
        pinned.best_alternate_tier =
            alternate_tier(alt_slot, slots, pinned.alt_begin,
                           pinned.alt_count,
                           static_cast<std::uint32_t>(iface));
      }
    }
    // est_consumed overestimates under heavy-tailed rates (the chosen
    // members are the biggest, not the mean), which errs toward the
    // full sort — the safe direction for real drains. Everything else
    // starts with a small batch and lets placement escalate.
    if (est_consumed(iface) * 8.0 >= static_cast<double>(size)) {
      order_all(iface, co);
    } else {
      order_topk(iface, co, std::min(size, kFirstBatch));
    }
  }

  // Placement, serial: detours mutate final_load, and which detour fits
  // depends on every detour placed before it.
  for (std::size_t oi = 0; oi < overloaded.size(); ++oi) {
    const std::size_t iface = overloaded[oi];
    auto& pinned_prefixes = pinned_by_iface[iface];
    CohortOrder& co = key_scratch[oi];
    const net::Bandwidth capacity = usable[iface];
    const net::Bandwidth target = capacity * config.target_utilization;
    net::Bandwidth to_move = final_load[iface] - target;

    // Places (prefix, rate) on the first alternate with room; when
    // nothing fits and splitting is allowed, recurses into more-specific
    // halves (injected as finer-grained overrides; LPM at the routers
    // steers exactly that half of the flows). Returns the rate moved.
    const std::function<net::Bandwidth(const PinnedPrefix&,
                                       const net::Prefix&, net::Bandwidth,
                                       int)>
        place = [&](const PinnedPrefix& pinned, const net::Prefix& prefix,
                    net::Bandwidth rate, int depth) -> net::Bandwidth {
      if (config.max_overrides != 0 &&
          result.overrides.size() >= config.max_overrides) {
        return net::Bandwidth::zero();
      }
      for (std::uint32_t a = 0; a < pinned.alt_count; ++a) {
        const bgp::Route* alt = alternates[pinned.alt_begin + a];
        const EgressSlot& slot = slots[alt_slot[pinned.alt_begin + a]];
        if (!slot.usable_iface || slot.iface == iface) continue;
        const net::Bandwidth alt_capacity = usable[slot.iface];
        if (alt_capacity <= net::Bandwidth::zero()) continue;  // drained
        const net::Bandwidth headroom =
            alt_capacity * config.detour_headroom - final_load[slot.iface];
        if (rate > headroom) continue;

        Override override_entry;
        override_entry.prefix = prefix;
        override_entry.rate = rate;
        override_entry.next_hop = alt->attrs.next_hop;
        override_entry.as_path = alt->attrs.as_path;
        override_entry.from_interface = interfaces.id_at(iface);
        override_entry.target_interface = slot.view.interface;
        override_entry.from_type = pinned.best->peer_type;
        override_entry.target_type = slot.view.type;
        result.overrides.push_back(std::move(override_entry));

        final_load[iface] -= rate;
        final_load[slot.iface] += rate;
        return rate;
      }
      // Nothing holds the whole rate: split into halves and place them
      // independently (possibly on different alternates).
      if (config.allow_prefix_splitting && depth < config.max_split_depth &&
          prefix.length() < net::address_bits(prefix.family())) {
        auto bytes = prefix.address().bytes();
        const int bit = prefix.length();
        bytes[static_cast<std::size_t>(bit / 8)] |=
            static_cast<std::uint8_t>(1u << (7 - bit % 8));
        const net::Prefix low(prefix.address(), prefix.length() + 1);
        const net::Prefix high(prefix.family() == net::Family::kV4
                                   ? net::IpAddr::v4(
                                         (static_cast<std::uint32_t>(bytes[0])
                                          << 24) |
                                         (static_cast<std::uint32_t>(bytes[1])
                                          << 16) |
                                         (static_cast<std::uint32_t>(bytes[2])
                                          << 8) |
                                         bytes[3])
                                   : net::IpAddr::v6(bytes),
                               prefix.length() + 1);
        net::Bandwidth moved = place(pinned, low, rate / 2, depth + 1);
        moved += place(pinned, high, rate / 2, depth + 1);
        return moved;
      }
      return net::Bandwidth::zero();
    };

    std::size_t cursor = 0;
    while (true) {
      if (to_move <= net::Bandwidth::zero()) break;
      if (config.max_overrides != 0 &&
          result.overrides.size() >= config.max_overrides) {
        break;
      }
      if (cursor >= co.keys.size()) {
        if (co.keys.size() >= pinned_prefixes.size()) break;  // visited all
        // The batch ran dry with overload left: escalate geometrically
        // (a wider top-K rescan, or the full sort once the batch would
        // be a big fraction of the cohort) and continue past the
        // already-visited prefixes. Every batch is a prefix of the same
        // total order, so the visit sequence is seamless.
        const std::size_t visited = co.keys.size();
        const std::size_t next = visited * 8;
        if (next * 4 >= pinned_prefixes.size()) {
          order_all(iface, co);
        } else {
          order_topk(iface, co, next);
        }
        cursor = visited;
        continue;
      }
      const DetourKey& key = co.keys[cursor++];
      const PinnedPrefix& pinned = pinned_prefixes[key.idx];
      to_move -= place(pinned, pinned.prefix, pinned.rate, 0);
    }

    if (to_move > net::Bandwidth::zero()) {
      // Only count overload actually above *capacity* as unresolved drops;
      // the slice between target and capacity is just unmet headroom.
      const net::Bandwidth excess = final_load[iface] - capacity;
      if (excess > net::Bandwidth::zero()) {
        result.unresolved_overload += excess;
      }
    }
  }
}

/// Result boundary: dense load tables back to the public map form
/// (wire/audit format unchanged; every known interface appears, loaded
/// or not).
void emit_loads(const telemetry::InterfaceRegistry& interfaces,
                const std::vector<net::Bandwidth>& projected,
                const std::vector<net::Bandwidth>& final_load,
                AllocationResult& result) {
  for (std::size_t i = 0; i < interfaces.size(); ++i) {
    const telemetry::InterfaceId id = interfaces.id_at(i);
    result.projected_load.emplace_hint(result.projected_load.end(), id,
                                       projected[i]);
    result.final_load.emplace_hint(result.final_load.end(), id,
                                   final_load[i]);
  }
}

}  // namespace

/// Scratch reused across cycles. Every field is wiped (capacity kept) at
/// the start of allocate(); nothing here ever feeds back into a decision.
struct Allocator::Workspace::Impl {
  /// Demand in ascending-prefix order. When the demand prefix set is
  /// unchanged since the previous cycle (the common case: rates move,
  /// prefixes do not) the sort is skipped and only the rates refresh.
  std::vector<std::pair<net::Prefix, net::Bandwidth>> demand_sorted;
  bool demand_primed = false;

  /// Demand traversal mapping: the j-th prefix visited by
  /// demand.for_each() lives at demand_sorted[hash_order[j]]. Valid only
  /// for the exact (instance_id, membership_epoch) it was built against —
  /// then the per-cycle rate refresh is one sequential walk of the demand
  /// table with zero hash lookups.
  std::vector<std::uint32_t> hash_order;
  bool hash_order_valid = false;
  std::uint64_t demand_instance = 0;
  std::uint64_t demand_set_epoch = 0;

  /// The (instance_id, epoch) pair of the Rib the arena below was built
  /// against. While the demand order was reused AND the very same Rib is
  /// untouched, the filtered arena is exactly what re-ranking and
  /// re-filtering would produce, so warm cycles do zero RIB lookups.
  /// Any mismatch rebuilds from ranked_view() per prefix.
  std::uint64_t rib_instance = 0;
  std::uint64_t rib_epoch = 0;

  /// Flat per-interface tables, addressed by
  /// InterfaceRegistry::index_of (ascending-id dense order).
  std::vector<net::Bandwidth> projected;
  std::vector<net::Bandwidth> final_load;
  std::vector<net::Bandwidth> usable;  // usable_capacity snapshot
  std::vector<std::vector<PinnedPrefix>> pinned;

  /// Shared arena of ranked non-controller route pointers; PinnedPrefix
  /// slices into it by offset so arena growth never invalidates anything.
  /// Rebuilt together with `views` (the filtering depends only on the
  /// routes, never on rates), so warm cycles skip the per-prefix filter
  /// walk entirely. `filt_begin/filt_count` give each demand entry's
  /// slice (best route first); `alt_slot` is the parallel egress-slot
  /// index of every arena route, resolved once at rebuild so warm-path
  /// egress lookups are plain array reads, not hash probes.
  std::vector<const bgp::Route*> alternates;
  std::vector<std::uint32_t> filt_begin;
  std::vector<std::uint32_t> filt_count;
  std::vector<std::uint32_t> alt_slot;

  /// Precompiled egress table (see EgressSlot above): exemplars point
  /// into the Rib, valid while the Rib is unchanged — exactly when the
  /// table survives a cycle.
  std::vector<EgressSlot> slots;
  std::unordered_map<net::IpAddr, std::uint32_t> slot_of;

  /// Dense indices of the interfaces phase 2 found overloaded, in
  /// ascending order — the iteration order of both the score/sort pass
  /// and the placement pass.
  std::vector<std::uint32_t> overloaded;

  /// Per-overloaded-cohort detour-key scratch (parallel to `overloaded`),
  /// reused across cycles and shared by the full and incremental paths.
  std::vector<CohortOrder> key_scratch;
};

Allocator::Workspace::Workspace() : impl_(std::make_unique<Impl>()) {}
Allocator::Workspace::~Workspace() = default;
Allocator::Workspace::Workspace(Workspace&&) noexcept = default;
Allocator::Workspace& Allocator::Workspace::operator=(Workspace&&) noexcept =
    default;

AllocationResult Allocator::allocate(
    const bgp::Rib& rib, const telemetry::DemandMatrix& demand,
    const telemetry::InterfaceRegistry& interfaces,
    const EgressResolver& resolve) const {
  Workspace workspace;
  return allocate(rib, demand, interfaces, resolve, workspace);
}

AllocationResult Allocator::allocate(
    const bgp::Rib& rib, const telemetry::DemandMatrix& demand,
    const telemetry::InterfaceRegistry& interfaces,
    const EgressResolver& resolve, Workspace& workspace) const {
  Workspace::Impl& ws = *workspace.impl_;
  const std::size_t iface_count = interfaces.size();
  AllocationResult result;

  // Reset the per-cycle scratch, keeping capacity. (The egress table is
  // refreshed further down, once it is known whether it can survive.)
  ws.projected.assign(iface_count, net::Bandwidth::zero());
  ws.final_load.assign(iface_count, net::Bandwidth::zero());
  ws.usable.resize(iface_count);
  if (ws.pinned.size() != iface_count) ws.pinned.resize(iface_count);
  for (auto& cohort : ws.pinned) cohort.clear();
  for (std::size_t i = 0; i < iface_count; ++i) {
    ws.usable[i] = interfaces.usable_capacity(interfaces.id_at(i));
  }

  // (Re)runs the resolver for one egress slot. Called for every slot
  // every cycle — resolution can change between cycles (sessions flap) —
  // so within a cycle the table is immutable and the resolver is invoked
  // at most once per distinct NEXT_HOP.
  const auto fill_slot = [&](EgressSlot& slot, const bgp::Route& route) {
    slot.usable_iface = false;
    if (const auto view = resolve(route);
        view && interfaces.contains(view->interface)) {
      slot.view = *view;
      slot.iface =
          static_cast<std::uint32_t>(interfaces.index_of(view->interface));
      slot.usable_iface = true;
    }
  };

  // Resolve a route's egress through the memo table, by NEXT_HOP.
  const auto resolve_slot = [&](const bgp::Route& route) -> std::uint32_t {
    auto [it, inserted] = ws.slot_of.try_emplace(
        route.attrs.next_hop, static_cast<std::uint32_t>(ws.slots.size()));
    if (inserted) {
      EgressSlot& slot = ws.slots.emplace_back();
      slot.exemplar = &route;
      fill_slot(slot, route);
    }
    return it->second;
  };

  // --- Phase 1: projection --------------------------------------------
  // Route all demand along BGP-preferred paths (ignoring our own injected
  // routes) and remember, per interface, which prefixes landed there.
  //
  // Walk demand in prefix order, not hash order: float accumulation is not
  // associative, so the allocation is only a bitwise-deterministic function
  // of its inputs (what the audit replay engine verifies) if the iteration
  // order is a function of the inputs too. The sorted vector is reused
  // verbatim when the prefix set did not change (order depends only on the
  // set, so skipping the sort cannot change the result).
  bool reuse_order = ws.hash_order_valid &&
                     ws.demand_instance == demand.instance_id() &&
                     ws.demand_set_epoch == demand.membership_epoch();
  if (reuse_order) {
    // Same matrix, same membership: traversal order is stable, so refresh
    // every rate with one sequential walk and no per-prefix lookups.
    std::size_t j = 0;
    demand.visit([&](const net::Prefix&, net::Bandwidth rate) {
      ws.demand_sorted[ws.hash_order[j++]].second = rate;
    });
  } else {
    reuse_order =
        ws.demand_primed && ws.demand_sorted.size() == demand.prefix_count();
    if (reuse_order) {
      for (auto& entry : ws.demand_sorted) {
        const net::Bandwidth* rate = demand.find(entry.first);
        if (rate == nullptr) {
          reuse_order = false;  // set changed: same size, different members
          break;
        }
        entry.second = *rate;
      }
    }
    if (!reuse_order) {
      ws.demand_sorted.clear();
      ws.demand_sorted.reserve(demand.prefix_count());
      demand.visit([&](const net::Prefix& prefix, net::Bandwidth rate) {
        ws.demand_sorted.emplace_back(prefix, rate);
      });
      std::sort(ws.demand_sorted.begin(), ws.demand_sorted.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      ws.demand_primed = true;
    }
    // Rebuild the traversal mapping for the next cycle (binary search per
    // prefix: paid only when the matrix identity or membership moved).
    ws.hash_order.resize(ws.demand_sorted.size());
    std::size_t j = 0;
    demand.visit([&](const net::Prefix& prefix, net::Bandwidth) {
      const auto it = std::lower_bound(
          ws.demand_sorted.begin(), ws.demand_sorted.end(), prefix,
          [](const auto& entry, const net::Prefix& p) {
            return entry.first < p;
          });
      ws.hash_order[j++] =
          static_cast<std::uint32_t>(it - ws.demand_sorted.begin());
    });
    ws.hash_order_valid = true;
    ws.demand_instance = demand.instance_id();
    ws.demand_set_epoch = demand.membership_epoch();
  }

  // Arena reuse: when the demand order was reused and the Rib is
  // bitwise the same one (same instance, same whole-RIB epoch) as last
  // cycle, the filtered arena already holds every prefix's ranked,
  // egress-resolved candidates and phase 1 does zero RIB lookups and
  // zero hash probes. The reuse changes nothing but lookup count: the
  // slices are exactly what ranked_view() + filtering would rebuild.
  const bool reuse_views = reuse_order &&
                           ws.rib_instance == rib.instance_id() &&
                           ws.rib_epoch == rib.epoch();
  if (!reuse_views) {
    // Route pointers changed hands: the egress table and the filtered
    // arena must be rediscovered.
    ws.slots.clear();
    ws.slot_of.clear();
    const std::size_t demand_count = ws.demand_sorted.size();
    ws.filt_begin.resize(demand_count);
    ws.filt_count.resize(demand_count);

    ws.alternates.clear();
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < demand_count; ++i) {
      bool cache_hit = false;
      const bgp::Rib::RankedView view =
          rib.ranked_view_uncounted(ws.demand_sorted[i].first, cache_hit);
      // Tally hit/miss only for prefixes the RIB knows (matching
      // ranked_view(): an unknown prefix consults no cache).
      if (!view.routes.empty()) (cache_hit ? hits : misses) += 1;
      // Controller-injected routes are dropped after ranking; that is
      // safe because the relative order of natural routes does not
      // depend on the injected ones. Filtering depends only on the
      // routes, so the slices stay valid exactly as long as the views.
      const std::size_t mark = ws.alternates.size();
      for (std::size_t index : view.order) {
        const bgp::Route& route = view.routes[index];
        if (route.peer_type != bgp::PeerType::kController) {
          ws.alternates.push_back(&route);
        }
      }
      ws.filt_begin[i] = static_cast<std::uint32_t>(mark);
      ws.filt_count[i] =
          static_cast<std::uint32_t>(ws.alternates.size() - mark);
    }
    rib.credit_rank_cache(hits, misses);
    ws.alt_slot.resize(ws.alternates.size());
    for (std::size_t k = 0; k < ws.alternates.size(); ++k) {
      ws.alt_slot[k] = resolve_slot(*ws.alternates[k]);
    }
    ws.rib_instance = rib.instance_id();
    ws.rib_epoch = rib.epoch();
  } else {
    rib.credit_rank_cache_hits(ws.demand_sorted.size());
    // The NEXT_HOP set is unchanged (same routes), but what each hop
    // resolves to may not be: re-run the resolver once per slot.
    for (EgressSlot& slot : ws.slots) {
      fill_slot(slot, *slot.exemplar);
    }
  }

  for (std::size_t di = 0; di < ws.demand_sorted.size(); ++di) {
    const auto& [prefix, rate] = ws.demand_sorted[di];
    if (rate <= net::Bandwidth::zero()) continue;

    // The prefix's ranked, controller-filtered candidates, precomputed
    // into the arena (above or in an earlier cycle): best route first,
    // egress already resolved per slice element.
    const std::uint32_t begin = ws.filt_begin[di];
    const std::uint32_t count = ws.filt_count[di];
    if (count == 0) {
      result.unroutable += rate;
      continue;
    }
    const EgressSlot& slot = ws.slots[ws.alt_slot[begin]];
    if (!slot.usable_iface) {
      result.unroutable += rate;
      continue;
    }

    PinnedPrefix pinned;
    pinned.prefix = prefix;
    pinned.rate = rate;
    pinned.best = ws.alternates[begin];
    pinned.alt_begin = begin + 1;
    pinned.alt_count = count - 1;
    ws.projected[slot.iface] += rate;
    ws.pinned[slot.iface].push_back(pinned);
  }

  ws.final_load = ws.projected;

  // --- Phase 2: overload detection and detour selection -----------------
  // Three passes. Detection and placement walk interfaces in ascending
  // dense index == ascending InterfaceId — the same order the seed's
  // std::map produced, so detour placement (and therefore float
  // accumulation) is unchanged. Scoring/sorting sits between them: it
  // reads only the (frozen) slot table and writes only its own
  // interface's pinned list, and the detection predicate reads only
  // projected/usable — which placement never mutates — so hoisting both
  // out of the placement loop changes no decision (placement-order-
  // dependent state, final_load, is consulted only inside the placement
  // pass).
  ws.overloaded.clear();
  for (std::size_t iface = 0; iface < iface_count; ++iface) {
    if (ws.pinned[iface].empty()) continue;  // nothing landed here
    const net::Bandwidth capacity = ws.usable[iface];
    const net::Bandwidth projected = ws.projected[iface];
    const net::Bandwidth limit = capacity * config_.overload_threshold;
    if (projected <= limit && capacity > net::Bandwidth::zero()) continue;
    ++result.overloaded_interfaces;
    ws.overloaded.push_back(static_cast<std::uint32_t>(iface));
  }

  score_sort_place(config_, interfaces, ws.alternates, ws.alt_slot, ws.slots,
                   ws.overloaded, ws.pinned, ws.usable, ws.final_load,
                   /*rescore=*/true, ws.key_scratch, result);
  emit_loads(interfaces, ws.projected, ws.final_load, result);
  return result;
}

/// Cross-cycle state for allocate_incremental(). Everything here is
/// DECISION state deliberately carried between cycles — the exact
/// opposite of the Workspace contract — so its validity conditions are
/// strict: any input the change feeds cannot account for invalidates
/// the whole thing, and the next cycle rebuilds it from a full
/// allocate().
///
/// Invariants while `valid` (the DESIGN.md §15 ledger invariants):
///  - `pstate` holds exactly the prefixes in the DemandMatrix; each is
///    classified kNone (zero demand), kUnroutable, or pinned to the
///    dense interface its BGP-preferred egress resolves to.
///  - `projected[i]` equals the sum of the rates of cohort i's members,
///    and `unroutable` the sum over kUnroutable prefixes — bitwise what
///    a fresh in-order summation produces, because DemandMatrix rates
///    are integral bps and integral doubles sum exactly in any order.
///  - Cohort members' `best`/arena route pointers point into the Rib
///    and are valid: mutating a prefix's routes always logs it dirty,
///    and the dirty rebuild refreshes its pointers before any use.
///  - Slot exemplars are route COPIES (owned by `exemplar_store`): the
///    route a slot was cloned from may be withdrawn while the slot
///    lives on, and the resolver only reads the NEXT_HOP.
struct Allocator::Ledger::Impl {
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::uint32_t kUnroutable = 0xfffffffeu;

  /// Cohort members are PinnedPrefix — the same record phase 2 consumes
  /// — with `best_alternate_tier` computed at insert (full rebuild or
  /// reclassify) and provably still fresh whenever phase 2 reads it: the
  /// tier is a function of the member's arena slice and the slot table
  /// only, new slots can only affect the member being (re)inserted, and
  /// any change to an existing slot's resolution invalidates the whole
  /// ledger (the per-cycle re-resolution check below). Cohorts are
  /// UNSORTED (swap-pop removal, members addressed by `pos`); phase 2
  /// orders them through its detour-key scratch without ever permuting
  /// the cohort itself — the comparator is a strict total order
  /// (prefixes are unique within a cohort), so the resulting sequence is
  /// independent of the cohort's internal order.
  struct PState {
    net::Bandwidth rate;
    std::uint32_t iface = kNone;  // dense index, kUnroutable, or kNone
    std::uint32_t pos = 0;        // index into cohorts[iface] when pinned
  };

  bool valid = false;
  AllocatorConfig config;
  std::uint64_t rib_instance = 0;
  std::uint64_t rib_cursor = 0;
  std::uint64_t demand_instance = 0;
  std::uint64_t demand_cursor = 0;
  std::vector<telemetry::InterfaceId> iface_ids;  // dense-order signature

  std::unordered_map<net::Prefix, PState> pstate;
  std::vector<std::vector<PinnedPrefix>> cohorts;

  std::vector<net::Bandwidth> projected;
  net::Bandwidth unroutable;

  /// Ledger-owned arena of each pinned prefix's ranked non-best
  /// alternates (+ parallel slot indices). Append-only between
  /// compactions; dead slices from dirty rebuilds are reclaimed once
  /// the arena outgrows twice its live count.
  std::vector<const bgp::Route*> alternates;
  std::vector<std::uint32_t> alt_slot;
  std::size_t arena_live = 0;

  std::vector<EgressSlot> slots;
  std::unordered_map<net::IpAddr, std::uint32_t> slot_of;
  std::deque<bgp::Route> exemplar_store;  // address-stable slot exemplars

  /// Previous cycle's overload class per dense interface, for the
  /// escalation count (threshold crossings and un-crossings).
  std::vector<bool> prev_overloaded;
};

Allocator::Ledger::Ledger() : impl_(std::make_unique<Impl>()) {}
Allocator::Ledger::~Ledger() = default;
Allocator::Ledger::Ledger(Ledger&&) noexcept = default;
Allocator::Ledger& Allocator::Ledger::operator=(Ledger&&) noexcept = default;

void Allocator::Ledger::invalidate() { impl_->valid = false; }

AllocationResult Allocator::allocate_incremental(
    const bgp::Rib& rib, const telemetry::DemandMatrix& demand,
    const telemetry::InterfaceRegistry& interfaces,
    const EgressResolver& resolve, Workspace& workspace, Ledger& ledger,
    double dirty_ceiling, IncrementalOutcome* outcome) const {
  Ledger::Impl& lg = *ledger.impl_;
  Workspace::Impl& ws = *workspace.impl_;
  IncrementalOutcome local;
  IncrementalOutcome& out = outcome != nullptr ? *outcome : local;
  out = {};

  const std::size_t iface_count = interfaces.size();

  // Full rebuild: run the ordinary cycle, then rebuild the ledger from
  // the workspace it leaves behind. The classification walk below is
  // the same one phase 1's projection performs, so the carried state is
  // exactly what the full result implies.
  const auto full_rebuild = [&]() -> AllocationResult {
    out.incremental = false;
    out.full_fallback = true;
    AllocationResult result =
        allocate(rib, demand, interfaces, resolve, workspace);

    lg.config = config_;
    lg.rib_instance = rib.instance_id();
    lg.rib_cursor = rib.change_seq();
    lg.demand_instance = demand.instance_id();
    lg.demand_cursor = demand.change_seq();
    lg.iface_ids.clear();
    for (std::size_t i = 0; i < iface_count; ++i) {
      lg.iface_ids.push_back(interfaces.id_at(i));
    }

    lg.projected.assign(ws.projected.begin(), ws.projected.end());
    lg.unroutable = result.unroutable;

    lg.slots = ws.slots;
    lg.slot_of = ws.slot_of;
    lg.exemplar_store.clear();
    for (EgressSlot& slot : lg.slots) {
      lg.exemplar_store.push_back(*slot.exemplar);
      slot.exemplar = &lg.exemplar_store.back();
    }

    lg.alternates = ws.alternates;
    lg.alt_slot = ws.alt_slot;
    lg.arena_live = lg.alternates.size();

    lg.pstate.clear();
    lg.cohorts.assign(iface_count, {});
    for (std::size_t di = 0; di < ws.demand_sorted.size(); ++di) {
      const auto& [prefix, rate] = ws.demand_sorted[di];
      Ledger::Impl::PState state;
      state.rate = rate;
      if (rate > net::Bandwidth::zero()) {
        const std::uint32_t begin = ws.filt_begin[di];
        const std::uint32_t count = ws.filt_count[di];
        if (count == 0 || !ws.slots[ws.alt_slot[begin]].usable_iface) {
          state.iface = Ledger::Impl::kUnroutable;
        } else {
          const std::uint32_t iface = ws.slots[ws.alt_slot[begin]].iface;
          auto& cohort = lg.cohorts[iface];
          state.iface = iface;
          state.pos = static_cast<std::uint32_t>(cohort.size());
          cohort.push_back(
              {prefix, rate, ws.alternates[begin], begin + 1, count - 1,
               alternate_tier(lg.alt_slot, lg.slots, begin + 1, count - 1,
                              iface)});
        }
      }
      lg.pstate.emplace(prefix, state);
    }

    lg.prev_overloaded.assign(iface_count, false);
    for (const std::uint32_t iface : ws.overloaded) {
      lg.prev_overloaded[iface] = true;
    }
    lg.valid = true;
    return result;
  };

  if (!lg.valid || lg.config != config_ ||
      lg.rib_instance != rib.instance_id() ||
      lg.demand_instance != demand.instance_id() ||
      lg.iface_ids.size() != iface_count) {
    return full_rebuild();
  }
  for (std::size_t i = 0; i < iface_count; ++i) {
    if (lg.iface_ids[i] != interfaces.id_at(i)) return full_rebuild();
  }

  // Dirty sets from both change feeds, kept separate: a prefix that is
  // dirty only because its demand RATE moved keeps its cached
  // classification (ranking and pinning never read the rate), so it
  // takes an O(1) ledger delta below instead of a full re-rank. A
  // trimmed log means changes were lost; nothing to do but a full pass.
  std::vector<net::Prefix> route_dirty;
  std::vector<std::pair<net::Prefix, net::Bandwidth>> demand_dirty;
  if (rib.changes_since(lg.rib_cursor,
                        [&](const net::Prefix& prefix) {
                          route_dirty.push_back(prefix);
                        }) != bgp::Rib::ChangeLogStatus::kOk) {
    return full_rebuild();
  }
  if (demand.changes_since(lg.demand_cursor,
                           [&](const net::Prefix& prefix,
                               net::Bandwidth rate_after) {
                             demand_dirty.emplace_back(prefix, rate_after);
                           }) != telemetry::DemandMatrix::ChangeLogStatus::kOk) {
    return full_rebuild();
  }
  std::sort(route_dirty.begin(), route_dirty.end());
  route_dirty.erase(std::unique(route_dirty.begin(), route_dirty.end()),
                    route_dirty.end());
  // Dedup keeping the LAST log entry per prefix: entries carry the rate
  // stored right after each mutation, so on a kOk replay the last one is
  // the prefix's current rate — the fast path below never needs a demand
  // lookup. stable_sort keeps equal prefixes in log order.
  std::stable_sort(demand_dirty.begin(), demand_dirty.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  {
    std::size_t w = 0;
    for (std::size_t r = 0; r < demand_dirty.size(); ++r) {
      if (r + 1 < demand_dirty.size() &&
          demand_dirty[r + 1].first == demand_dirty[r].first) {
        continue;
      }
      demand_dirty[w++] = demand_dirty[r];
    }
    demand_dirty.resize(w);
  }

  std::size_t union_size = route_dirty.size();
  for (const auto& [prefix, rate] : demand_dirty) {
    if (!std::binary_search(route_dirty.begin(), route_dirty.end(), prefix)) {
      ++union_size;
    }
  }
  out.dirty_prefixes = union_size;
  const std::size_t tracked = std::max<std::size_t>(1, demand.prefix_count());
  if (static_cast<double>(union_size) >
      dirty_ceiling * static_cast<double>(tracked)) {
    return full_rebuild();
  }

  // Re-resolve every slot: egress resolution can change between cycles
  // with no RIB or demand change at all (sessions flap), and a changed
  // outcome reclassifies prefixes the change feeds know nothing about —
  // so it invalidates the ledger wholesale. O(distinct NEXT_HOPs), i.e.
  // O(peers), per cycle.
  for (const EgressSlot& slot : lg.slots) {
    EgressSlot fresh;
    if (const auto view = resolve(*slot.exemplar);
        view && interfaces.contains(view->interface)) {
      fresh.view = *view;
      fresh.iface =
          static_cast<std::uint32_t>(interfaces.index_of(view->interface));
      fresh.usable_iface = true;
    }
    if (fresh.usable_iface != slot.usable_iface ||
        (fresh.usable_iface &&
         (fresh.iface != slot.iface ||
          fresh.view.interface != slot.view.interface ||
          fresh.view.type != slot.view.type ||
          fresh.view.address != slot.view.address))) {
      return full_rebuild();
    }
  }

  out.incremental = true;

  // Rank-cache accounting: clean prefixes' rankings (and rate-only dirty
  // ones — their ledger classification stands in for a ranking) are
  // served without even a cache lookup, credited in bulk like the full
  // warm path; route-dirty prefixes tally for real below.
  rib.credit_rank_cache_hits(
      demand.prefix_count() > route_dirty.size()
          ? static_cast<std::uint64_t>(demand.prefix_count() -
                                       route_dirty.size())
          : 0);

  std::uint64_t rank_hits = 0;
  std::uint64_t rank_misses = 0;
  std::vector<const bgp::Route*> filtered;  // scratch: ranked non-controller

  const auto resolve_ledger_slot =
      [&](const bgp::Route& route) -> std::uint32_t {
    auto [it, inserted] = lg.slot_of.try_emplace(
        route.attrs.next_hop, static_cast<std::uint32_t>(lg.slots.size()));
    if (inserted) {
      lg.exemplar_store.push_back(route);
      EgressSlot& slot = lg.slots.emplace_back();
      slot.exemplar = &lg.exemplar_store.back();
      if (const auto view = resolve(route);
          view && interfaces.contains(view->interface)) {
        slot.view = *view;
        slot.iface =
            static_cast<std::uint32_t>(interfaces.index_of(view->interface));
        slot.usable_iface = true;
      }
    }
    return it->second;
  };

  // Full reclassify of one dirty prefix: subtract its old ledger
  // contribution, re-rank it against the current RIB + demand, add the
  // new one back.
  const auto reclassify = [&](const net::Prefix& prefix) {
    auto state_it = lg.pstate.find(prefix);
    if (state_it != lg.pstate.end()) {
      const Ledger::Impl::PState old = state_it->second;
      if (old.iface == Ledger::Impl::kUnroutable) {
        lg.unroutable -= old.rate;
      } else if (old.iface != Ledger::Impl::kNone) {
        lg.projected[old.iface] -= old.rate;
        auto& cohort = lg.cohorts[old.iface];
        lg.arena_live -= cohort[old.pos].alt_count;
        if (old.pos + 1 != cohort.size()) {
          cohort[old.pos] = cohort.back();
          lg.pstate.find(cohort[old.pos].prefix)->second.pos = old.pos;
        }
        cohort.pop_back();
      }
    }

    // Reclassify against the current RIB + demand and add it back.
    const net::Bandwidth* rate_ptr = demand.find(prefix);
    if (rate_ptr == nullptr) {
      // No longer tracked (route churn on a prefix with no demand, or a
      // demand entry that went away with its matrix): drop the state.
      if (state_it != lg.pstate.end()) lg.pstate.erase(state_it);
      return;
    }
    const net::Bandwidth rate = *rate_ptr;
    Ledger::Impl::PState state;
    state.rate = rate;
    if (rate > net::Bandwidth::zero()) {
      bool cache_hit = false;
      const bgp::Rib::RankedView view =
          rib.ranked_view_uncounted(prefix, cache_hit);
      if (!view.routes.empty()) (cache_hit ? rank_hits : rank_misses) += 1;
      filtered.clear();
      for (std::size_t index : view.order) {
        const bgp::Route& route = view.routes[index];
        if (route.peer_type != bgp::PeerType::kController) {
          filtered.push_back(&route);
        }
      }
      if (filtered.empty()) {
        state.iface = Ledger::Impl::kUnroutable;
      } else {
        const std::uint32_t best_slot = resolve_ledger_slot(*filtered[0]);
        if (!lg.slots[best_slot].usable_iface) {
          state.iface = Ledger::Impl::kUnroutable;
        } else {
          const std::uint32_t iface = lg.slots[best_slot].iface;
          const std::uint32_t alt_begin =
              static_cast<std::uint32_t>(lg.alternates.size());
          for (std::size_t a = 1; a < filtered.size(); ++a) {
            lg.alternates.push_back(filtered[a]);
            lg.alt_slot.push_back(resolve_ledger_slot(*filtered[a]));
          }
          const std::uint32_t alt_count =
              static_cast<std::uint32_t>(filtered.size() - 1);
          lg.arena_live += alt_count;
          auto& cohort = lg.cohorts[iface];
          state.iface = iface;
          state.pos = static_cast<std::uint32_t>(cohort.size());
          cohort.push_back(
              {prefix, rate, filtered[0], alt_begin, alt_count,
               alternate_tier(lg.alt_slot, lg.slots, alt_begin, alt_count,
                              iface)});
          lg.projected[iface] += rate;
        }
      }
      if (state.iface == Ledger::Impl::kUnroutable) lg.unroutable += rate;
    }
    if (state_it != lg.pstate.end()) {
      state_it->second = state;
    } else {
      lg.pstate.emplace(prefix, state);
    }
  };

  for (const net::Prefix& prefix : route_dirty) reclassify(prefix);

  // Rate-only dirty prefixes: the cached classification provably still
  // holds (BGP ranking and NEXT_HOP resolution never read the rate), so
  // swap the old rate for the new one in place — O(1) per prefix, the
  // steady-state hot path. Integral-bps rates (DemandMatrix quantizes on
  // write) make subtract-then-add exact, preserving the ledger's
  // bitwise-equals-fresh-sum invariant. Transitions the cache can't
  // cover — a prefix appearing, vanishing, or crossing zero demand —
  // fall back to the full reclassify.
  for (const auto& [prefix, new_rate] : demand_dirty) {
    if (std::binary_search(route_dirty.begin(), route_dirty.end(), prefix)) {
      continue;  // already reclassified above
    }
    const auto state_it = lg.pstate.find(prefix);
    if (state_it == lg.pstate.end() ||
        !(new_rate > net::Bandwidth::zero()) ||
        state_it->second.iface == Ledger::Impl::kNone) {
      reclassify(prefix);
      continue;
    }
    Ledger::Impl::PState& state = state_it->second;
    const net::Bandwidth old_rate = state.rate;
    if (new_rate == old_rate) continue;  // log can't see no-op rewrites
    if (state.iface == Ledger::Impl::kUnroutable) {
      lg.unroutable -= old_rate;
      lg.unroutable += new_rate;
    } else {
      lg.projected[state.iface] -= old_rate;
      lg.projected[state.iface] += new_rate;
      lg.cohorts[state.iface][state.pos].rate = new_rate;
    }
    state.rate = new_rate;
  }
  rib.credit_rank_cache(rank_hits, rank_misses);

  // Arena compaction: dirty rebuilds append fresh slices and orphan old
  // ones; once the arena doubles its live size, repack it O(live).
  if (lg.alternates.size() > 4096 &&
      lg.alternates.size() > 2 * lg.arena_live) {
    std::vector<const bgp::Route*> packed;
    std::vector<std::uint32_t> packed_slot;
    packed.reserve(lg.arena_live);
    packed_slot.reserve(lg.arena_live);
    for (auto& cohort : lg.cohorts) {
      for (PinnedPrefix& member : cohort) {
        const std::uint32_t begin = static_cast<std::uint32_t>(packed.size());
        for (std::uint32_t a = 0; a < member.alt_count; ++a) {
          packed.push_back(lg.alternates[member.alt_begin + a]);
          packed_slot.push_back(lg.alt_slot[member.alt_begin + a]);
        }
        member.alt_begin = begin;
      }
    }
    lg.alternates = std::move(packed);
    lg.alt_slot = std::move(packed_slot);
    lg.arena_live = lg.alternates.size();
  }

  lg.rib_cursor = rib.change_seq();
  lg.demand_cursor = demand.change_seq();

  // --- Phase 2, fresh every cycle over the carried cohorts ------------
  // Detection, scoring/sorting, and placement all rerun from the
  // ledger's exact projected loads, so overload crossings and
  // un-crossings (escalations) are handled by construction: a crossing
  // pulls its whole cohort into placement, an un-crossing releases it.
  AllocationResult result;
  result.unroutable = lg.unroutable;

  ws.usable.resize(iface_count);
  for (std::size_t i = 0; i < iface_count; ++i) {
    ws.usable[i] = interfaces.usable_capacity(interfaces.id_at(i));
  }
  ws.projected.assign(lg.projected.begin(), lg.projected.end());
  ws.final_load = ws.projected;

  ws.overloaded.clear();
  for (std::size_t iface = 0; iface < iface_count; ++iface) {
    bool now = false;
    if (!lg.cohorts[iface].empty()) {
      const net::Bandwidth capacity = ws.usable[iface];
      const net::Bandwidth limit = capacity * config_.overload_threshold;
      now = ws.projected[iface] > limit ||
            capacity <= net::Bandwidth::zero();
    }
    if (now != static_cast<bool>(lg.prev_overloaded[iface])) {
      ++out.escalations;
    }
    lg.prev_overloaded[iface] = now;
    if (!now) continue;
    ++result.overloaded_interfaces;
    ws.overloaded.push_back(static_cast<std::uint32_t>(iface));
  }

  // Phase 2 reads the ledger cohorts in place: the detour-key scratch
  // carries the ordering, the cohorts themselves are never permuted (so
  // `pos` addressing survives), and rescore=false trusts the tiers
  // cached at insert time — valid because any slot change rebuilt the
  // ledger above.
  score_sort_place(config_, interfaces, lg.alternates, lg.alt_slot, lg.slots,
                   ws.overloaded, lg.cohorts, ws.usable, ws.final_load,
                   /*rescore=*/false, ws.key_scratch, result);
  emit_loads(interfaces, ws.projected, ws.final_load, result);
  return result;
}

}  // namespace ef::core
