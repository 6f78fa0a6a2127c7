// Routing information base: all candidate routes per prefix plus the
// decision-process winner.
//
// Unlike a plain forwarding table, the RIB keeps *every* accepted route —
// Edge Fabric's allocator needs the full set of egress options per prefix,
// which is exactly why the paper deploys BMP instead of a best-only feed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/decision.h"
#include "bgp/route.h"

namespace ef::bgp {

/// Result of applying an announcement/withdrawal to the RIB.
struct RibChange {
  bool best_changed = false;    // the winning route differs from before
  bool prefix_removed = false;  // last route for the prefix went away
};

class Rib {
 public:
  explicit Rib(DecisionConfig config = {}) : config_(config) {}

  /// Inserts or replaces the route from `route.learned_from` for
  /// `route.prefix`, then re-runs the decision process.
  RibChange announce(const Route& route);

  /// Removes the route learned from `peer` for `prefix`, if any.
  RibChange withdraw(PeerId peer, const net::Prefix& prefix);

  /// Session teardown: drops every route learned from `peer`.
  /// Returns the prefixes whose best route changed or disappeared.
  std::vector<net::Prefix> remove_peer(PeerId peer);

  /// Best route for the prefix, or nullptr.
  const Route* best(const net::Prefix& prefix) const;

  /// All candidate routes for the prefix (unordered).
  std::span<const Route> candidates(const net::Prefix& prefix) const;

  /// Candidates ranked best-first by the decision process.
  std::vector<const Route*> ranked(const net::Prefix& prefix) const;

  /// Candidates ranked best-first, as indices into candidates(prefix).
  /// Served from a per-prefix cache that is recomputed only when the
  /// prefix's routes changed since the last call (epoch check), so the
  /// aggregate ranking cost is proportional to RIB churn, not RIB size.
  /// The span stays valid until the next mutation of this prefix. Not
  /// safe for concurrent calls on the same Rib (the cache fill mutates).
  std::span<const std::size_t> ranked_cached(const net::Prefix& prefix) const;

  /// Candidates plus their cached ranking in one lookup — what the
  /// allocator's hot loop uses instead of candidates() + ranked_cached()
  /// back to back. Same cache, same lifetime rules as ranked_cached().
  struct RankedView {
    std::span<const Route> routes;
    std::span<const std::size_t> order;  // indices into `routes`
  };
  RankedView ranked_view(const net::Prefix& prefix) const;

  /// ranked_view() minus the shared hit/miss accounting, for callers
  /// that rank many prefixes in one pass: the allocator's full arena
  /// rebuild and its incremental reclassify loop. `cache_hit` reports
  /// whether the ranking was served from cache; the caller tallies the
  /// pass locally and credits the counters once via credit_rank_cache().
  /// Same cache and lifetime rules as ranked_cached().
  RankedView ranked_view_uncounted(const net::Prefix& prefix,
                                   bool& cache_hit) const;

  /// Monotonic per-prefix mutation counter: moves on every announce /
  /// withdraw / remove_peer that touches the prefix. 0 for unknown
  /// prefixes; starts at 1 on first announce.
  std::uint64_t prefix_epoch(const net::Prefix& prefix) const;

  /// Whole-RIB mutation counter: moves whenever *any* prefix's epoch
  /// moves. Consumers holding RankedViews across calls (the allocator's
  /// workspace) may keep them only while (instance_id(), epoch()) is
  /// unchanged — any mutation may reallocate route storage.
  std::uint64_t epoch() const { return epoch_; }

  /// Process-unique id for this Rib. Copies get a fresh id (their route
  /// storage is distinct, so views into the source must not be carried
  /// over); moves keep it (the nodes move wholesale, views stay valid).
  std::uint64_t instance_id() const { return instance_id_; }

  /// Monotonic cursor into the change log. A consumer snapshots
  /// change_seq() after reading the RIB, then later asks
  /// changes_since(cursor, fn) for exactly the prefixes mutated in
  /// between — the dirty-set feed for incremental allocation cycles.
  std::uint64_t change_seq() const { return change_seq_; }

  enum class ChangeLogStatus {
    kOk,      // fn saw every prefix mutated after `since`
    kTooOld,  // log trimmed past `since`: caller must treat all as dirty
  };

  /// Replays the changed-prefix log after cursor `since` (exclusive)
  /// through `fn`; a prefix mutated repeatedly appears repeatedly, so
  /// callers dedup. The log retains the most recent kChangeLogCap-ish
  /// entries (sliding window): a cursor that fell behind the window gets
  /// kTooOld and the caller falls back to a full pass, while consumers
  /// that drain regularly replay forever.
  ChangeLogStatus changes_since(
      std::uint64_t since,
      const std::function<void(const net::Prefix&)>& fn) const;

  Rib(const Rib& other);
  Rib& operator=(const Rib& other);
  Rib(Rib&&) = default;
  Rib& operator=(Rib&&) = default;

  /// Aggregate ranked_cached() hit/miss counters since construction (or
  /// the last reset); the controller reports the per-cycle hit rate.
  struct RankCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  const RankCacheStats& rank_cache_stats() const { return rank_stats_; }
  void reset_rank_cache_stats() const { rank_stats_ = {}; }

  /// Counts `n` ranking-cache hits served without a per-prefix lookup —
  /// the allocator calls this when its epoch-guarded view reuse skips
  /// ranked_view() entirely, so the reported hit rate still reflects how
  /// many rankings were served from cache.
  void credit_rank_cache_hits(std::uint64_t n) const { rank_stats_.hits += n; }

  /// Settles the books after a batch of ranked_view_uncounted() calls:
  /// the allocator's full and incremental paths tally hits/misses over
  /// the whole pass and credit them here in bulk, once per cycle.
  void credit_rank_cache(std::uint64_t hits, std::uint64_t misses) const {
    rank_stats_.hits += hits;
    rank_stats_.misses += misses;
  }

  /// Rule that decided the current best for the prefix.
  std::optional<DecisionStep> deciding_step(const net::Prefix& prefix) const;

  std::size_t prefix_count() const { return entries_.size(); }
  std::size_t route_count() const { return route_count_; }

  /// Visits (prefix, best route) for every reachable prefix.
  void for_each_best(
      const std::function<void(const net::Prefix&, const Route&)>& fn) const;

  /// Visits (prefix, all candidates) for every prefix.
  void for_each(const std::function<void(const net::Prefix&,
                                         std::span<const Route>)>& fn) const;

  const DecisionConfig& decision_config() const { return config_; }

 private:
  struct Entry {
    std::vector<Route> routes;
    /// Columnar decision-key sidecar, kept 1:1 with `routes` at mutation
    /// time. Elections and rankings scan this flat array instead of
    /// chasing each Route's AsPath/attribute storage — the SoA layout
    /// that makes ranked_view() a linear scan.
    std::vector<RankKey> keys;
    std::size_t best = DecisionResult::npos;
    DecisionStep step = DecisionStep::kNoChoice;
    /// Bumped on every mutation of `routes`; lets consumers (and the
    /// ranking cache below) detect churn without diffing routes.
    std::uint64_t epoch = 1;
    /// Ranking cache: `ranked_order` is the key-space ranking computed at
    /// `ranked_epoch`; stale whenever ranked_epoch != epoch (0 = never
    /// computed). Mutable because the cache is an optimization, never an
    /// input — filling it on a const Rib does not change any decision.
    mutable std::uint64_t ranked_epoch = 0;
    mutable std::vector<std::size_t> ranked_order;
  };

  void reelect(Entry& entry);
  void log_change(const net::Prefix& prefix);

  static std::uint64_t next_instance_id();

  /// Change-log retention bound: at this size the oldest half is shed
  /// (cursors behind the retained window read kTooOld) so the log never
  /// grows without limit while no consumer drains it.
  static constexpr std::size_t kChangeLogCap = std::size_t{1} << 18;

  DecisionConfig config_;
  std::unordered_map<net::Prefix, Entry> entries_;
  std::size_t route_count_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t instance_id_ = next_instance_id();
  mutable RankCacheStats rank_stats_;
  /// Changed-prefix log: entry i holds the prefix mutated at sequence
  /// log_floor_ + 1 + i. Overflow sheds the oldest half (log_floor_
  /// advances past the shed entries) and clear-style invalidation raises
  /// log_floor_ to change_seq_; either way stale cursors read kTooOld
  /// rather than silently missing changes.
  std::vector<net::Prefix> change_log_;
  std::uint64_t change_seq_ = 0;
  std::uint64_t log_floor_ = 0;
};

}  // namespace ef::bgp
