#include "core/controller.h"

#include "bgp/policy.h"
#include "net/log.h"

namespace ef::core {

namespace {

/// Incremental cycles fall back to a full recompute once more than this
/// fraction of tracked prefixes is dirty: past it the delta walk costs
/// more than a full pass.
constexpr double kIncrementalDirtyCeiling = 0.25;

bgp::BgpSpeaker::Config controller_speaker_config(
    const topology::Pop& pop) {
  bgp::BgpSpeaker::Config config;
  config.local_as = pop.world().config().local_as;
  config.router_id = bgp::RouterId(
      0x7f010000u | static_cast<std::uint32_t>(pop.index() + 1));
  config.import_policy.local_as = config.local_as;
  return config;
}

}  // namespace

Controller::Controller(topology::Pop& pop, ControllerConfig config)
    : pop_(&pop),
      config_(config),
      allocator_(config.allocator),
      safety_(config.safety),
      speaker_(controller_speaker_config(pop)) {}

void Controller::connect(int router_index) {
  EF_CHECK(sessions_.empty(), "controller already connected");
  if (config_.enforcement != Enforcement::kBgpInjection) {
    return;  // only BGP injection needs sessions
  }
  if (config_.inject_all_routers) {
    for (int r = 0; r < pop_->router_count(); ++r) {
      sessions_.push_back(pop_->attach_controller(speaker_, r));
    }
  } else {
    sessions_.push_back(pop_->attach_controller(speaker_, router_index));
  }
}

bool Controller::connected() const {
  if (config_.enforcement != Enforcement::kBgpInjection) return true;
  return established_sessions() > 0;
}

std::size_t Controller::established_sessions() const {
  std::size_t count = 0;
  for (bgp::PeerId session_id : sessions_) {
    const bgp::BgpSession* session = speaker_.session(session_id);
    if (session != nullptr && session->established()) ++count;
  }
  return count;
}

void Controller::drop_session(std::size_t index, net::SimTime now) {
  EF_CHECK(index < sessions_.size(), "no such injection session");
  speaker_.close_session(sessions_[index], now);
  pop_->pump();
}

CycleStats Controller::run_cycle(const telemetry::DemandMatrix& demand,
                                 net::SimTime now) {
  EF_CHECK(config_.enforcement != Enforcement::kBgpInjection ||
               !sessions_.empty(),
           "controller not connected");
  const auto cycle_start = std::chrono::steady_clock::now();
  CycleStats stats;
  stats.when = now;

  // Resolve routes to egress ports through the PoP's address map — the
  // same resolution the routers' forwarding planes perform.
  const EgressResolver resolver =
      [this](const bgp::Route& route) -> std::optional<EgressView> {
    const auto egress = pop_->egress_of_route(route);
    if (!egress) return std::nullopt;
    return EgressView{egress->interface, egress->type,
                      route.attrs.next_hop};
  };

  const bgp::Rib& rib =
      rib_source_ != nullptr ? *rib_source_ : pop_->collector().rib();
  const bgp::Rib::RankCacheStats cache_before = rib.rank_cache_stats();
  const auto wall_start = std::chrono::steady_clock::now();
  if (config_.incremental) {
    Allocator::IncrementalOutcome outcome;
    stats.allocation = allocator_.allocate_incremental(
        rib, demand, pop_->interfaces(), resolver, workspace_, ledger_,
        kIncrementalDirtyCeiling, &outcome);
    stats.incremental_cycle = outcome.incremental;
    stats.dirty_prefixes = outcome.dirty_prefixes;
    stats.escalations = outcome.escalations;
    stats.full_fallbacks = outcome.full_fallback ? 1 : 0;
  } else {
    stats.allocation = allocator_.allocate(rib, demand, pop_->interfaces(),
                                           resolver, workspace_);
  }
  stats.allocation_wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - wall_start);
  const bgp::Rib::RankCacheStats cache_after = rib.rank_cache_stats();
  const std::uint64_t lookups =
      (cache_after.hits - cache_before.hits) +
      (cache_after.misses - cache_before.misses);
  stats.ranking_cache_hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(cache_after.hits - cache_before.hits) /
                         static_cast<double>(lookups);

  // Fresh override set, keyed by prefix.
  std::map<net::Prefix, Override> fresh;
  for (const Override& override_entry : stats.allocation.overrides) {
    fresh[override_entry.prefix] = override_entry;
  }

  // Optional hysteresis: retain old overrides whose source interface is
  // still hot, even though the stateless allocation no longer needs them.
  // A retained override must still fit on its target — keeping a detour
  // that overloads the detour target would trade one overload for another.
  if (config_.restore_threshold > 0) {
    auto& final_load = stats.allocation.final_load;
    for (const auto& [prefix, old_override] : active_) {
      if (fresh.contains(prefix)) continue;
      const auto it =
          stats.allocation.projected_load.find(old_override.from_interface);
      if (it == stats.allocation.projected_load.end()) continue;
      const net::Bandwidth capacity =
          pop_->interfaces().usable_capacity(old_override.from_interface);
      if (capacity <= net::Bandwidth::zero()) continue;
      if (it->second / capacity <= config_.restore_threshold) continue;

      const net::Bandwidth target_capacity =
          pop_->interfaces().usable_capacity(old_override.target_interface);
      if (target_capacity <= net::Bandwidth::zero()) continue;  // drained
      // Use the override's current demand, not last cycle's snapshot. A
      // prefix that vanished from demand has nothing left to steer —
      // retaining it would keep a zero-rate override (and its journal
      // entry) alive indefinitely.
      const net::Bandwidth rate = demand.rate(prefix);
      if (rate <= net::Bandwidth::zero()) continue;
      const net::Bandwidth headroom =
          target_capacity * config_.allocator.detour_headroom -
          final_load[old_override.target_interface];
      if (rate > headroom) continue;

      Override retained = old_override;
      retained.rate = rate;
      final_load[old_override.target_interface] += rate;
      final_load[old_override.from_interface] -= rate;
      fresh[prefix] = std::move(retained);
      ++stats.retained_by_hysteresis;
    }
  }

  // Performance-aware extension: accept advised overrides for prefixes
  // the capacity allocation left alone, as long as the target interface
  // has headroom.
  if (advisor_) {
    auto& final_load = stats.allocation.final_load;
    for (Override& advised : advisor_(stats.allocation)) {
      if (fresh.contains(advised.prefix)) continue;
      const net::Bandwidth capacity =
          pop_->interfaces().usable_capacity(advised.target_interface);
      if (capacity <= net::Bandwidth::zero()) continue;
      const net::Bandwidth headroom =
          capacity * config_.allocator.detour_headroom -
          final_load[advised.target_interface];
      if (advised.rate > headroom) continue;
      final_load[advised.target_interface] += advised.rate;
      final_load[advised.from_interface] -= advised.rate;
      fresh[advised.prefix] = std::move(advised);
      ++stats.perf_overrides;
    }
  }

  // Churn guard: bound how many prefixes may *change* their override in
  // one cycle. A change is a brand-new override or an existing one
  // steered to a different egress; removals and rate refreshes stay free
  // because shrinking toward plain BGP is the safe direction. Changes
  // past the budget revert to last cycle's decision (deterministically,
  // in prefix order) and retry next cycle, so a routing or demand glitch
  // cannot flip the whole override set at once.
  if (config_.max_churn_frac > 0) {
    auto changed = [&](const net::Prefix& prefix, const Override& entry) {
      const auto old_it = active_.find(prefix);
      if (old_it == active_.end()) return true;
      return old_it->second.target_interface != entry.target_interface ||
             old_it->second.next_hop != entry.next_hop;
    };
    std::size_t tracked = active_.size();
    std::size_t changes = 0;
    for (const auto& [prefix, entry] : fresh) {
      if (!active_.contains(prefix)) ++tracked;
      if (changed(prefix, entry)) ++changes;
    }
    const std::size_t budget = std::max<std::size_t>(
        1, static_cast<std::size_t>(config_.max_churn_frac *
                                    static_cast<double>(tracked)));
    if (changes > budget) {
      auto& final_load = stats.allocation.final_load;
      std::size_t allowed = 0;
      std::vector<net::Prefix> deferred;
      for (auto& [prefix, entry] : fresh) {
        if (!changed(prefix, entry)) continue;
        if (allowed < budget) {
          ++allowed;
          continue;
        }
        // Undo the proposed move, then re-apply last cycle's decision
        // (re-rated against current demand — rates are not churn).
        final_load[entry.target_interface] -= entry.rate;
        final_load[entry.from_interface] += entry.rate;
        const auto old_it = active_.find(prefix);
        if (old_it != active_.end()) {
          Override kept = old_it->second;
          kept.rate = entry.rate;
          final_load[kept.target_interface] += kept.rate;
          final_load[kept.from_interface] -= kept.rate;
          entry = std::move(kept);
        } else {
          deferred.push_back(prefix);
        }
        ++stats.churn_deferred;
      }
      for (const net::Prefix& prefix : deferred) fresh.erase(prefix);
    }
  }

  // Safety guard rails: drop overrides whose target route vanished and
  // enforce the detour budget, before anything reaches the routers.
  stats.safety = safety_.apply(fresh, rib, demand.total());

  // Cycle watchdog: a cycle that blew its wall-clock budget is acting on
  // inputs older than it believes. Fail static — enforce the empty set
  // (withdrawing everything) rather than a late decision.
  if (config_.cycle_budget.count() > 0 &&
      std::chrono::steady_clock::now() - cycle_start > config_.cycle_budget) {
    stats.watchdog_aborted = true;
    fresh.clear();
  }

  // Enforce: BGP injection (paper) or direct host programming.
  if (config_.enforcement == Enforcement::kBgpInjection) {
    std::map<net::Prefix, bgp::BgpSpeaker::Origination> originations;
    for (const auto& [prefix, override_entry] : fresh) {
      bgp::BgpSpeaker::Origination origination;
      origination.path_tail = override_entry.as_path;
      origination.local_pref = bgp::LocalPref(config_.override_local_pref);
      origination.next_hop = override_entry.next_hop;
      origination.communities = {
          kOverrideCommunity,
          bgp::peer_type_community(override_entry.target_type)};
      originations[prefix] = std::move(origination);
    }
    speaker_.set_originations(originations, now);
    pop_->pump();
  } else if (config_.enforcement == Enforcement::kHostRouting) {
    const net::SimTime lease_until =
        now + net::SimTime::millis(static_cast<std::int64_t>(
                  config_.cycle_period.millis_value() *
                  config_.host_lease_cycles));
    for (const auto& [prefix, old_override] : active_) {
      if (!fresh.contains(prefix)) pop_->remove_host_override(prefix);
    }
    // (Re)install everything current — refreshing the lease is what keeps
    // a live controller's entries alive.
    for (const auto& [prefix, override_entry] : fresh) {
      pop_->install_host_override(prefix, override_entry.next_hop,
                                  lease_until);
    }
  }

  // Churn accounting.
  for (const auto& [prefix, override_entry] : fresh) {
    if (!active_.contains(prefix)) ++stats.added;
  }
  for (const auto& [prefix, override_entry] : active_) {
    if (!fresh.contains(prefix)) ++stats.removed;
  }
  active_ = std::move(fresh);
  stats.overrides_active = active_.size();

  if (observer_) {
    observer_(CycleRecord{demand, rib, pop_->interfaces(), resolver,
                          config_.allocator, active_, stats});
  }
  return stats;
}

void Controller::withdraw_all(net::SimTime now) {
  if (config_.enforcement == Enforcement::kBgpInjection) {
    if (!sessions_.empty()) {
      speaker_.set_originations({}, now);
      pop_->pump();
    }
  } else if (config_.enforcement == Enforcement::kHostRouting) {
    for (const auto& [prefix, override_entry] : active_) {
      pop_->remove_host_override(prefix);
    }
  }
  active_.clear();
}

void Controller::restore_overrides(const std::vector<Override>& overrides,
                                   net::SimTime now) {
  std::map<net::Prefix, Override> restored;
  for (const Override& o : overrides) restored[o.prefix] = o;
  if (config_.enforcement == Enforcement::kBgpInjection) {
    std::map<net::Prefix, bgp::BgpSpeaker::Origination> originations;
    for (const auto& [prefix, override_entry] : restored) {
      bgp::BgpSpeaker::Origination origination;
      origination.path_tail = override_entry.as_path;
      origination.local_pref = bgp::LocalPref(config_.override_local_pref);
      origination.next_hop = override_entry.next_hop;
      origination.communities = {
          kOverrideCommunity,
          bgp::peer_type_community(override_entry.target_type)};
      originations[prefix] = std::move(origination);
    }
    speaker_.set_originations(originations, now);
    pop_->pump();
  } else if (config_.enforcement == Enforcement::kHostRouting) {
    const net::SimTime lease_until =
        now + net::SimTime::millis(static_cast<std::int64_t>(
                  config_.cycle_period.millis_value() *
                  config_.host_lease_cycles));
    for (const auto& [prefix, override_entry] : restored) {
      pop_->install_host_override(prefix, override_entry.next_hop,
                                  lease_until);
    }
  }
  active_ = std::move(restored);
  ledger_.invalidate();
}

void Controller::repair_overrides(const std::vector<net::Prefix>& reannounce,
                                  const std::vector<net::Prefix>& withdraw,
                                  net::SimTime now) {
  if (config_.enforcement != Enforcement::kBgpInjection) return;
  for (const net::Prefix& prefix : reannounce) {
    auto it = active_.find(prefix);
    if (it == active_.end()) continue;
    const Override& override_entry = it->second;
    bgp::BgpSpeaker::Origination origination;
    origination.path_tail = override_entry.as_path;
    origination.local_pref = bgp::LocalPref(config_.override_local_pref);
    origination.next_hop = override_entry.next_hop;
    origination.communities = {
        kOverrideCommunity,
        bgp::peer_type_community(override_entry.target_type)};
    // originate() re-sends unconditionally even when the entry matches
    // what the speaker already holds — the repair primitive.
    speaker_.originate(prefix, origination, now);
  }
  speaker_.send_withdraw(withdraw, now);
  pop_->pump();
}

void Controller::tick(net::SimTime now) {
  speaker_.tick(now);
  pop_->pump();
}

void Controller::shutdown(net::SimTime now, bool graceful) {
  for (bgp::PeerId session_id : sessions_) {
    speaker_.close_session(session_id, now);
  }
  if (graceful && config_.enforcement == Enforcement::kHostRouting) {
    for (const auto& [prefix, override_entry] : active_) {
      pop_->remove_host_override(prefix);
    }
  }
  pop_->pump();
  active_.clear();
}

}  // namespace ef::core
