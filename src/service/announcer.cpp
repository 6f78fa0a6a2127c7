#include "service/announcer.h"

#include "core/controller.h"
#include "net/log.h"

namespace ef::service {

Announcer::Announcer(io::EventLoop& loop, Config config)
    : loop_(loop), config_(std::move(config)), speaker_([this] {
        bgp::BgpSpeaker::Config speaker_config;
        speaker_config.local_as = config_.local_as;
        speaker_config.router_id = config_.router_id;
        speaker_config.import_policy.local_as = config_.local_as;
        return speaker_config;
      }()) {
  EF_CHECK(!config_.ports.empty(), "announcer requires at least one peer");
  peers_.reserve(config_.ports.size());
  for (std::uint16_t port : config_.ports) {
    auto peer = std::make_unique<Peer>();
    peer->port = port;
    if (config_.faults) {
      // Same seed-mixing constant as the injector's own per-message
      // derivation, keyed on the peer index so two peers never share a
      // fault schedule.
      io::FaultConfig fault_config = *config_.faults;
      fault_config.seed ^= 0x9E3779B97F4A7C15ull * (peers_.size() + 1);
      peer->faults = std::make_unique<io::FaultInjector>(
          fault_config, config_.fault_script);
    }
    peers_.push_back(std::move(peer));
  }
  per_peer_sent_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(peers_.size());
  counters_.set(Counter::sessions_configured, peers_.size());
  speaker_.set_monitor([this](const bgp::MonitorEvent& event) {
    if (event.kind != bgp::MonitorEvent::Kind::kPeerUp) return;
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      if (peers_[i]->id == event.peer) {
        on_session_up(i);
        return;
      }
    }
  });
}

Announcer::~Announcer() = default;

void Announcer::connect() {
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    Peer& peer = *peers_[i];
    peer.reconnector = std::make_unique<io::Reconnector>(
        loop_, config_.redial, [this, i] { return dial(i); },
        [this, i](bool connected) {
          if (!connected && on_event_) {
            on_event_(i, false, "redial budget exhausted");
          }
        });
    peer.reconnector->start();
  }
}

bool Announcer::dial(std::size_t index) {
  Peer& peer = *peers_[index];
  io::Fd fd = io::connect_tcp(peer.port);
  if (!fd.valid()) return false;

  bgp::SessionDriver::Config driver_config;
  driver_config.tick_period = config_.tick_period;
  peer.driver = std::make_unique<bgp::SessionDriver>(loop_, std::move(fd),
                                                     driver_config);

  bgp::SessionConfig session_config;
  session_config.peer_as = config_.peer_as;
  session_config.peer_type = bgp::PeerType::kController;
  session_config.hold_time_secs = config_.hold_time_secs;

  bgp::SessionDriver* driver = peer.driver.get();
  peer.id = speaker_.add_neighbor(
      session_config,
      [this, index, driver](std::vector<std::uint8_t> bytes) {
        const bool is_update =
            bytes.size() > 18 &&
            bytes[18] ==
                static_cast<std::uint8_t>(bgp::MessageType::kUpdate);
        if (!is_update) {
          // OPEN/KEEPALIVE/NOTIFICATION pass untouched — their timing is
          // wall-clock driven, so faulting them would desync the
          // deterministic UPDATE-indexed schedule.
          driver->transmit(std::move(bytes));
          return;
        }
        bool withdraw_bearing = false;
        if (bytes.size() >= 21) {
          const std::uint16_t withdrawn_len =
              static_cast<std::uint16_t>((bytes[19] << 8) | bytes[20]);
          withdraw_bearing = withdrawn_len > 0;
        }
        std::uint64_t copies = 1;
        bool flap = false;
        if (io::FaultInjector* faults = peers_[index]->faults.get()) {
          io::FaultDecision decision =
              faults->apply(bytes, 19, withdraw_bearing);
          switch (decision.kind) {
            case io::FaultKind::kDrop:
              counters_.add(Counter::faults_dropped);
              if (withdraw_bearing) {
                counters_.add(Counter::withdraws_swallowed);
              }
              return;  // never reaches the wire, never counted
            case io::FaultKind::kDuplicate:
              copies = 2;
              counters_.add(Counter::faults_duplicated);
              bytes = std::move(decision.bytes);
              break;
            case io::FaultKind::kDisconnect:
              flap = true;
              counters_.add(Counter::faults_flapped);
              break;
            default:
              bytes = std::move(decision.bytes);
              break;
          }
        }
        // Count post-fault wire messages: the drain barrier compares
        // these against the peering router's updates_received, and a
        // dropped UPDATE genuinely never arrives while a duplicate
        // arrives twice.
        counters_.add(Counter::updates_sent, copies);
        per_peer_sent_[index].fetch_add(copies, std::memory_order_release);
        if (withdraw_bearing) {
          counters_.add(Counter::withdraw_msgs, copies);
        }
        driver->transmit(std::move(bytes));
        if (flap) {
          // Deferred: teardown reenters the speaker (session close →
          // route flush), which must not run inside this send path.
          loop_.post([this, index] {
            Peer& flapped = *peers_[index];
            if (flapped.driver && flapped.driver->transport_up()) {
              flapped.driver->fail("injected session flap");
            }
          });
        }
      });
  driver->bind(*speaker_.session(peer.id));
  driver->set_down_handler([this, index](const std::string& reason) {
    on_driver_down(index, reason);
  });
  speaker_.start_session(peer.id, bgp::wall_now());
  return true;
}

void Announcer::on_session_up(std::size_t index) {
  peers_[index]->up = true;
  publish();
  if (on_event_) on_event_(index, true, "established");
}

void Announcer::on_driver_down(std::size_t index,
                               const std::string& reason) {
  Peer& peer = *peers_[index];
  const bool was_up = peer.up;
  peer.up = false;
  if (was_up) counters_.add(Counter::session_drops);
  publish();
  if (on_event_) on_event_(index, false, reason);
  // The driver reported its own death; destroy it (and its speaker
  // session) only once its callback has unwound.
  loop_.post([this, index] {
    Peer& deferred = *peers_[index];
    if (deferred.id != bgp::PeerId()) {
      speaker_.remove_neighbor(deferred.id, bgp::wall_now());
      deferred.id = bgp::PeerId();
    }
    deferred.driver.reset();
    if (!killed_ && deferred.reconnector) {
      counters_.add(Counter::redials);
      deferred.reconnector->start();
    }
  });
}

void Announcer::announce(
    const std::map<net::Prefix, core::Override>& overrides,
    net::SimTime now) {
  if (killed_) return;
  // Mirror of the in-process controller's injection path
  // (core::Controller::run_cycle) — same attributes, same speaker code,
  // so the bytes on the wire match the in-process injection bit for bit.
  std::map<net::Prefix, bgp::BgpSpeaker::Origination> originations;
  for (const auto& [prefix, override_entry] : overrides) {
    bgp::BgpSpeaker::Origination origination;
    origination.path_tail = override_entry.as_path;
    origination.local_pref = bgp::LocalPref(config_.override_local_pref);
    origination.next_hop = override_entry.next_hop;
    origination.communities = {
        core::kOverrideCommunity,
        bgp::peer_type_community(override_entry.target_type)};
    originations[prefix] = std::move(origination);
  }
  speaker_.set_originations(originations, now);
  counters_.set(Counter::prefixes_active, originations.size());
  publish();
}

void Announcer::withdraw_all(net::SimTime now) {
  if (killed_) return;
  speaker_.set_originations({}, now);
  counters_.set(Counter::prefixes_active, 0);
  publish();
}

void Announcer::refresh(const std::vector<net::Prefix>& prefixes,
                        net::SimTime now) {
  if (killed_) return;
  const auto& originations = speaker_.originations();
  for (const net::Prefix& prefix : prefixes) {
    auto it = originations.find(prefix);
    if (it == originations.end()) continue;
    // originate() re-sends unconditionally even when the entry is
    // unchanged — exactly the repair primitive the auditor needs.
    speaker_.originate(prefix, it->second, now);
  }
}

void Announcer::force_withdraw(const std::vector<net::Prefix>& prefixes,
                               net::SimTime now) {
  if (killed_) return;
  speaker_.send_withdraw(prefixes, now);
}

void Announcer::kill() {
  if (killed_) return;
  killed_ = true;
  for (auto& peer : peers_) {
    if (peer->reconnector) peer->reconnector->cancel();
    if (peer->driver) peer->driver->kill();
    peer->up = false;
  }
  publish();
}

void Announcer::publish() {
  std::uint64_t up = 0;
  for (const auto& peer : peers_) up += peer->up ? 1 : 0;
  counters_.set(Counter::sessions_established, up);
}

Announcer::Stats Announcer::stats() const {
#define EF_STATS_ROW(field, ingest, metric, help) \
  {&Stats::field, metric, help},
  static constexpr CounterRow<Stats> kRows[] = {
      EF_ANNOUNCER_COUNTERS(EF_STATS_ROW)};
#undef EF_STATS_ROW
  Stats stats;
  counters_.load(stats, kRows);
  return stats;
}

std::uint64_t Announcer::updates_sent_to(std::size_t i) const {
  EF_CHECK(i < peers_.size(), "bad announcer peer index");
  return per_peer_sent_[i].load(std::memory_order_acquire);
}

}  // namespace ef::service
