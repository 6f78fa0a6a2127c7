#include "audit/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_map>

#include "net/bytes.h"
#include "net/log.h"

namespace ef::audit {

namespace {

// Writes into space the caller sized in advance, with BufWriter's
// interface, so the route encoder serves both: the live encoder sizes the
// whole route section once and fills it without a capacity check per
// byte. A write that does not fit is dropped and flagged, never made.
class SpanWriter {
 public:
  explicit SpanWriter(std::span<std::uint8_t> out)
      : p_(out.data()), end_(out.data() + out.size()) {}

  void u8(std::uint8_t v) {
    if (room(1)) *p_++ = v;
  }
  void u16(std::uint16_t v) {
    if (!room(2)) return;
    p_[0] = static_cast<std::uint8_t>(v >> 8);
    p_[1] = static_cast<std::uint8_t>(v);
    p_ += 2;
  }
  void u32(std::uint32_t v) {
    if (!room(4)) return;
    p_[0] = static_cast<std::uint8_t>(v >> 24);
    p_[1] = static_cast<std::uint8_t>(v >> 16);
    p_[2] = static_cast<std::uint8_t>(v >> 8);
    p_[3] = static_cast<std::uint8_t>(v);
    p_ += 4;
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void bytes(const std::uint8_t* data, std::size_t len) {
    if (!room(len)) return;
    std::memcpy(p_, data, len);
    p_ += len;
  }

  /// Every write fit and the space is used up exactly.
  bool filled() const { return ok_ && p_ == end_; }

 private:
  bool room(std::size_t n) {
    ok_ = ok_ && static_cast<std::size_t>(end_ - p_) >= n;
    return ok_;
  }

  std::uint8_t* p_;
  std::uint8_t* end_;
  bool ok_ = true;
};

// Doubles travel as their IEEE-754 bit pattern so values round-trip
// exactly — replay equality is bitwise, not epsilon-based.
void put_f64(net::BufWriter& w, double v) {
  w.u64(std::bit_cast<std::uint64_t>(v));
}
double get_f64(net::BufReader& r) {
  return std::bit_cast<double>(r.u64());
}

void put_bw(net::BufWriter& w, net::Bandwidth bw) {
  put_f64(w, bw.bits_per_sec());
}
net::Bandwidth get_bw(net::BufReader& r) {
  return net::Bandwidth::bps(get_f64(r));
}

template <class W>
void put_time(W& w, net::SimTime t) {
  w.u64(static_cast<std::uint64_t>(t.millis_value()));
}
net::SimTime get_time(net::BufReader& r) {
  return net::SimTime::millis(static_cast<std::int64_t>(r.u64()));
}

template <class W>
void put_ip(W& w, const net::IpAddr& addr) {
  w.u8(static_cast<std::uint8_t>(addr.family()));
  w.bytes(addr.bytes().data(), addr.bytes().size());
}
net::IpAddr get_ip(net::BufReader& r) {
  const auto family = static_cast<net::Family>(r.u8());
  std::array<std::uint8_t, 16> bytes{};
  r.bytes(bytes.data(), bytes.size());
  if (family == net::Family::kV4) return net::IpAddr::v4(
      (static_cast<std::uint32_t>(bytes[0]) << 24) |
      (static_cast<std::uint32_t>(bytes[1]) << 16) |
      (static_cast<std::uint32_t>(bytes[2]) << 8) |
      static_cast<std::uint32_t>(bytes[3]));
  if (family == net::Family::kV6) return net::IpAddr::v6(bytes);
  r.fail();
  return {};
}

template <class W>
void put_prefix(W& w, const net::Prefix& prefix) {
  put_ip(w, prefix.address());
  w.u8(static_cast<std::uint8_t>(prefix.length()));
}
net::Prefix get_prefix(net::BufReader& r) {
  const net::IpAddr addr = get_ip(r);
  const int length = r.u8();
  return net::Prefix(addr, length);
}

template <class W>
void put_as_path(W& w, const bgp::AsPath& path) {
  w.u16(static_cast<std::uint16_t>(path.length()));
  for (bgp::AsNumber as : path.ases()) w.u32(as.value());
}
bgp::AsPath get_as_path(net::BufReader& r) {
  const std::size_t count = r.u16();
  std::vector<bgp::AsNumber> ases;
  ases.reserve(count);
  for (std::size_t i = 0; i < count && r.ok(); ++i) {
    ases.emplace_back(r.u32());
  }
  return bgp::AsPath(std::move(ases));
}

template <class W>
void put_route(W& w, const bgp::Route& route) {
  put_prefix(w, route.prefix);
  w.u8(static_cast<std::uint8_t>(route.attrs.origin));
  put_as_path(w, route.attrs.as_path);
  put_ip(w, route.attrs.next_hop);
  w.u32(route.attrs.med.value());
  w.u8(route.attrs.has_med ? 1 : 0);
  w.u32(route.attrs.local_pref.value());
  w.u8(route.attrs.has_local_pref ? 1 : 0);
  w.u16(static_cast<std::uint16_t>(route.attrs.communities.size()));
  for (bgp::Community c : route.attrs.communities) w.u32(c.raw());
  w.u32(route.learned_from.value());
  w.u8(static_cast<std::uint8_t>(route.peer_type));
  w.u32(route.neighbor_as.value());
  w.u32(route.neighbor_router_id.value());
  put_time(w, route.learned_at);
}
// Bytes put_route() writes for `route`, field by field in its order.
// The live encoder sizes its route section as the sum of these and
// checks that it filled the section exactly (SpanWriter::filled), so a
// mismatch fails an EF_CHECK instead of journaling a wrong record.
std::size_t route_wire_size(const bgp::Route& route) {
  constexpr std::size_t kIp = 1 + 16;
  constexpr std::size_t kFixed = (kIp + 1)  // prefix
                                 + 1        // origin
                                 + 2        // AS path length
                                 + kIp      // next hop
                                 + 4 + 1    // MED, has_med
                                 + 4 + 1    // LOCAL_PREF, has_local_pref
                                 + 2        // community count
                                 + 4 + 1    // learned_from, peer_type
                                 + 4 + 4    // neighbor AS, router id
                                 + 8;       // learned_at
  return kFixed + 4 * (route.attrs.as_path.ases().size() +
                       route.attrs.communities.size());
}
bgp::Route get_route(net::BufReader& r) {
  bgp::Route route;
  route.prefix = get_prefix(r);
  route.attrs.origin = static_cast<bgp::Origin>(r.u8());
  route.attrs.as_path = get_as_path(r);
  route.attrs.next_hop = get_ip(r);
  route.attrs.med = bgp::Med(r.u32());
  route.attrs.has_med = r.u8() != 0;
  route.attrs.local_pref = bgp::LocalPref(r.u32());
  route.attrs.has_local_pref = r.u8() != 0;
  const std::size_t communities = r.u16();
  route.attrs.communities.reserve(communities);
  for (std::size_t i = 0; i < communities && r.ok(); ++i) {
    route.attrs.communities.emplace_back(r.u32());
  }
  route.learned_from = bgp::PeerId(r.u32());
  route.peer_type = static_cast<bgp::PeerType>(r.u8());
  route.neighbor_as = bgp::AsNumber(r.u32());
  route.neighbor_router_id = bgp::RouterId(r.u32());
  route.learned_at = get_time(r);
  return route;
}

void put_override(net::BufWriter& w, const core::Override& o) {
  put_prefix(w, o.prefix);
  put_bw(w, o.rate);
  put_ip(w, o.next_hop);
  put_as_path(w, o.as_path);
  w.u32(o.from_interface.value());
  w.u32(o.target_interface.value());
  w.u8(static_cast<std::uint8_t>(o.from_type));
  w.u8(static_cast<std::uint8_t>(o.target_type));
}
core::Override get_override(net::BufReader& r) {
  core::Override o;
  o.prefix = get_prefix(r);
  o.rate = get_bw(r);
  o.next_hop = get_ip(r);
  o.as_path = get_as_path(r);
  o.from_interface = telemetry::InterfaceId(r.u32());
  o.target_interface = telemetry::InterfaceId(r.u32());
  o.from_type = static_cast<bgp::PeerType>(r.u8());
  o.target_type = static_cast<bgp::PeerType>(r.u8());
  return o;
}

void put_overrides(net::BufWriter& w, const std::vector<core::Override>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const core::Override& o : v) put_override(w, o);
}
std::vector<core::Override> get_overrides(net::BufReader& r) {
  const std::size_t count = r.u32();
  std::vector<core::Override> v;
  for (std::size_t i = 0; i < count && r.ok(); ++i) {
    v.push_back(get_override(r));
  }
  return v;
}

void put_load_map(
    net::BufWriter& w,
    const std::map<telemetry::InterfaceId, net::Bandwidth>& load) {
  w.u32(static_cast<std::uint32_t>(load.size()));
  for (const auto& [id, bw] : load) {
    w.u32(id.value());
    put_bw(w, bw);
  }
}
std::map<telemetry::InterfaceId, net::Bandwidth> get_load_map(
    net::BufReader& r) {
  const std::size_t count = r.u32();
  std::map<telemetry::InterfaceId, net::Bandwidth> load;
  for (std::size_t i = 0; i < count && r.ok(); ++i) {
    const telemetry::InterfaceId id{r.u32()};
    load[id] = get_bw(r);
  }
  return load;
}

// The wire order of a cycle record: head, egress, demand, routes, tail.
// Keyframes (put_snapshot) write every section in full; delta records
// (serialize_cycle_delta) write the head and tail the same way and only
// the changed entries in between.
void put_head(net::BufWriter& w, const CycleSnapshot& s) {
  w.u16(s.version);
  put_time(w, s.when);

  put_f64(w, s.allocator.overload_threshold);
  put_f64(w, s.allocator.target_utilization);
  put_f64(w, s.allocator.detour_headroom);
  w.u8(static_cast<std::uint8_t>(s.allocator.order));
  w.u64(s.allocator.max_overrides);
  w.u8(s.allocator.allow_prefix_splitting ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(s.allocator.max_split_depth));
  w.u8(s.decision.compare_med_across_as ? 1 : 0);
  w.u8(s.decision.prefer_oldest ? 1 : 0);

  w.u32(static_cast<std::uint32_t>(s.interfaces.size()));
  for (const InterfaceRecord& iface : s.interfaces) {
    w.u32(iface.id.value());
    put_bw(w, iface.capacity);
    w.u8(iface.drained ? 1 : 0);
  }
}
// False on an unsupported version.
bool get_head(net::BufReader& r, CycleSnapshot& s) {
  s.version = r.u16();
  if (!r.ok() || s.version < 1 || s.version > kSnapshotVersion) return false;
  s.when = get_time(r);

  s.allocator.overload_threshold = get_f64(r);
  s.allocator.target_utilization = get_f64(r);
  s.allocator.detour_headroom = get_f64(r);
  s.allocator.order = static_cast<core::DetourOrder>(r.u8());
  s.allocator.max_overrides = r.u64();
  s.allocator.allow_prefix_splitting = r.u8() != 0;
  s.allocator.max_split_depth = static_cast<int>(r.u32());
  s.decision.compare_med_across_as = r.u8() != 0;
  s.decision.prefer_oldest = r.u8() != 0;

  const std::size_t interface_count = r.u32();
  for (std::size_t i = 0; i < interface_count && r.ok(); ++i) {
    InterfaceRecord iface;
    iface.id = telemetry::InterfaceId(r.u32());
    iface.capacity = get_bw(r);
    iface.drained = r.u8() != 0;
    s.interfaces.push_back(iface);
  }
  return true;
}

void put_egress(net::BufWriter& w, const std::vector<EgressRecord>& egress) {
  w.u32(static_cast<std::uint32_t>(egress.size()));
  for (const EgressRecord& e : egress) {
    put_ip(w, e.address);
    w.u32(e.interface.value());
    w.u8(static_cast<std::uint8_t>(e.type));
  }
}
std::vector<EgressRecord> get_egress(net::BufReader& r) {
  std::vector<EgressRecord> egress;
  const std::size_t count = r.u32();
  for (std::size_t i = 0; i < count && r.ok(); ++i) {
    EgressRecord e;
    e.address = get_ip(r);
    e.interface = telemetry::InterfaceId(r.u32());
    e.type = static_cast<bgp::PeerType>(r.u8());
    egress.push_back(e);
  }
  return egress;
}

void put_demand(net::BufWriter& w, const std::vector<DemandRecord>& demand) {
  w.u32(static_cast<std::uint32_t>(demand.size()));
  for (const DemandRecord& d : demand) {
    put_prefix(w, d.prefix);
    put_bw(w, d.rate);
  }
}
std::vector<DemandRecord> get_demand(net::BufReader& r) {
  std::vector<DemandRecord> demand;
  const std::size_t count = r.u32();
  for (std::size_t i = 0; i < count && r.ok(); ++i) {
    DemandRecord d;
    d.prefix = get_prefix(r);
    d.rate = get_bw(r);
    demand.push_back(d);
  }
  return demand;
}

void put_tail(net::BufWriter& w, const CycleSnapshot& s) {
  put_overrides(w, s.allocated);
  put_load_map(w, s.projected_load);
  put_load_map(w, s.final_load);
  w.u64(s.overloaded_interfaces);
  put_bw(w, s.unresolved_overload);
  put_bw(w, s.unroutable);
  put_overrides(w, s.applied);
  w.u64(s.safety.dropped_invalid_route);
  w.u64(s.safety.dropped_by_budget);
  w.u64(s.added);
  w.u64(s.removed);
  w.u64(s.retained_by_hysteresis);
  w.u64(s.perf_overrides);
  // v2 trailer: execution annotations, appended so a v1 reader that
  // stopped here would have consumed a complete v1 record.
  w.u64(s.dirty_prefixes);
  w.u64(s.escalations);
  w.u64(s.full_fallbacks);
  w.u8(s.incremental_cycle ? 1 : 0);
  w.u64(s.allocation_wall_ns);
}
void get_tail(net::BufReader& r, CycleSnapshot& s) {
  s.allocated = get_overrides(r);
  s.projected_load = get_load_map(r);
  s.final_load = get_load_map(r);
  s.overloaded_interfaces = r.u64();
  s.unresolved_overload = get_bw(r);
  s.unroutable = get_bw(r);
  s.applied = get_overrides(r);
  s.safety.dropped_invalid_route = r.u64();
  s.safety.dropped_by_budget = r.u64();
  s.added = r.u64();
  s.removed = r.u64();
  s.retained_by_hysteresis = r.u64();
  s.perf_overrides = r.u64();
  if (s.version >= 2) {
    s.dirty_prefixes = r.u64();
    s.escalations = r.u64();
    s.full_fallbacks = r.u64();
    s.incremental_cycle = r.u8() != 0;
    s.allocation_wall_ns = r.u64();
  }
}

// A full (keyframe) record. Every section comes from `s` except the
// routes, which `put_routes` writes (count, then each route): a decoded
// snapshot holds them as values, while live cycle state streams them
// from the RIB without copying.
template <class PutRoutes>
void put_snapshot(net::BufWriter& w, const CycleSnapshot& s,
                  PutRoutes&& put_routes) {
  put_head(w, s);
  put_egress(w, s.egress);
  put_demand(w, s.demand);
  put_routes(w);
  put_tail(w, s);
}

// Everything of a cycle record but the egress, demand and routes
// sections, which keyframes and deltas fill differently.
CycleSnapshot head_and_tail(const core::Controller::CycleRecord& record,
                            bool include_timing) {
  CycleSnapshot s;
  s.when = record.stats.when;
  s.allocator = record.allocator_config;
  s.decision = record.rib.decision_config();

  record.interfaces.for_each(
      [&](telemetry::InterfaceId id, const telemetry::InterfaceState& state) {
        s.interfaces.push_back({id, state.capacity, state.drained});
      });
  // InterfaceRegistry iterates an ordered map, but sort defensively — the
  // serialized bytes must be a pure function of the cycle state.
  std::sort(s.interfaces.begin(), s.interfaces.end(),
            [](const InterfaceRecord& a, const InterfaceRecord& b) {
              return a.id < b.id;
            });

  const core::AllocationResult& allocation = record.stats.allocation;
  s.allocated = allocation.overrides;
  s.projected_load = allocation.projected_load;
  s.final_load = allocation.final_load;
  s.overloaded_interfaces = allocation.overloaded_interfaces;
  s.unresolved_overload = allocation.unresolved_overload;
  s.unroutable = allocation.unroutable;
  s.applied.reserve(record.applied.size());
  for (const auto& [prefix, override_entry] : record.applied) {
    s.applied.push_back(override_entry);
  }
  s.safety = record.stats.safety;
  s.added = record.stats.added;
  s.removed = record.stats.removed;
  s.retained_by_hysteresis = record.stats.retained_by_hysteresis;
  s.perf_overrides = record.stats.perf_overrides;
  s.dirty_prefixes = record.stats.dirty_prefixes;
  s.escalations = record.stats.escalations;
  s.full_fallbacks = record.stats.full_fallbacks;
  s.incremental_cycle = record.stats.incremental_cycle;
  // Wall clocks vary run-to-run; deterministic recorders must leave the
  // timing annotation zero so identical simulations journal identical
  // bytes (see the header contract).
  if (include_timing) {
    s.allocation_wall_ns =
        static_cast<std::uint64_t>(record.stats.allocation_wall.count());
  }
  return s;
}

bool egress_less(const EgressRecord& a, const EgressRecord& b) {
  return a.address < b.address;
}

}  // namespace

std::vector<std::uint8_t> CycleSnapshot::serialize() const {
  net::BufWriter w;
  put_snapshot(w, *this, [&](net::BufWriter& out) {
    out.u32(static_cast<std::uint32_t>(routes.size()));
    for (const bgp::Route& route : routes) put_route(out, route);
  });
  return w.take();
}

std::optional<CycleSnapshot> CycleSnapshot::deserialize(
    std::span<const std::uint8_t> bytes) {
  net::BufReader r(bytes.data(), bytes.size());
  CycleSnapshot s;
  if (!get_head(r, s)) return std::nullopt;
  s.egress = get_egress(r);
  s.demand = get_demand(r);
  const std::size_t route_count = r.u32();
  for (std::size_t i = 0; i < route_count && r.ok(); ++i) {
    s.routes.push_back(get_route(r));
  }
  get_tail(r, s);
  if (!r.ok()) return std::nullopt;
  return s;
}

std::vector<std::uint8_t> RecoverySnapshot::serialize() const {
  net::BufWriter w;
  w.u16(kRecoverySnapshotTag);
  put_time(w, when);
  put_overrides(w, overrides);
  return w.take();
}

std::optional<RecoverySnapshot> RecoverySnapshot::deserialize(
    std::span<const std::uint8_t> bytes) {
  net::BufReader r(bytes.data(), bytes.size());
  if (r.u16() != kRecoverySnapshotTag || !r.ok()) return std::nullopt;
  RecoverySnapshot s;
  s.when = get_time(r);
  s.overrides = get_overrides(r);
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return s;
}

std::vector<std::uint8_t> serialize_cycle(
    const core::Controller::CycleRecord& record, bool include_timing) {
  // Everything but the routes goes into a value first (demand as flat
  // records, outputs as copies of the override sets), and put_snapshot()
  // writes it in the one wire order.
  CycleSnapshot s = head_and_tail(record, include_timing);

  s.demand.reserve(record.demand.prefix_count());
  record.demand.visit([&](const net::Prefix& prefix, net::Bandwidth rate) {
    s.demand.push_back({prefix, rate});
  });
  std::sort(s.demand.begin(), s.demand.end(),
            [](const DemandRecord& a, const DemandRecord& b) {
              return a.prefix < b.prefix;
            });

  // The routes stay in the RIB: one pass collects each prefix's span of
  // candidates, sorted by prefix, and they are encoded from there.
  using PrefixRoutes = std::pair<net::Prefix, std::span<const bgp::Route>>;
  std::vector<PrefixRoutes> entries;
  entries.reserve(record.rib.prefix_count());
  record.rib.for_each(
      [&](const net::Prefix& prefix, std::span<const bgp::Route> routes) {
        entries.emplace_back(prefix, routes);
      });
  std::sort(entries.begin(), entries.end(),
            [](const PrefixRoutes& a, const PrefixRoutes& b) {
              return a.first < b.first;
            });

  // Controller-injected routes are not input. The egress map holds one
  // entry per distinct NEXT_HOP (what the replay resolver looks up),
  // resolved once through the first natural route that carries it.
  std::unordered_map<net::IpAddr, const bgp::Route*> first_by_next_hop;
  std::size_t route_count = 0;
  std::size_t route_bytes = 0;
  for (const auto& [prefix, routes] : entries) {
    for (const bgp::Route& route : routes) {
      if (route.peer_type == bgp::PeerType::kController) continue;
      ++route_count;
      route_bytes += route_wire_size(route);
      first_by_next_hop.try_emplace(route.attrs.next_hop, &route);
    }
  }
  for (const auto& [next_hop, route] : first_by_next_hop) {
    if (const auto egress = record.resolve(*route)) {
      s.egress.push_back({next_hop, egress->interface, egress->type});
    }
  }
  std::sort(s.egress.begin(), s.egress.end(), egress_less);

  net::BufWriter w;
  // The routes dominate and are sized exactly; the rest is estimated,
  // and a short estimate costs one regrow.
  w.reserve(route_bytes + 64 * (s.demand.size() + s.egress.size() +
                                s.interfaces.size() + s.allocated.size() +
                                s.applied.size()) +
            4096);
  put_snapshot(w, s, [&](net::BufWriter& out) {
    out.u32(static_cast<std::uint32_t>(route_count));
    SpanWriter span(out.extend(route_bytes));
    for (const auto& [prefix, routes] : entries) {
      for (const bgp::Route& route : routes) {
        if (route.peer_type != bgp::PeerType::kController) {
          put_route(span, route);
        }
      }
    }
    EF_CHECK(span.filled(), "serialize_cycle: route section is not "
                                << route_bytes << " bytes");
  });
  return w.take();
}

std::optional<std::vector<std::uint8_t>> serialize_cycle_delta(
    const core::Controller::CycleRecord& record, const DeltaLink& link,
    std::uint64_t rib_since, std::uint64_t demand_since,
    bool include_timing) {
  std::vector<net::Prefix> changed;
  if (record.rib.changes_since(rib_since, [&](const net::Prefix& prefix) {
        changed.push_back(prefix);
      }) != bgp::Rib::ChangeLogStatus::kOk) {
    return std::nullopt;
  }
  // The log repeats a prefix per mutation, each entry carrying the rate
  // right after it: a stable sort keeps them in log order, so the last
  // entry of each run is the prefix's current rate.
  std::vector<DemandRecord> demand;
  if (record.demand.changes_since(
          demand_since, [&](const net::Prefix& prefix, net::Bandwidth rate) {
            demand.push_back({prefix, rate});
          }) != telemetry::DemandMatrix::ChangeLogStatus::kOk) {
    return std::nullopt;
  }
  std::stable_sort(demand.begin(), demand.end(),
                   [](const DemandRecord& a, const DemandRecord& b) {
                     return a.prefix < b.prefix;
                   });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < demand.size(); ++i) {
    if (kept > 0 && demand[kept - 1].prefix == demand[i].prefix) {
      demand[kept - 1] = demand[i];
    } else {
      demand[kept++] = demand[i];
    }
  }
  demand.resize(kept);
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

  CycleSnapshot s = head_and_tail(record, include_timing);
  s.demand = std::move(demand);
  // Egress for the NEXT_HOPs the changed routes carry, resolved through
  // the first route carrying each, as serialize_cycle() resolves them.
  // The resolver is a function of the NEXT_HOP, so the reader rebuilds
  // the full map from its keyframe's entries plus these.
  std::vector<std::span<const bgp::Route>> routes;
  routes.reserve(changed.size());
  std::unordered_map<net::IpAddr, const bgp::Route*> first_by_next_hop;
  for (const net::Prefix& prefix : changed) {
    routes.push_back(record.rib.candidates(prefix));
    for (const bgp::Route& route : routes.back()) {
      if (route.peer_type == bgp::PeerType::kController) continue;
      first_by_next_hop.try_emplace(route.attrs.next_hop, &route);
    }
  }
  for (const auto& [next_hop, route] : first_by_next_hop) {
    if (const auto egress = record.resolve(*route)) {
      s.egress.push_back({next_hop, egress->interface, egress->type});
    }
  }
  std::sort(s.egress.begin(), s.egress.end(), egress_less);

  net::BufWriter w;
  w.u16(kCycleDeltaTag);
  w.u32(link.keyframe_crc);
  w.u32(link.index);
  put_time(w, link.prev_when);
  put_head(w, s);
  put_egress(w, s.egress);
  put_demand(w, s.demand);
  w.u32(static_cast<std::uint32_t>(changed.size()));
  for (std::size_t i = 0; i < changed.size(); ++i) {
    put_prefix(w, changed[i]);
    const std::size_t count_at = w.size();
    w.u32(0);
    std::uint32_t count = 0;
    for (const bgp::Route& route : routes[i]) {
      if (route.peer_type == bgp::PeerType::kController) continue;
      put_route(w, route);
      ++count;
    }
    w.patch_u32(count_at, count);
  }
  put_tail(w, s);
  return w.take();
}

std::optional<CycleDelta> CycleDelta::deserialize(
    std::span<const std::uint8_t> bytes) {
  net::BufReader r(bytes.data(), bytes.size());
  if (r.u16() != kCycleDeltaTag || !r.ok()) return std::nullopt;
  CycleDelta d;
  d.link.keyframe_crc = r.u32();
  d.link.index = r.u32();
  d.link.prev_when = get_time(r);
  if (!get_head(r, d.body)) return std::nullopt;
  d.body.egress = get_egress(r);
  d.body.demand = get_demand(r);
  const std::size_t changed = r.u32();
  for (std::size_t i = 0; i < changed && r.ok(); ++i) {
    d.changed.push_back(get_prefix(r));
    const std::uint32_t count = r.u32();
    d.route_counts.push_back(count);
    for (std::uint32_t k = 0; k < count && r.ok(); ++k) {
      d.body.routes.push_back(get_route(r));
      // A route filed under another prefix would break the rebuilt
      // snapshot's grouping.
      if (d.body.routes.back().prefix != d.changed.back()) r.fail();
    }
  }
  get_tail(r, d.body);
  if (!r.ok() || r.remaining() != 0 || d.link.index == 0) return std::nullopt;
  // The reader merges by prefix: both lists must be strictly ascending.
  const auto strictly_sorted = [](const auto& v, auto key) {
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (!(key(v[i - 1]) < key(v[i]))) return false;
    }
    return true;
  };
  if (!strictly_sorted(d.changed, [](const net::Prefix& p) { return p; }) ||
      !strictly_sorted(d.body.demand,
                       [](const DemandRecord& e) { return e.prefix; })) {
    return std::nullopt;
  }
  return d;
}

CycleSnapshot capture_cycle(const core::Controller::CycleRecord& record,
                            bool include_timing) {
  auto snapshot =
      CycleSnapshot::deserialize(serialize_cycle(record, include_timing));
  EF_CHECK(snapshot.has_value(), "capture_cycle: cannot decode own record");
  return std::move(*snapshot);
}

}  // namespace ef::audit
