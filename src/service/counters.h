// Counter tables: every cross-thread counter named exactly once.
//
// A component that publishes counters to other threads lists them as an
// X-macro table, one row per counter:
//
//   #define EF_FOO_COUNTERS(X) X(field, "metric_name", "help text") ...
//
// and expands that one list into everything else a counter needs: the
// plain fields of its snapshot struct
// (EF_COUNTER_FIELD), an index enum ending in kCount (EF_COUNTER_ID),
// and a constexpr CounterRow array tying each snapshot field to its
// exported name and help text. Counters<Id> is the matching atomic
// storage, and load() fills a snapshot from it in one loop over the rows.
//
// Ordering is uniform: every write publishes with release and every read
// acquires. A reader that observes a counter's new value therefore also
// observes every owner-thread state change made before the write — the
// contract the feeder barriers (EfdService::wait_until) rely on. Rows may
// carry extra columns after the field (the first argument is always the
// field name), hence the variadic helpers.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>

#define EF_COUNTER_FIELD(field, ...) std::uint64_t field = 0;
#define EF_COUNTER_ID(field, ...) field,

namespace ef::service {

/// One row of a counter table: which snapshot field is exported under
/// which metric name.
template <typename Snapshot>
struct CounterRow {
  std::uint64_t Snapshot::*field;
  std::string_view metric;
  std::string_view help;
};

/// Atomic storage for one counter table, indexed by its EF_COUNTER_ID
/// enum. Writers are the owning (loop) thread; readers are anywhere.
template <typename Id>
class Counters {
 public:
  void add(Id id, std::uint64_t n = 1) {
    at(id).fetch_add(n, std::memory_order_release);
  }
  void set(Id id, std::uint64_t value) {
    at(id).store(value, std::memory_order_release);
  }

  /// Fills each row's field of `snap` from the counter at the row's
  /// index, so `rows` must list the table in enum order.
  template <typename Snapshot>
  void load(Snapshot& snap,
            std::type_identity_t<std::span<const CounterRow<Snapshot>>> rows)
      const {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      snap.*rows[i].field = values_[i].load(std::memory_order_acquire);
    }
  }

 private:
  std::atomic<std::uint64_t>& at(Id id) {
    return values_[static_cast<std::size_t>(id)];
  }

  std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(Id::kCount)>
      values_{};
};

}  // namespace ef::service
