// Shared plumbing for the end-to-end efd cycle benchmark: options,
// statistics, the span recorder, the per-run scratch directory, host
// fingerprinting, the closed-loop cycle barrier and the output checks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bgp/route.h"
#include "core/allocator.h"
#include "service/efd.h"
#include "service/prd.h"
#include "telemetry/sflow_wire.h"

namespace efbench {

using namespace ef;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny-scale mode: same pipeline and checks, a few windows on a small
  /// table. The benchmark's own smoke test runs it.
  bool smoke = false;
};

/// Every barrier waits at most this long; a timeout is recorded as a
/// failed cycle and ends the measurement loop, never a hang.
inline constexpr std::chrono::milliseconds kBarrier{20000};

// --- statistics -----------------------------------------------------------

double median(std::vector<double> values);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

/// The highest percentile that still leaves at least 10 samples above it
/// (floored at the median), as the benchmark reports tails.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
};
Tail tail_with_ten_beyond(const std::vector<double>& values);

// --- spans ----------------------------------------------------------------

/// In-memory span log. One span per call into a layer: name, start, end,
/// parent span index (-1 = root) and the cycle (window) it belongs to.
/// Written out once, when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
    std::uint64_t cycle = 0;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int begin(const std::string& name, int parent, std::uint64_t cycle);
  void end(int id);
  /// Records an interval measured elsewhere.
  int add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent, std::uint64_t cycle);

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration of span `id` minus the part its direct children cover.
  double self_ms(int id) const;
  double duration_ms(int id) const;
  /// Per-cycle sums of the durations of spans called `name`.
  std::map<std::uint64_t, double> per_cycle_ms(const std::string& name) const;

  bool write_jsonl(const std::string& path) const;

 private:
  double now_us() const;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: begin on construction, end on destruction.
class Scoped {
 public:
  Scoped(SpanLog* log, const std::string& name, int parent,
         std::uint64_t cycle)
      : log_(log), id_(log ? log->begin(name, parent, cycle) : -1) {}
  ~Scoped() {
    if (log_) log_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// --- run bookkeeping --------------------------------------------------------

/// Scratch directory for one run (journal, recovery file, spans) inside
/// the checkout; removed when the run ends.
class RunDir {
 public:
  explicit RunDir(const std::string& tag);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

/// A journal path that keeps the journal off the disk: a FIFO whose
/// bytes a thread counts and discards. The daemon still captures,
/// serializes, frames and write()s every record (into a 1 MiB pipe
/// instead of the page cache), but no run leaves a file growing ~26 MB a
/// cycle, which would outgrow the disk and any file-size limit the run is
/// given (RLIMIT_FSIZE ends the process with SIGXFSZ). The draining
/// thread inherits its creator's CPUs: create it where the writer does
/// not run.
class JournalDrain {
 public:
  /// Creates the FIFO at `path` and starts draining it; ok() says
  /// whether that worked.
  explicit JournalDrain(std::string path);
  /// Stops the thread, closes both ends and removes the FIFO.
  ~JournalDrain();
  JournalDrain(const JournalDrain&) = delete;
  JournalDrain& operator=(const JournalDrain&) = delete;

  bool ok() const { return thread_.joinable(); }
  const std::string& path() const { return path_; }
  /// Bytes written into the FIFO so far (drained or still in the pipe).
  std::uint64_t bytes() const;

 private:
  void run();

  std::string path_;
  int read_fd_ = -1;
  /// A write end held open by the drain itself, so the FIFO never reads
  /// as hung up between the daemons that open and close it.
  int hold_fd_ = -1;
  std::atomic<bool> stop_{false};
  mutable std::mutex mutex_;  // guards bytes_ and the read that feeds it
  std::uint64_t bytes_ = 0;
  std::thread thread_;
};

/// Process peak resident set (VmHWM) in MiB.
double peak_rss_mb();

/// Host/build/knob fingerprint recorded next to every result.
std::map<std::string, std::string> host_fingerprint();

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything a run reports. `context` is printed on the line before the
/// result (fingerprint, scale, tail percentile, failure reasons).
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_passed = true;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> context;
  std::vector<std::string> failures;

  void fail(const std::string& why) {
    checks_passed = false;
    if (failures.size() < 20) failures.push_back(why);
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Order-independent fingerprint of an override set as a router holds
/// it: one mixed term per (prefix, NEXT_HOP, carries the override
/// LOCAL_PREF and community) triple, summed. prd's Adj-RIB-In after a
/// drain must fingerprint equal to the cycle's digest; keeping only the
/// fingerprint per cycle keeps the feeder's memory flat.
std::uint64_t held_fingerprint(const std::vector<bgp::Route>& routes,
                               std::uint32_t override_local_pref);
std::uint64_t digest_fingerprint(const std::vector<core::Override>& overrides);

/// What the closed loop measured, cycle by cycle. Index 0 of the
/// per-cycle vectors is the first measured window (the set-up cycle is
/// not included); `held[i]` fingerprints prd's Adj-RIB-In after cycle i
/// drained.
struct LoopLog {
  std::vector<double> setup_s;
  std::vector<double> cycle_ms;
  std::vector<double> prd_apply_ms;
  std::vector<double> bmp_ms;
  std::vector<double> updates;
  std::vector<double> withdraws;
  std::vector<std::uint64_t> held;
  std::vector<std::string> cycle_error;  // empty = the cycle passed
  /// Per window: thousands of records per second absorbed (records / ms).
  std::vector<double> feed_krec_s;
  std::uint64_t datagrams_sent = 0;
  double peak_rss_mb = 0;

  void add_feed(std::size_t records, double ms) {
    if (records > 0 && ms > 0) {
      feed_krec_s.push_back(static_cast<double>(records) / ms);
    }
  }
  /// Opens the record of the next measured cycle.
  void start_cycle() { cycle_error.emplace_back(); }
  void fail_cycle(std::size_t i, const std::string& why) {
    if (i < cycle_error.size() && cycle_error[i].empty()) cycle_error[i] = why;
  }
  std::size_t cycles() const { return cycle_error.size(); }
};

/// Prints the context line and then the single-line result object.
void print_report(const RunReport& report);

// --- CPU placement -------------------------------------------------------------

/// The feeder (the calling thread, the benchmark's one client) gets a CPU
/// of its own, as a client on another host would; threads started inside
/// a DaemonCpus scope inherit the other CPUs, so the feeder's spinning
/// waits never take a core from the daemons. No-op with fewer than two
/// usable CPUs.
void pin_feeder();

class DaemonCpus {
 public:
  DaemonCpus();
  ~DaemonCpus();
  DaemonCpus(const DaemonCpus&) = delete;
  DaemonCpus& operator=(const DaemonCpus&) = delete;
};

// --- daemon fixtures ---------------------------------------------------------

/// efd's robustness features, all on: failsafe ladder, audit every cycle
/// against prd's Adj-RIB-In, recovery file, journal (optional), announcer.
service::EfdConfig robust_efd_config(const core::ControllerConfig& controller,
                                     std::uint16_t prd_port,
                                     service::PeeringRouterService& prd,
                                     const std::string& journal_path,
                                     const std::string& recovery_path);

service::PeeringRouterService::Config prd_config(bgp::AsNumber local_as);

/// Polls `pred` until it holds or `timeout` passes: spinning for the
/// first two milliseconds, then in 20 µs sleeps. The daemons' own
/// wait_until helpers sleep 200 µs (efd) and 2 ms (prd) between polls,
/// which would quantize the sub-millisecond intervals this benchmark
/// times; this reads the same published counters more often.
bool poll_until(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout = kBarrier);

/// The feeder's barriers on efd's published ingest counters.
bool wait_datagrams(const service::EfdService& efd, std::uint64_t n);
bool wait_bmp_bytes(const service::EfdService& efd, std::uint64_t n);

/// Outcome of one closed-loop cycle barrier.
struct CycleWait {
  bool ok = false;
  std::string error;
  Clock::time_point cycle_done;  // cycles_run advanced
  Clock::time_point drained;     // prd received every UPDATE sent
};

/// Waits until efd has run `cycles` cycles and prd has received every
/// UPDATE the announcer sent (and the sent count stopped changing).
CycleWait await_cycle(const service::EfdService& efd,
                      const service::PeeringRouterService& prd,
                      std::uint64_t cycles);

/// Sends pre-encoded EFS1 datagrams in bounded chunks, waiting for the
/// daemon's acknowledgement after each chunk. Returns false on a barrier
/// timeout. `sent` is the running datagram total.
bool send_datagrams(const service::EfdService& efd, int fd,
                    std::uint16_t port,
                    const std::vector<std::vector<std::uint8_t>>& datagrams,
                    std::uint64_t& sent);

/// Encodes records into EFS1 datagrams of at most 64 records each (the
/// LiveFeed's batch size).
std::vector<std::vector<std::uint8_t>> encode_records(
    const std::vector<telemetry::wire::SflowRecord>& records);

std::vector<std::uint8_t> encode_marker(net::SimTime window_end,
                                        net::SimTime cycle_now);

/// The cycle's override delta relative to the previous set.
std::size_t overrides_changed(const std::vector<core::Override>& before,
                              const std::vector<core::Override>& after);

}  // namespace efbench
