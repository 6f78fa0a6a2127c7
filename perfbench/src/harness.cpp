#include "harness.h"

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <poll.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bgp/types.h"

namespace efbench {

namespace fs = std::filesystem;

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Tail tail_with_ten_beyond(const std::vector<double>& values) {
  Tail tail;
  if (values.empty()) return tail;
  // Highest p with at least ten samples strictly above the p-th rank.
  const double n = static_cast<double>(values.size());
  double p = values.size() > 10 ? 100.0 * (n - 10.0) / n : 50.0;
  p = std::max(50.0, std::floor(p));
  tail.percentile = p;
  tail.value = percentile(values, p);
  return tail;
}

// --- SpanLog ------------------------------------------------------------

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int SpanLog::begin(const std::string& name, int parent, std::uint64_t cycle) {
  spans_.push_back(Span{name, now_us(), 0.0, parent, cycle});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
}

int SpanLog::add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, int parent, std::uint64_t cycle) {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  spans_.push_back(Span{name, us(start), us(end), parent, cycle});
  return static_cast<int>(spans_.size() - 1);
}

double SpanLog::duration_ms(int id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  return (span.end_us - span.start_us) / 1000.0;
}

double SpanLog::self_ms(int id) const {
  double children = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == id) children += span.end_us - span.start_us;
  }
  return duration_ms(id) - children / 1000.0;
}

std::map<std::uint64_t, double> SpanLog::per_cycle_ms(
    const std::string& name) const {
  std::map<std::uint64_t, double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out[span.cycle] += (span.end_us - span.start_us) / 1000.0;
    }
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"parent\":%d,\"cycle\":%llu}\n",
                  i, s.name.c_str(), s.start_us, s.end_us, s.parent,
                  static_cast<unsigned long long>(s.cycle));
    out << line;
  }
  return static_cast<bool>(out);
}

// --- RunDir -----------------------------------------------------------------

RunDir::RunDir(const std::string& tag) {
  const fs::path base = fs::current_path() / ".bench_build" / "runs";
  fs::create_directories(base);
  // A run that was killed left its directory behind: reclaim
  // directories whose process is gone.
  for (const auto& entry : fs::directory_iterator(base)) {
    const std::string name = entry.path().filename().string();
    const auto dash = name.rfind('-');
    if (dash == std::string::npos) continue;
    const long pid = std::strtol(name.c_str() + dash + 1, nullptr, 10);
    if (pid > 0 && ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
      std::error_code ec;
      fs::remove_all(entry.path(), ec);
    }
  }
  path_ = (base / (tag + "-" + std::to_string(::getpid()))).string();
  fs::remove_all(path_);
  fs::create_directories(path_);
}

RunDir::~RunDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

// --- JournalDrain -------------------------------------------------------------

JournalDrain::JournalDrain(std::string path) : path_(std::move(path)) {
  std::remove(path_.c_str());
  if (::mkfifo(path_.c_str(), 0600) != 0) return;
  // Open the read end first (non-blocking opens of it never wait), then
  // a write end of our own, which succeeds because a reader exists.
  read_fd_ = ::open(path_.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (read_fd_ < 0) return;
  hold_fd_ = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK | O_CLOEXEC);
  if (hold_fd_ < 0) return;
  ::fcntl(read_fd_, F_SETPIPE_SZ, 1 << 20);  // best effort
  thread_ = std::thread([this] { run(); });
}

JournalDrain::~JournalDrain() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (hold_fd_ >= 0) ::close(hold_fd_);
  if (read_fd_ >= 0) ::close(read_fd_);
  std::remove(path_.c_str());
}

void JournalDrain::run() {
  std::vector<char> buffer(1 << 20);
  pollfd pfd{read_fd_, POLLIN, 0};
  while (!stop_.load(std::memory_order_acquire)) {
    if (::poll(&pfd, 1, 20) <= 0) continue;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (;;) {
      const ssize_t n = ::read(read_fd_, buffer.data(), buffer.size());
      if (n <= 0) break;
      bytes_ += static_cast<std::uint64_t>(n);
    }
  }
}

std::uint64_t JournalDrain::bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  int pending = 0;
  if (read_fd_ < 0 || ::ioctl(read_fd_, FIONREAD, &pending) != 0) pending = 0;
  return bytes_ + static_cast<std::uint64_t>(pending);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::map<std::string, std::string> host_fingerprint() {
  std::map<std::string, std::string> out;
  out["nproc"] = std::to_string(std::thread::hardware_concurrency());
  out["nproc_online"] = std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) out["cpu"] = line.substr(colon + 2);
      break;
    }
  }
  struct utsname uts {};
  if (::uname(&uts) == 0) {
    out["kernel"] = std::string(uts.sysname) + " " + uts.release;
  }
  out["compiler"] = std::string("gcc ") + __VERSION__;
  out["build_type"] = EF_BENCH_BUILD_TYPE;
#ifdef NDEBUG
  out["ndebug"] = "1";
#else
  out["ndebug"] = "0";
#endif
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

void print_report(const RunReport& report) {
  std::ostringstream ctx;
  ctx << "{\"context\":{";
  bool first = true;
  for (const auto& [key, value] : report.context) {
    ctx << (first ? "" : ",") << '"' << json_escape(key) << "\":\""
        << json_escape(value) << '"';
    first = false;
  }
  ctx << "},\"failures\":[";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    ctx << (i ? "," : "") << '"' << json_escape(report.failures[i]) << '"';
  }
  ctx << "]}";
  std::printf("%s\n", ctx.str().c_str());

  const bool correct = report.checks_passed && report.failed == 0;
  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed << ",\"metrics\":{";
  first = true;
  for (const auto& [name, metric] : report.metrics) {
    out << (first ? "" : ",") << '"' << name << "\":{\"value\":"
        << number(metric.value) << ",\"unit\":\"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

// --- CPU placement -------------------------------------------------------------

namespace {

struct CpuSplit {
  bool enabled = false;
  cpu_set_t feeder;
  cpu_set_t daemons;
};

const CpuSplit& cpu_split() {
  static const CpuSplit split = [] {
    CpuSplit s;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
        CPU_COUNT(&allowed) < 2) {
      return s;
    }
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) last = cpu;
    }
    CPU_ZERO(&s.feeder);
    CPU_SET(last, &s.feeder);
    s.daemons = allowed;
    CPU_CLR(last, &s.daemons);
    s.enabled = true;
    return s;
  }();
  return split;
}

void set_affinity(const cpu_set_t& set) {
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

}  // namespace

void pin_feeder() {
  if (cpu_split().enabled) set_affinity(cpu_split().feeder);
}

DaemonCpus::DaemonCpus() {
  if (cpu_split().enabled) set_affinity(cpu_split().daemons);
}

DaemonCpus::~DaemonCpus() { pin_feeder(); }

// --- daemon fixtures ----------------------------------------------------------

service::PeeringRouterService::Config prd_config(bgp::AsNumber local_as) {
  service::PeeringRouterService::Config config;
  config.local_as = local_as;
  config.hold_time_secs = 90;
  config.tick_period = std::chrono::milliseconds(200);
  return config;
}

service::EfdConfig robust_efd_config(const core::ControllerConfig& controller,
                                     std::uint16_t prd_port,
                                     service::PeeringRouterService& prd,
                                     const std::string& journal_path,
                                     const std::string& recovery_path) {
  service::EfdConfig config;
  config.controller = controller;
  // The announcer carries enforcement over TCP to prd; in-process
  // injection is off.
  config.controller.enforcement = core::Enforcement::kShadow;
  config.failsafe.enabled = true;
  config.journal_path = journal_path;
  config.announce_ports = {prd_port};
  config.audit.enabled = true;
  config.audit.interval_cycles = 1;
  config.audit_read_back = [&prd] { return prd.routes(); };
  config.recovery_path = recovery_path;
  return config;
}

bool poll_until(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout) {
  const auto start = Clock::now();
  const auto spin_until = start + std::chrono::milliseconds(2);
  const auto deadline = start + timeout;
  for (;;) {
    if (pred()) return true;
    const auto now = Clock::now();
    if (now >= deadline) return false;
    if (now < spin_until) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
}

bool wait_datagrams(const service::EfdService& efd, std::uint64_t n) {
  return poll_until([&] { return efd.ingest().sflow_datagrams >= n; });
}

bool wait_bmp_bytes(const service::EfdService& efd, std::uint64_t n) {
  return poll_until([&] { return efd.ingest().bmp_bytes >= n; });
}

CycleWait await_cycle(const service::EfdService& efd,
                      const service::PeeringRouterService& prd,
                      std::uint64_t cycles) {
  CycleWait out;
  if (!poll_until([&] { return efd.ingest().cycles_run >= cycles; })) {
    out.error = "cycle barrier timed out";
    return out;
  }
  out.cycle_done = Clock::now();
  const service::Announcer* announcer = efd.announcer();
  if (announcer == nullptr) {
    out.error = "no announcer";
    return out;
  }
  for (int round = 0; round < 100; ++round) {
    const std::uint64_t sent = announcer->updates_sent_to(0);
    if (!poll_until(
            [&] { return prd.snapshot().updates_received >= sent; })) {
      out.error = "prd drain barrier timed out";
      return out;
    }
    if (announcer->updates_sent_to(0) == sent) {
      out.drained = Clock::now();
      out.ok = true;
      return out;
    }
  }
  out.error = "announcer kept sending";
  return out;
}

namespace {

std::uint64_t mix(std::uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t held_term(const net::Prefix& prefix, const net::IpAddr& next_hop,
                        bool override_attrs) {
  return mix(std::hash<net::Prefix>{}(prefix) ^
             mix(std::hash<net::IpAddr>{}(next_hop) + (override_attrs ? 1 : 0)));
}

}  // namespace

std::uint64_t held_fingerprint(const std::vector<bgp::Route>& routes,
                               std::uint32_t override_local_pref) {
  std::uint64_t sum = routes.size();
  for (const bgp::Route& route : routes) {
    sum += held_term(route.prefix, route.attrs.next_hop,
                     route.attrs.local_pref.value() == override_local_pref &&
                         route.attrs.has_community(core::kOverrideCommunity));
  }
  return sum;
}

std::uint64_t digest_fingerprint(
    const std::vector<core::Override>& overrides) {
  std::uint64_t sum = overrides.size();
  for (const core::Override& entry : overrides) {
    sum += held_term(entry.prefix, entry.next_hop, true);
  }
  return sum;
}

bool send_datagrams(const service::EfdService& efd, int fd,
                    std::uint16_t port,
                    const std::vector<std::vector<std::uint8_t>>& datagrams,
                    std::uint64_t& sent) {
  // Bounded in-flight window so the loopback receive buffer never
  // overflows: a dropped datagram would skew the daemon's demand.
  constexpr std::size_t kWindow = 32;
  std::size_t since_ack = 0;
  for (const std::vector<std::uint8_t>& datagram : datagrams) {
    if (!io::UdpSocket::send_to(fd, port, datagram)) return false;
    ++sent;
    if (++since_ack == kWindow) {
      if (!wait_datagrams(efd, sent)) return false;
      since_ack = 0;
    }
  }
  return wait_datagrams(efd, sent);
}

std::vector<std::vector<std::uint8_t>> encode_records(
    const std::vector<telemetry::wire::SflowRecord>& records) {
  constexpr std::size_t per_datagram = 64;
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t i = 0; i < records.size(); i += per_datagram) {
    const std::size_t n = std::min(per_datagram, records.size() - i);
    out.push_back(telemetry::wire::encode_datagram(
        std::span<const telemetry::wire::SflowRecord>(records.data() + i, n)));
  }
  return out;
}

std::vector<std::uint8_t> encode_marker(net::SimTime window_end,
                                        net::SimTime cycle_now) {
  const telemetry::wire::SflowRecord marker(
      telemetry::wire::WindowClose{window_end, cycle_now});
  return telemetry::wire::encode_datagram(
      std::span<const telemetry::wire::SflowRecord>(&marker, 1));
}

std::size_t overrides_changed(const std::vector<core::Override>& before,
                              const std::vector<core::Override>& after) {
  std::map<net::Prefix, const core::Override*> old_set;
  for (const core::Override& o : before) old_set.emplace(o.prefix, &o);
  std::size_t changed = 0;
  for (const core::Override& o : after) {
    const auto it = old_set.find(o.prefix);
    if (it == old_set.end()) {
      ++changed;
    } else {
      if (!(it->second->next_hop == o.next_hop)) ++changed;
      old_set.erase(it);
    }
  }
  return changed + old_set.size();
}

}  // namespace efbench
