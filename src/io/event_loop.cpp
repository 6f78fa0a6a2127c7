#include "io/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/signalfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstring>

#include "net/log.h"

namespace ef::io {

namespace {

/// Upper bound on one epoll_wait batch. Bigger batches amortize the
/// syscall; the loop re-polls immediately when the batch was full.
constexpr int kMaxEvents = 64;

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  EF_CHECK(epoll_fd_ >= 0, "epoll_create1 failed: " << std::strerror(errno));
  wakeup_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  EF_CHECK(wakeup_fd_ >= 0, "eventfd failed: " << std::strerror(errno));
  watch(wakeup_fd_, kRead, [this](std::uint32_t) {
    std::uint64_t drained = 0;
    while (::read(wakeup_fd_, &drained, sizeof drained) > 0) {
    }
  });
}

EventLoop::~EventLoop() {
  if (signal_fd_ >= 0) ::close(signal_fd_);
  if (wakeup_fd_ >= 0) ::close(wakeup_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::uint32_t EventLoop::to_epoll(std::uint32_t interest) {
  std::uint32_t events = 0;
  if (interest & kRead) events |= EPOLLIN;
  if (interest & kWrite) events |= EPOLLOUT;
  if (interest & kEdge) events |= EPOLLET;
  events |= EPOLLRDHUP;  // see peer half-close without a read() probe
  return events;
}

void EventLoop::watch(int fd, std::uint32_t interest, FdHandler handler) {
  EF_CHECK(fd >= 0, "watch on negative fd");
  EF_CHECK(!handlers_.contains(fd), "fd " << fd << " already watched");
  auto state = std::make_shared<Handler>();
  state->interest = interest;
  state->fn = std::move(handler);
  ::epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  const int rc = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  EF_CHECK(rc == 0, "epoll_ctl ADD fd " << fd << ": "
                                        << std::strerror(errno));
  handlers_.emplace(fd, std::move(state));
}

void EventLoop::rearm(int fd, std::uint32_t interest) {
  auto it = handlers_.find(fd);
  EF_CHECK(it != handlers_.end(), "rearm of unwatched fd " << fd);
  if (it->second->interest == interest) return;
  it->second->interest = interest;
  ::epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  const int rc = ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  EF_CHECK(rc == 0, "epoll_ctl MOD fd " << fd << ": "
                                        << std::strerror(errno));
}

void EventLoop::unwatch(int fd) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
  it->second->alive = false;  // in-flight dispatch batch skips it
  handlers_.erase(it);
  // Removal can race a concurrently-closed fd; EBADF/ENOENT are benign.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

EventLoop::TimerId EventLoop::arm_timer(std::chrono::nanoseconds delay,
                                        std::chrono::nanoseconds period,
                                        std::function<void()> fn) {
  const TimerId id = next_timer_id_++;
  timers_.emplace(id, TimerState{std::move(fn), period});
  timer_heap_.push_back(
      Timer{std::chrono::steady_clock::now() + delay, id});
  std::push_heap(timer_heap_.begin(), timer_heap_.end(),
                 std::greater<Timer>{});
  return id;
}

EventLoop::TimerId EventLoop::call_after(std::chrono::nanoseconds delay,
                                         std::function<void()> fn) {
  return arm_timer(delay, std::chrono::nanoseconds{0}, std::move(fn));
}

EventLoop::TimerId EventLoop::call_every(std::chrono::nanoseconds period,
                                         std::function<void()> fn) {
  EF_CHECK(period.count() > 0, "periodic timer needs a positive period");
  return arm_timer(period, period, std::move(fn));
}

void EventLoop::cancel_timer(TimerId id) {
  timers_.erase(id);  // heap entry becomes a tombstone, dropped on pop
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    posted_.push_back(std::move(fn));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wakeup_fd_, &one, sizeof one);  // EAGAIN: already pending
}

void EventLoop::run_sync(std::function<void()> fn) {
  if (running_.load(std::memory_order_acquire) &&
      std::this_thread::get_id() == loop_thread_) {
    fn();
    return;
  }
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  post([&] {
    fn();
    // Notify under the lock: once it is released the waiter may return
    // and destroy `cv`, so the notify must not come after the unlock.
    std::lock_guard<std::mutex> lock(m);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done; });
}

void EventLoop::watch_signals(std::initializer_list<int> signals,
                              std::function<void(int)> handler) {
  EF_CHECK(signal_fd_ < 0, "watch_signals called twice");
  sigset_t mask;
  sigemptyset(&mask);
  for (int sig : signals) sigaddset(&mask, sig);
  signal_fd_ = ::signalfd(-1, &mask, SFD_CLOEXEC | SFD_NONBLOCK);
  EF_CHECK(signal_fd_ >= 0, "signalfd failed: " << std::strerror(errno));
  signal_handler_ = std::move(handler);
  watch(signal_fd_, kRead, [this](std::uint32_t) {
    ::signalfd_siginfo info;
    while (::read(signal_fd_, &info, sizeof info) ==
           static_cast<ssize_t>(sizeof info)) {
      if (signal_handler_) signal_handler_(static_cast<int>(info.ssi_signo));
    }
  });
}

int EventLoop::next_timer_timeout_ms(std::chrono::milliseconds cap) const {
  if (timer_heap_.empty()) return static_cast<int>(cap.count());
  const auto now = std::chrono::steady_clock::now();
  const auto until = timer_heap_.front().deadline - now;
  if (until.count() <= 0) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(until).count() + 1;
  return static_cast<int>(std::min<long long>(ms, cap.count()));
}

std::size_t EventLoop::run_due_timers() {
  std::size_t fired = 0;
  const auto now = std::chrono::steady_clock::now();
  while (!timer_heap_.empty() && timer_heap_.front().deadline <= now) {
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(),
                  std::greater<Timer>{});
    const Timer due = timer_heap_.back();
    timer_heap_.pop_back();
    auto it = timers_.find(due.id);
    if (it == timers_.end()) continue;  // cancelled tombstone
    if (it->second.period.count() > 0) {
      // Fixed schedule: the next deadline advances from the *previous*
      // deadline, so a slow callback does not drift the period.
      timer_heap_.push_back(Timer{due.deadline + it->second.period, due.id});
      std::push_heap(timer_heap_.begin(), timer_heap_.end(),
                     std::greater<Timer>{});
      it->second.fn();
    } else {
      auto fn = std::move(it->second.fn);
      timers_.erase(it);
      fn();
    }
    ++fired;
    ++stats_.timer_fires;
  }
  return fired;
}

std::size_t EventLoop::drain_posted() {
  std::deque<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) {
    fn();
    ++stats_.posts_run;
  }
  return batch.size();
}

std::size_t EventLoop::poll_once(std::chrono::milliseconds timeout) {
  ++stats_.iterations;
  ::epoll_event events[kMaxEvents];
  const int timeout_ms = next_timer_timeout_ms(timeout);
  int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
  if (n < 0) {
    EF_CHECK(errno == EINTR, "epoll_wait: " << std::strerror(errno));
    n = 0;
  }
  std::size_t dispatched = 0;
  for (int i = 0; i < n; ++i) {
    auto it = handlers_.find(events[i].data.fd);
    if (it == handlers_.end()) continue;
    // Hold a reference: the handler may unwatch (and erase) itself.
    const std::shared_ptr<Handler> handler = it->second;
    if (!handler->alive) continue;
    std::uint32_t ready = 0;
    if (events[i].events & EPOLLIN) ready |= kRead;
    if (events[i].events & EPOLLOUT) ready |= kWrite;
    if (events[i].events & EPOLLERR) ready |= kError;
    if (events[i].events & (EPOLLHUP | EPOLLRDHUP)) ready |= kHangup;
    handler->fn(ready);
    ++dispatched;
    ++stats_.fd_dispatches;
  }
  dispatched += drain_posted();
  dispatched += run_due_timers();
  return dispatched;
}

void EventLoop::run() {
  loop_thread_ = std::this_thread::get_id();
  running_.store(true, std::memory_order_release);
  while (!stop_.load(std::memory_order_acquire)) {
    poll_once(std::chrono::milliseconds(200));
  }
  running_.store(false, std::memory_order_release);
  stop_.store(false, std::memory_order_release);  // allow re-run
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_release);
  post([] {});  // wake the loop if it is parked in epoll_wait
}

}  // namespace ef::io
