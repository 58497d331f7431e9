#include "fleet.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

// Signal-handler state: a fixed table of live children plus the fatal flag.
constexpr int kMaxWatched = 64;
volatile pid_t g_watched[kMaxWatched] = {};
volatile std::sig_atomic_t g_fatal = 0;

void on_alarm(int) {
  for (int i = 0; i < kMaxWatched; ++i)
    if (g_watched[i] > 0) ::kill(g_watched[i], SIGKILL);
  if (g_fatal != 0) {
    static const char msg[] = "perfbench: watchdog deadline passed, children killed\n";
    [[maybe_unused]] const ssize_t w = ::write(2, msg, sizeof msg - 1);
    ::_exit(3);
  }
}

}  // namespace

Watchdog::Watchdog(unsigned seconds, bool fatal)
    : prev_fatal_(g_fatal != 0), prev_alarm_(::alarm(0)), start_(std::chrono::steady_clock::now()) {
  struct sigaction sa {};
  sa.sa_handler = on_alarm;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGALRM, &sa, nullptr);
  g_fatal = fatal ? 1 : 0;
  ::alarm(seconds);
}

Watchdog::~Watchdog() {
  ::alarm(0);
  g_fatal = prev_fatal_ ? 1 : 0;
  if (prev_alarm_ > 0) {  // re-arm what is left of the enclosing deadline
    const auto spent = static_cast<unsigned>(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count());
    ::alarm(prev_alarm_ > spent ? prev_alarm_ - spent : 1);
  }
}

void Watchdog::watch(pid_t pid) {
  for (int i = 0; i < kMaxWatched; ++i)
    if (g_watched[i] <= 0) {
      g_watched[i] = pid;
      return;
    }
  throw std::runtime_error("perfbench: too many watched children");
}

void Watchdog::unwatch(pid_t pid) {
  for (int i = 0; i < kMaxWatched; ++i)
    if (g_watched[i] == pid) g_watched[i] = 0;
}

bool reap(pid_t pid, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) break;
    if (r < 0) {
      Watchdog::unwatch(pid);
      return false;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      Watchdog::unwatch(pid);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Watchdog::unwatch(pid);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double run_in_child(const std::function<double()>& probe, double timeout_s) {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    ::close(fds[0]);
    for (int i = 0; i < kMaxWatched; ++i) g_watched[i] = 0;  // the parent's children
    double v = -1;
    try {
      v = probe();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: probe child: %s\n", e.what());
    }
    const ssize_t w = ::write(fds[1], &v, sizeof v);
    ::_exit(w == static_cast<ssize_t>(sizeof v) && v >= 0 ? 0 : 1);
  }
  Watchdog::watch(pid);
  ::close(fds[1]);
  const bool ok = reap(pid, timeout_s);
  double v = -1;
  const ssize_t r = ::read(fds[0], &v, sizeof v);
  ::close(fds[0]);
  return ok && r == static_cast<ssize_t>(sizeof v) ? v : -1;
}

ForkedFleet::ForkedFleet(int workers, const deck::WorkerOptions& wopt,
                         const deck::DistributedHubOptions& hopt) {
  deck::TcpListener listener;
  std::fflush(nullptr);
  for (int w = 0; w < workers; ++w) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      stop(1.0);
      throw std::runtime_error(std::string("perfbench: fork failed: ") + std::strerror(errno));
    }
    if (pid == 0) {
      try {
        const std::unique_ptr<deck::Transport> t = deck::tcp_connect("127.0.0.1", listener.port());
        deck::run_congest_worker(*t, wopt);
        ::_exit(0);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: congest worker %d: %s\n", w, e.what());
        ::_exit(1);
      }
    }
    pids_.push_back(pid);
    Watchdog::watch(pid);
  }
  // A child that dies before connecting would leave accept() waiting
  // forever; the fatal watchdog bounds that wait.
  Watchdog guard(60, /*fatal=*/true);
  std::vector<deck::Transport*> raw;
  for (int w = 0; w < workers; ++w) {
    links_.push_back(listener.accept());
    raw.push_back(links_.back().get());
  }
  hub_ = deck::make_distributed_hub(raw, hopt);
}

ForkedFleet::~ForkedFleet() { stop(); }

int ForkedFleet::stop(double timeout_s) {
  if (stopped_) return unclean_;
  stopped_ = true;
  if (hub_) {
    try {
      hub_->shutdown();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: fleet shutdown: %s\n", e.what());
      ++unclean_;
    }
  }
  for (const pid_t pid : pids_)
    if (!reap(pid, timeout_s)) ++unclean_;
  return unclean_;
}

}  // namespace perfbench
