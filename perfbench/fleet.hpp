#pragma once

// Process helpers for the benchmark: a forked CONGEST worker fleet over
// 127.0.0.1 TCP, child-process probes, and an alarm-driven watchdog that
// turns a hung child into a counted failure instead of a hung benchmark.
//
// Every fork happens while the benchmark process is still single-threaded
// (the coordinator side of the deck pipeline this benchmark drives —
// sequential session, seq/net engines — never starts a thread), and every
// child is reaped before the owning object goes away.

#include <sys/types.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "congest/distributed_engine.hpp"
#include "net/transport.hpp"

namespace perfbench {

/// Arms a process-wide deadline: when it fires, every registered child
/// process is SIGKILLed (their sockets close, so a coordinator blocked on
/// them sees a worker death and fails typed). With `fatal`, the process
/// also exits with status 3 — for waits that no socket close can end, such
/// as accept() on a fleet whose children died before connecting. Nests: an
/// inner Watchdog suspends the enclosing one's alarm() and re-arms what is
/// left of it when it ends.
class Watchdog {
 public:
  Watchdog(unsigned seconds, bool fatal);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  static void watch(pid_t pid);
  static void unwatch(pid_t pid);

 private:
  bool prev_fatal_ = false;
  unsigned prev_alarm_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// Waits for `pid` to exit for at most `timeout_s` seconds, SIGKILLing it
/// afterwards. Returns true when it exited on its own with status 0.
bool reap(pid_t pid, double timeout_s);

/// Runs `probe` in a forked child and returns the number it reports, or a
/// negative value when the child failed, crashed or outlived `timeout_s`.
double run_in_child(const std::function<double()>& probe, double timeout_s);

/// `workers` forked processes, each running deck::run_congest_worker over a
/// TCP connection to this process, behind a connected DistributedEngineHub.
/// Default worker and hub options unless given.
class ForkedFleet {
 public:
  ForkedFleet(int workers, const deck::WorkerOptions& wopt = {},
              const deck::DistributedHubOptions& hopt = {});
  ~ForkedFleet();
  ForkedFleet(const ForkedFleet&) = delete;
  ForkedFleet& operator=(const ForkedFleet&) = delete;

  const std::shared_ptr<deck::DistributedEngineHub>& hub() const { return hub_; }

  /// Shuts the hub down and reaps every child (SIGKILL after `timeout_s`).
  /// Returns how many children did not exit cleanly. Idempotent: later
  /// calls return the first call's count.
  int stop(double timeout_s = 10.0);

 private:
  std::vector<pid_t> pids_;
  std::vector<std::unique_ptr<deck::Transport>> links_;
  std::shared_ptr<deck::DistributedEngineHub> hub_;
  bool stopped_ = false;
  int unclean_ = 0;
};

}  // namespace perfbench
