// The simulation kernel behind the Scheduler facade.
//
// Components never touch an EventQueue directly: they schedule through a
// Scheduler, a thin facade over the kernel's one calendar queue. Every
// simulation runs on exactly one EventQueue on the thread that calls run();
// host parallelism lives one level up, across independent runs
// (`dresar-sweep --jobs=N`), where it is byte-identical and needs no
// synchronization inside a run. DESIGN.md "Threading model" records the
// measurement behind that choice.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/event_queue.h"
#include "common/stats.h"
#include "common/types.h"

namespace dresar {

/// Scheduling facade handed to every component: the clock plus absolute and
/// relative scheduling, forwarded straight to the kernel's calendar queue.
class Scheduler {
 public:
  explicit Scheduler(EventQueue& q) : q_(q) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated cycle.
  [[nodiscard]] Cycle now() const { return q_.now(); }

  /// Schedule `fn` at absolute cycle `when` (>= now()).
  template <typename F>
  void scheduleAt(Cycle when, F&& fn) {
    q_.scheduleAt(when, std::forward<F>(fn));
  }

  /// Schedule `fn` `delay` cycles from now.
  template <typename F>
  void scheduleIn(Cycle delay, F&& fn) {
    q_.scheduleAt(q_.now() + delay, std::forward<F>(fn));
  }

 private:
  EventQueue& q_;
};

/// The discrete-event kernel: owns the simulation's EventQueue, the
/// Scheduler facade over it and the StatRegistry every component counts in.
class SimKernel {
 public:
  SimKernel() = default;

  SimKernel(const SimKernel&) = delete;
  SimKernel& operator=(const SimKernel&) = delete;

  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] StatRegistry& registry() { return stats_; }
  [[nodiscard]] const StatRegistry& registry() const { return stats_; }

  /// Run until the queue drains or `limit` cycles elapse. Returns true on a
  /// drain (normal completion).
  bool run(Cycle limit = kNoCycle) { return q_.run(limit); }

  /// Run while `keepGoing` returns true (checked between events).
  bool runWhile(const std::function<bool()>& keepGoing, Cycle limit = kNoCycle) {
    return q_.runWhile(keepGoing, limit);
  }

  [[nodiscard]] Cycle now() const { return q_.now(); }
  /// Events executed so far (the events_per_sec numerator).
  [[nodiscard]] std::uint64_t executedEvents() const { return q_.executed(); }
  [[nodiscard]] std::size_t pendingEvents() const { return q_.pending(); }

 private:
  EventQueue q_;
  Scheduler sched_{q_};
  StatRegistry stats_;
};

}  // namespace dresar
