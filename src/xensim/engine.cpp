#include "voprof/xensim/engine.hpp"

#include <algorithm>
#include <utility>

#include "voprof/obs/metrics.hpp"
#include "voprof/util/assert.hpp"

namespace voprof::sim {

namespace {

/// Registry references resolved once; the write paths below are
/// relaxed atomics.
/// engine.events_stale / engine.events_fired is the lazy-deletion
/// ratio: how many heap pops were cancelled corpses vs. real firings.
struct EngineMetrics {
  obs::Counter& fired;
  obs::Counter& stale;
  obs::Counter& cancelled;
  obs::Counter& ticks;
  obs::Gauge& heap_depth_max;

  static EngineMetrics& get() {
    static EngineMetrics m{
        obs::Registry::global().counter("engine.events_fired"),
        obs::Registry::global().counter("engine.events_stale"),
        obs::Registry::global().counter("engine.events_cancelled"),
        obs::Registry::global().counter("engine.ticks"),
        obs::Registry::global().gauge("engine.heap_depth_max")};
    return m;
  }
};

}  // namespace

Engine::Engine(util::SimMicros tick_period) : tick_period_(tick_period) {
  VOPROF_REQUIRE_MSG(tick_period > 0, "tick period must be positive");
}

void Engine::add_listener(TickListener* listener) {
  VOPROF_REQUIRE(listener != nullptr);
  listeners_.push_back(listener);
}

void Engine::remove_listener(TickListener* listener) noexcept {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
}

TimerId Engine::push_event(util::SimMicros at, util::SimMicros period,
                           std::function<void()> fn) {
  const TimerId id = next_id_++;
  heap_.push_back(Event{at, next_seq_++, id, period, std::move(fn)});
  sift_up(heap_.size() - 1);
  live_.insert(id);
  EngineMetrics::get().heap_depth_max.set_max(
      static_cast<double>(heap_.size()));
  return id;
}

TimerId Engine::schedule_at(util::SimMicros at, std::function<void()> fn) {
  VOPROF_REQUIRE_MSG(at >= now_, "cannot schedule an event in the past");
  return push_event(at, 0, std::move(fn));
}

TimerId Engine::schedule_after(util::SimMicros delay,
                               std::function<void()> fn) {
  VOPROF_REQUIRE(delay >= 0);
  return push_event(now_ + delay, 0, std::move(fn));
}

TimerId Engine::schedule_every(util::SimMicros period,
                               std::function<void()> fn) {
  VOPROF_REQUIRE(period > 0);
  return push_event(now_ + period, period, std::move(fn));
}

bool Engine::cancel(TimerId id) {
  // Lazy deletion: drop the id from the live set; the heap entry is
  // skipped (and its callback destroyed) when it reaches the top.
  const bool erased = live_.erase(id) > 0;
  if (erased) {
    EngineMetrics::get().cancelled.add();
  }
  return erased;
}

void Engine::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Engine::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t best = i;
    const std::size_t left = 2 * i + 1;
    const std::size_t right = left + 1;
    if (left < n && before(heap_[left], heap_[best])) best = left;
    if (right < n && before(heap_[right], heap_[best])) best = right;
    if (best == i) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

Engine::Event Engine::pop_min() {
  Event ev = std::move(heap_.front());
  heap_.front() = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return ev;
}

void Engine::fire_due_events(util::SimMicros up_to_inclusive) {
  while (!heap_.empty() && heap_.front().at <= up_to_inclusive) {
    // Move out before firing: the callback may schedule new events,
    // invalidating heap references.
    Event ev = pop_min();
    const auto it = live_.find(ev.id);
    if (it == live_.end()) {  // lazily deleted
      EngineMetrics::get().stale.add();
      continue;
    }
    EngineMetrics::get().fired.add();
    // A firing one-shot is no longer pending; a periodic stays live so
    // its callback can cancel() it.
    if (ev.period == 0) live_.erase(it);
    now_ = std::max(now_, ev.at);
    ev.fn();
    // Re-arm a periodic timer AFTER its callback ran, with a fresh
    // sequence number, so events the callback scheduled order ahead
    // of the next occurrence — exactly as a self-re-arming one-shot
    // chain would.
    if (ev.period > 0 && live_.find(ev.id) != live_.end()) {
      heap_.push_back(Event{ev.at + ev.period, next_seq_++, ev.id, ev.period,
                            std::move(ev.fn)});
      sift_up(heap_.size() - 1);
    }
  }
}

void Engine::run_until(util::SimMicros until) {
  VOPROF_REQUIRE_MSG(until >= now_, "cannot run backwards in time");
  while (now_ < until) {
    const util::SimMicros tick_end = std::min(until, now_ + tick_period_);
    const util::SimMicros tick_start = now_;
    // Events scheduled within (start, end] fire at their timestamps
    // before the tick covering the interval executes.
    fire_due_events(tick_end);
    now_ = tick_end;
    const double dt = util::to_seconds(tick_end - tick_start);
    if (dt > 0.0) {
      EngineMetrics::get().ticks.add();
      for (TickListener* l : listeners_) l->tick(now_, dt);
    }
  }
}

void Engine::run_for(util::SimMicros duration) {
  VOPROF_REQUIRE(duration >= 0);
  run_until(now_ + duration);
}

}  // namespace voprof::sim
