#include "voprof/util/task_pool.hpp"

#include <algorithm>

#include "voprof/obs/metrics.hpp"
#include "voprof/obs/trace.hpp"

namespace voprof::util {

namespace {

struct PoolMetrics {
  obs::Counter& tasks;
  obs::Counter& inline_tasks;
  obs::Counter& busy_us;
  obs::Histogram& queue_wait_ms;

  static PoolMetrics& get() {
    static PoolMetrics m{
        obs::Registry::global().counter("taskpool.tasks"),
        obs::Registry::global().counter("taskpool.tasks_inline"),
        obs::Registry::global().counter("taskpool.busy_us"),
        obs::Registry::global().histogram(
            "taskpool.queue_wait_ms",
            {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0})};
    return m;
  }
};

}  // namespace

std::size_t TaskPool::default_jobs() noexcept {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

TaskPool::TaskPool(std::size_t jobs, Threading threading)
    : jobs_(jobs == 0 ? default_jobs() : jobs) {
  if (jobs_ <= 1 && threading == Threading::kInlineWhenSerial) {
    return;  // serial path: submit() runs tasks inline
  }
  workers_.reserve(jobs_);
  for (std::size_t i = 0; i < jobs_; ++i) {
    workers_.emplace_back([this]() { worker_loop(); });
  }
}

TaskPool::~TaskPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

long long TaskPool::note_task_begin() { return obs::monotonic_us(); }

void TaskPool::note_task_end(long long begin_us, bool inline_task) {
  const long long dur_us = obs::monotonic_us() - begin_us;
  PoolMetrics::get().tasks.add();
  if (inline_task) {
    PoolMetrics::get().inline_tasks.add();
  }
  PoolMetrics::get().busy_us.add(
      static_cast<std::uint64_t>(std::max(0LL, dur_us)));
  auto& collector = obs::TraceCollector::global();
  if (collector.enabled()) {
    const std::int64_t end_rel = collector.wall_now_us();
    collector.complete_wall("taskpool", inline_task ? "task_inline" : "task",
                            end_rel - dur_us, dur_us);
  }
}

void TaskPool::enqueue(std::function<void()> job) {
  Job entry{std::move(job), obs::monotonic_us()};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(entry));
  }
  cv_.notify_one();
}

void TaskPool::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock,
               [this]() { return stopping_ || queue_head_ < queue_.size(); });
      if (queue_head_ >= queue_.size()) return;  // stopping, queue drained
      job = std::move(queue_[queue_head_]);
      ++queue_head_;
      // Reclaim the consumed prefix once it dominates the buffer.
      if (queue_head_ > 64 && queue_head_ * 2 > queue_.size()) {
        queue_.erase(queue_.begin(),
                     queue_.begin() +
                         static_cast<std::ptrdiff_t>(queue_head_));
        queue_head_ = 0;
      }
    }
    const long long t0 = note_task_begin();
    PoolMetrics::get().queue_wait_ms.observe(
        static_cast<double>(t0 - job.enqueued_us) / 1000.0);
    job.fn();  // packaged_task captures any exception into its future
    note_task_end(t0, /*inline_task=*/false);
  }
}

}  // namespace voprof::util
