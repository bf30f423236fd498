#ifndef SETM_EXEC_WORKER_POOL_H_
#define SETM_EXEC_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace setm {

/// A fixed set of worker threads draining a FIFO task queue — the shared
/// execution resource behind threaded SETM mines (the shard coordinator's
/// fan-out and merge) and parallel sort-run generation. Tasks are plain closures; completion tracking and
/// error collection live in TaskGroup so independent clients can share one
/// pool without observing each other's tasks.
///
///     WorkerPool pool(4);
///     TaskGroup group(&pool);
///     for (auto& part : partitions)
///       group.Submit([&part] { return Process(&part); });
///     SETM_RETURN_IF_ERROR(group.Wait());
class WorkerPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit WorkerPool(size_t num_threads);

  /// Drains outstanding tasks, then joins the workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues one task. Never blocks; tasks run in FIFO order across the
  /// workers. Do not Submit from inside a task and then block the task on
  /// its completion — with every worker blocked the queue cannot drain.
  void Submit(std::function<void()> task);

  /// Number of worker threads.
  size_t num_threads() const { return threads_.size(); }

 private:
  /// A queued task remembers when it was submitted so the worker that
  /// dequeues it can report the queue wait.
  struct QueuedTask {
    std::function<void()> fn;
    WallTimer enqueued;
  };

  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<QueuedTask> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> threads_;

  // Process-wide series shared by all pools (resolved at construction):
  // live queue depth plus queue-wait and run-time distributions.
  obs::Gauge* metric_queue_depth_;
  obs::Histogram* metric_queue_wait_micros_;
  obs::Histogram* metric_task_micros_;
};

/// Tracks completion of one batch of Status-returning tasks on a WorkerPool.
/// Wait() blocks until every task submitted through this group finished and
/// returns the first non-OK status (submission order is not guaranteed to
/// pick "the first" failure deterministically, any failure is reported).
/// With a null pool the group degrades to inline execution — callers write
/// one code path and the serial case stays thread-free.
class TaskGroup {
 public:
  /// `pool` may be null (tasks then run inline inside Submit).
  explicit TaskGroup(WorkerPool* pool) : pool_(pool) {}

  /// Groups must be drained before destruction.
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules `task`; its Status is collected for Wait().
  void Submit(std::function<Status()> task);

  /// Blocks until all submitted tasks completed; returns the recorded error
  /// (OK when every task succeeded). May be called repeatedly.
  Status Wait();

 private:
  void Record(Status s);

  WorkerPool* pool_;
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t pending_ = 0;
  Status first_error_;
};

}  // namespace setm

#endif  // SETM_EXEC_WORKER_POOL_H_
