#include "cea/exec/task_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>

#include "cea/common/check.h"
#include "cea/mem/chunk_pool.h"

namespace cea {
namespace {

// Worker identity of the current thread. tls_scheduler identifies the pool
// the thread belongs to (a worker of pool A is an outside caller for pool
// B).
thread_local TaskScheduler* tls_scheduler = nullptr;
thread_local int tls_worker_id = -1;
// Group of each enclosing task frame on this thread — plain tasks plus
// tasks executed while helping to drain inside a nested join — innermost
// last. WaitGroup needs to know how many of its own enclosing frames
// belong to the awaited group: those frames cannot finish until WaitGroup
// returns and must not be counted as pending.
thread_local std::vector<TaskGroup*> tls_group_stack;

// How long a worker that finds the queue empty polls it before parking on
// the condition variable. A stream forks and joins once per batch, and a
// parked worker needs a wake-up before it starts the next batch's task;
// the caller's round trip between two fork-joins measured p50 55–59 µs and
// p90 104–175 µs on a 4-vCPU VM, well inside the poll.
constexpr auto kIdlePoll = std::chrono::microseconds(500);

// Runs `fn` capturing any exception as a typed Status (ok = no error).
// StatusError carriers keep their code (cancellation/deadline stay
// distinguishable from generic runtime failures); memory-budget
// exhaustion maps to kResourceExhausted so callers can react (retry with
// a larger budget, enable spilling) without parsing messages; everything
// else becomes kRuntimeError.
template <typename Fn>
Status RunCatching(Fn&& fn) {
  try {
    fn();
  } catch (const StatusError& e) {
    return e.status();
  } catch (const MemoryBudgetExceeded& e) {
    return Status::ResourceExhausted(e.what());
  } catch (const std::exception& e) {
    std::string error = e.what();
    if (error.empty()) error = "task failed with an empty message";
    return Status::RuntimeError(std::move(error));
  } catch (...) {
    return Status::RuntimeError("task failed with a non-standard exception");
  }
  return Status::Ok();
}

}  // namespace

TaskGroup::~TaskGroup() {
  if (scheduler_ == nullptr) return;
  Status leftover;
  {
    std::lock_guard<std::mutex> lock(scheduler_->mutex_);
    CEA_CHECK_MSG(pending_ == 0,
                  "TaskGroup destroyed with tasks still pending");
    leftover = std::move(error_);
  }
  if (!leftover.ok()) {
    std::fprintf(stderr,
                 "TaskGroup destroyed with an unobserved task error: %s\n",
                 leftover.message().c_str());
    CEA_DCHECK(leftover.ok());
  }
}

TaskScheduler::TaskScheduler(int num_threads) {
  CEA_CHECK_MSG(num_threads >= 1, "need at least one worker");
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TaskScheduler::Submit(TaskGroup* group, Task task) {
  CEA_DCHECK(group->scheduler_ == this);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ++group->pending_;
    queue_.push_back(Item{std::move(task), group});
    queued_.store(queue_.size(), std::memory_order_relaxed);
    submitted_.fetch_add(1, std::memory_order_relaxed);
  }
  // notify_all, not notify_one: besides idle workers, callers blocked in a
  // join must wake to help drain the new work.
  cv_.notify_all();
}

void TaskScheduler::RunTask(std::unique_lock<std::mutex>& lock, Item item,
                            int worker_id) {
  executed_.fetch_add(1, std::memory_order_relaxed);
  lock.unlock();
  tls_group_stack.push_back(item.group);
  Status error = RunCatching([&] { item.fn(worker_id); });
  tls_group_stack.pop_back();
  item.fn = Task();  // release captured state (run memory) outside the lock
  lock.lock();
  if (!error.ok() && item.group->error_.ok()) {
    item.group->error_ = std::move(error);
  }
  --item.group->pending_;
  cv_.notify_all();
}

Status TaskScheduler::WaitGroup(TaskGroup* group) {
  CEA_CHECK_MSG(group != nullptr && group->scheduler_ == this,
                "WaitGroup on a group of a different scheduler");
  std::unique_lock<std::mutex> lock(mutex_);
  const bool from_worker = tls_scheduler == this;
  // Enclosing frames of this thread that belong to the awaited group: they
  // cannot finish until this WaitGroup returns, so counting them as
  // pending would deadlock (a group task joining its own group).
  size_t own = 0;
  if (from_worker) {
    for (TaskGroup* g : tls_group_stack) {
      if (g == group) ++own;
    }
  }
  for (;;) {
    // Done when every pending task of the group is an enclosing frame of a
    // WaitGroup on it — ours (`own`) or another worker's (blocked_). Such
    // frames cannot produce further work until their join returns. A
    // caller outside the pool encloses no frame: it waits for the blocked
    // frames to return too, so a nested WaitGroup() takes its own
    // subtasks' error before this one reads the group's.
    if (group->pending_ == (from_worker ? group->blocked_ + own : 0)) break;
    if (from_worker && !queue_.empty()) {
      // Help drain: run any queued task — ours or another group's — so
      // progress is guaranteed even when every worker is blocked in a
      // nested join.
      Item item = PopFront();
      helped_.fetch_add(1, std::memory_order_relaxed);
      RunTask(lock, std::move(item), tls_worker_id);
      continue;
    }
    group->blocked_ += own;
    cv_.wait(lock);
    group->blocked_ -= own;
  }
  Status error = std::move(group->error_);
  group->error_ = Status();
  return error;
}

Status TaskScheduler::ParallelFor(size_t n,
                                  std::function<void(int, size_t)> fn) {
  // The tasks reference this frame. That is safe: none of them can join
  // `group`, so WaitGroup returns only after every one has finished and
  // released its closure.
  TaskGroup group(this);
  std::atomic<size_t> cursor{0};
  std::atomic<bool> failed{false};
  const size_t tasks = std::min(static_cast<size_t>(num_threads()), n);
  for (size_t t = 0; t < tasks; ++t) {
    Submit(&group, [&](int worker_id) {
      try {
        for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
             i < n && !failed.load(std::memory_order_relaxed);
             i = cursor.fetch_add(1, std::memory_order_relaxed)) {
          fn(worker_id, i);
        }
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw;
      }
    });
  }
  return WaitGroup(&group);
}

TaskScheduler::Item TaskScheduler::PopFront() {
  Item item = std::move(queue_.front());
  queue_.pop_front();
  queued_.store(queue_.size(), std::memory_order_relaxed);
  return item;
}

void TaskScheduler::WorkerLoop(int worker_id) {
  tls_scheduler = this;
  tls_worker_id = worker_id;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (queue_.empty() && !shutdown_) {
      // Poll before parking: a task submitted within kIdlePoll starts
      // without a wake-up. Shutdown ends the poll at once.
      lock.unlock();
      const auto until = std::chrono::steady_clock::now() + kIdlePoll;
      while (queued_.load(std::memory_order_relaxed) == 0 &&
             !shutdown_.load(std::memory_order_relaxed) &&
             std::chrono::steady_clock::now() < until) {
        std::this_thread::yield();
      }
      lock.lock();
    }
    cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shutdown and fully drained
    RunTask(lock, PopFront(), worker_id);
  }
}

}  // namespace cea
