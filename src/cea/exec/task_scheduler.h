// Task scheduler for the operator's two axes of parallelism (Section 3.2).
//
// The algorithm parallelizes (a) the loop over the input runs of a bucket
// — via shared atomic morsel cursors so idle threads can steal parts of a
// large bucket — and (b) the recursive calls on different buckets — via
// independent tasks. Threads share no data structures on the processing
// path; the scheduler only hands out work items, so synchronization is
// restricted to run management between passes, exactly as the paper
// requires.
//
// Recursion never blocks: a pass that finishes schedules its continuation
// (the child buckets) instead of waiting on them, and the initiating
// thread joins its group only once. This keeps every pool thread running
// morsels rather than parked on join barriers.
//
// Task groups: every task runs in a TaskGroup, which keeps the group's
// completion accounting and first error. Several independent queries can
// share one pool, each with its own group: WaitGroup(&g) blocks only until
// g's tasks finished and returns only g's error, so one query's join never
// absorbs another query's failure or tasks. Submit(task) and Wait() use
// the pool's own group, and each ParallelFor call uses a group of its own.
//
// Error propagation: a task that throws does not terminate the process.
// The worker catches the exception, records the group's first error as a
// Status (a StatusError carrier keeps its typed code — cancellation and
// deadline failures stay distinguishable), and keeps the group's
// accounting correct, so its join returns the error instead of hanging.
//
// Nesting: Wait(), WaitGroup() and ParallelFor may be called from inside a
// running task. A blocked worker-side caller helps drain the queue instead
// of parking (possibly running other groups' tasks), so a bucket task that
// fans out sub-tasks and joins them cannot deadlock the pool — even with a
// single worker thread.
//
// Idle workers poll before they park: a worker that finds the queue empty
// watches an atomic mirror of its length for up to 500 µs, yielding
// between checks, and only then waits on the condition variable. A
// streaming operator forks and joins once per batch, and a parked worker
// would start each batch's task a wake-up late. Shutdown ends the poll at
// once.

#ifndef CEA_EXEC_TASK_SCHEDULER_H_
#define CEA_EXEC_TASK_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "cea/common/status.h"

namespace cea {

class TaskScheduler;

// Completion/error bookkeeping for one logical stream of tasks (one query,
// one ParallelFor call, or the pool's own Submit(task)/Wait()) on a
// shared TaskScheduler. All state is guarded by the scheduler's
// mutex; the group itself is just the slot the scheduler writes into. The
// scheduler must outlive the group; destroying a group with tasks still
// pending is a caller bug (CEA_CHECKed), and an error nobody collected via
// WaitGroup() is logged at destruction instead of vanishing.
class TaskGroup {
 public:
  explicit TaskGroup(TaskScheduler* scheduler) : scheduler_(scheduler) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

 private:
  friend class TaskScheduler;
  TaskScheduler* scheduler_;
  size_t pending_ = 0;  // queued + running tasks, guarded by sched mutex_
  size_t blocked_ = 0;  // enclosing-frame count of workers blocked in
                        // WaitGroup() on this group, guarded by sched mutex_
  Status error_;        // first error since the last WaitGroup()
};

class TaskScheduler {
 public:
  // A task receives the id of the worker executing it ([0, num_threads)),
  // which indexes per-thread contexts (hash tables, SWC buffers, run sets).
  // A task that throws is caught by the scheduler; the first error is
  // reported by the next WaitGroup() on the task's group.
  using Task = std::function<void(int worker_id)>;

  explicit TaskScheduler(int num_threads);

  // Drains the queue (all queued tasks still run, including tasks they
  // submit transitively) and joins the workers. An error of the pool's
  // own group left unobserved since the last Wait() — or raised by a task
  // during the drain — cannot reach a caller anymore: the group's
  // destructor logs it to stderr and trips a CEA_DCHECK in debug builds.
  // Call Wait() first to observe it properly.
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  // Enqueues a task under the pool's own group, which Wait() joins. May
  // be called from worker threads (recursive scheduling of child buckets)
  // or from outside the pool.
  void Submit(Task task) { Submit(&pool_group_, std::move(task)); }

  // Enqueues a task under `group`, a group of this scheduler. The group
  // must stay valid until the task finished.
  void Submit(TaskGroup* group, Task task);

  // WaitGroup() on the pool's own group: blocks until every task submitted
  // by Submit(task) — including such tasks submitted by running tasks —
  // has finished, then returns their first error since the previous
  // Wait() (and clears it). Tasks of other groups are not waited on.
  Status Wait() { return WaitGroup(&pool_group_); }

  // Blocks until every task submitted under `group` has finished, then
  // returns the group's first error since the previous WaitGroup() (and
  // clears it). Other groups' tasks are not waited on and their errors are
  // never returned here. Callable from inside a task: the caller helps
  // drain the queue — any queued task, not just the group's — while it
  // waits, and group tasks that are themselves blocked in WaitGroup() on
  // this group do not count as pending (two tasks waiting on each other
  // would otherwise deadlock). A caller outside the pool also waits for
  // those, so each nested WaitGroup() has taken its own subtasks' error
  // first.
  Status WaitGroup(TaskGroup* group);

  // Runs fn(worker_id, index) for every index in [0, n), distributing
  // indices over the pool via an atomic cursor, and blocks until all
  // indices ran. The call's tasks run in a group of its own: it returns
  // the first error fn raised in this call (further indices are skipped
  // once an error occurred), and no other join sees that error. Callable
  // from inside a task: the caller helps drain the queue, so nested
  // ParallelFor cannot deadlock.
  Status ParallelFor(size_t n, std::function<void(int, size_t)> fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Monotonic pool telemetry (relaxed atomics; snapshot and subtract for
  // per-execution deltas). `helped` counts tasks executed by a thread
  // blocked in a join draining the queue instead of parking — the pool's
  // work-stealing signal.
  struct Stats {
    uint64_t submitted = 0;
    uint64_t executed = 0;
    uint64_t helped = 0;
  };
  Stats GetStats() const {
    Stats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.executed = executed_.load(std::memory_order_relaxed);
    s.helped = helped_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  friend class TaskGroup;

  // One queue entry: the task plus the group whose accounting it updates.
  struct Item {
    Task fn;
    TaskGroup* group;
  };

  void WorkerLoop(int worker_id);
  // Pops the queue's head; mutex_ must be held.
  Item PopFront();
  // Pops nothing itself: runs `item.fn` with mutex_ released (catching and
  // recording errors into the item's group), then re-acquires mutex_,
  // decrements the group's pending count and wakes waiters. `lock` must be
  // held on entry and is held on exit.
  void RunTask(std::unique_lock<std::mutex>& lock, Item item, int worker_id);

  std::mutex mutex_;
  std::condition_variable cv_;  // queue activity and task completion
  std::deque<Item> queue_;
  // queue_.size(), stored under mutex_ and polled without it by idle
  // workers before they park.
  std::atomic<size_t> queued_{0};
  std::atomic<bool> shutdown_{false};  // written under mutex_
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> helped_{0};
  // The group of Submit(task) and Wait(). Declared after mutex_, which its
  // destructor takes, and destroyed after the workers are joined.
  TaskGroup pool_group_{this};
  std::vector<std::thread> workers_;
};

}  // namespace cea

#endif  // CEA_EXEC_TASK_SCHEDULER_H_
