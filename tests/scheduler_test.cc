// Unit tests for the task scheduler.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cea/exec/task_scheduler.h"

namespace cea {
namespace {

TEST(Scheduler, RunsSubmittedTasks) {
  TaskScheduler pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count](int) { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(Scheduler, WaitOnIdlePoolReturnsImmediately) {
  TaskScheduler pool(2);
  pool.Wait();
  SUCCEED();
}

TEST(Scheduler, WorkerIdsAreInRange) {
  TaskScheduler pool(3);
  std::atomic<bool> bad{false};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&bad](int wid) {
      if (wid < 0 || wid >= 3) bad.store(true);
    });
  }
  pool.Wait();
  EXPECT_FALSE(bad.load());
}

TEST(Scheduler, TasksCanSubmitTasks) {
  // Wait() must cover transitively submitted work (the recursion of the
  // operator relies on this).
  TaskScheduler pool(4);
  std::atomic<int> leaves{0};
  std::function<void(int)> spawn = [&](int depth) {
    if (depth == 0) {
      leaves.fetch_add(1);
      return;
    }
    for (int c = 0; c < 3; ++c) {
      pool.Submit([&spawn, depth](int) { spawn(depth - 1); });
    }
  };
  pool.Submit([&spawn](int) { spawn(4); });
  pool.Wait();
  EXPECT_EQ(leaves.load(), 81);  // 3^4
}

TEST(Scheduler, ParallelForCoversAllIndices) {
  TaskScheduler pool(4);
  const size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(n, [&](int, size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Scheduler, ParallelForZeroIsNoop) {
  TaskScheduler pool(2);
  pool.ParallelFor(0, [](int, size_t) { FAIL(); });
}

TEST(Scheduler, ParallelForSingleIndex) {
  TaskScheduler pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(1, [&](int, size_t i) {
    EXPECT_EQ(i, 0u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(Scheduler, SingleThreadPoolWorks) {
  TaskScheduler pool(1);
  std::atomic<int> count{0};
  pool.ParallelFor(100, [&](int wid, size_t) {
    EXPECT_EQ(wid, 0);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(Scheduler, SequentialBatchesReuseWorkers) {
  TaskScheduler pool(4);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count](int) { count.fetch_add(1); });
    }
    pool.Wait();
    ASSERT_EQ(count.load(), 50);
  }
}

TEST(Scheduler, DestructorDrainsCleanly) {
  std::atomic<int> count{0};
  {
    TaskScheduler pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count](int) { count.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(count.load(), 10);
}

TEST(Scheduler, ThrowingTaskPropagatesStatus) {
  TaskScheduler pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count, i](int) {
      if (i == 37) throw std::runtime_error("task 37 exploded");
      count.fetch_add(1);
    });
  }
  Status s = pool.Wait();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("task 37 exploded"), std::string::npos);
  // The other tasks still ran; the error did not wedge the pool.
  EXPECT_EQ(count.load(), 99);
  // The error was consumed by Wait(): the pool is reusable and clean.
  pool.Submit([&count](int) { count.fetch_add(1); });
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_EQ(count.load(), 100);
}

TEST(Scheduler, FirstOfSeveralErrorsIsReported) {
  TaskScheduler pool(1);  // single worker => deterministic order
  for (int i = 0; i < 3; ++i) {
    pool.Submit([i](int) {
      throw std::runtime_error("error #" + std::to_string(i));
    });
  }
  Status s = pool.Wait();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("error #0"), std::string::npos);
}

TEST(Scheduler, NonStandardExceptionIsCaptured) {
  TaskScheduler pool(2);
  pool.Submit([](int) { throw 42; });  // not a std::exception
  Status s = pool.Wait();
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(s.message().empty());
}

TEST(Scheduler, ParallelForPropagatesFnError) {
  TaskScheduler pool(4);
  std::atomic<int> ran{0};
  Status s = pool.ParallelFor(1000, [&](int, size_t i) {
    if (i == 500) throw std::runtime_error("index 500 failed");
    ran.fetch_add(1);
  });
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("index 500 failed"), std::string::npos);
  // ParallelFor errors stay with the call; the pool's own group is clean.
  EXPECT_TRUE(pool.Wait().ok());
  // Later indices are skipped once the error is seen, so not all 999
  // siblings need to have run — but none may still be running.
  EXPECT_LE(ran.load(), 999);
}

TEST(Scheduler, NestedParallelForFromWorker) {
  // A worker task joining a nested ParallelFor must help drain the queue
  // instead of deadlocking the (small) pool.
  TaskScheduler pool(2);
  std::atomic<int> total{0};
  Status s = pool.ParallelFor(4, [&](int, size_t) {
    EXPECT_TRUE(pool.ParallelFor(8, [&](int, size_t) {
      total.fetch_add(1);
    }).ok());
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(total.load(), 32);
}

TEST(Scheduler, NestedParallelForSingleThread) {
  // The degenerate pool: every nested level runs on the lone worker.
  TaskScheduler pool(1);
  std::atomic<int> total{0};
  Status s = pool.ParallelFor(3, [&](int, size_t) {
    EXPECT_TRUE(pool.ParallelFor(3, [&](int, size_t) {
      EXPECT_TRUE(pool.ParallelFor(3, [&](int, size_t) {
        total.fetch_add(1);
      }).ok());
    }).ok());
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(total.load(), 27);
}

TEST(Scheduler, NestedParallelForInnerErrorReachesOuterCaller) {
  TaskScheduler pool(2);
  std::atomic<int> inner_failures{0};
  Status s = pool.ParallelFor(4, [&](int, size_t) {
    Status inner = pool.ParallelFor(4, [&](int, size_t j) {
      if (j == 2) throw std::runtime_error("inner failed");
    });
    if (!inner.ok()) {
      inner_failures.fetch_add(1);
      throw std::runtime_error(inner.message());
    }
  });
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("inner failed"), std::string::npos);
  EXPECT_GE(inner_failures.load(), 1);
  EXPECT_TRUE(pool.Wait().ok());
}

TEST(Scheduler, WaitFromWorkerHelpsDrain) {
  // A task that submits subtasks and then joins them via Wait() from
  // inside the pool. All subtasks must have finished when Wait() returns.
  TaskScheduler pool(2);
  std::atomic<int> done{0};
  std::atomic<bool> all_done_at_return{false};
  pool.Submit([&](int) {
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&done](int) { done.fetch_add(1); });
    }
    EXPECT_TRUE(pool.Wait().ok());
    all_done_at_return.store(done.load() == 64);
  });
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_EQ(done.load(), 64);
  EXPECT_TRUE(all_done_at_return.load());
}

TEST(Scheduler, ThrowingSubtaskSurfacesInWorkerSideWait) {
  TaskScheduler pool(2);
  std::atomic<bool> saw_error{false};
  pool.Submit([&](int) {
    for (int i = 0; i < 8; ++i) {
      pool.Submit([i](int) {
        if (i == 3) throw std::runtime_error("subtask failed");
      });
    }
    saw_error.store(!pool.Wait().ok());
  });
  // The inner Wait() consumed the error, so the outer one is clean.
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_TRUE(saw_error.load());
}

TEST(Scheduler, DestructorRunsQueuedWork) {
  // Shutdown with queued work: the destructor drains the queue, it does
  // not drop tasks on the floor.
  std::atomic<int> count{0};
  {
    TaskScheduler pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&count](int) { count.fetch_add(1); });
    }
    // No Wait(): destruct with most tasks still queued.
  }
  EXPECT_EQ(count.load(), 200);
}

// Destruction with an unobserved task error: the scheduler no longer
// swallows it silently. It is logged to stderr in every build, and debug
// builds treat the lost error as a caller bug and abort via CEA_DCHECK.
#ifdef NDEBUG
TEST(Scheduler, DestructorSurfacesSwallowedTaskErrors) {
  std::atomic<int> count{0};
  ::testing::internal::CaptureStderr();
  {
    TaskScheduler pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count, i](int) {
        if (i % 7 == 0) throw std::runtime_error("boom");
        count.fetch_add(1);
      });
    }
    // No Wait(): destruct with the errors still unobserved.
  }
  std::string log = ::testing::internal::GetCapturedStderr();
  // Every queued task still ran and the lost error reached the log.
  EXPECT_EQ(count.load(), 42);  // 50 minus the 8 multiples of 7 below 50
  EXPECT_NE(log.find("unobserved task error"), std::string::npos);
  EXPECT_NE(log.find("boom"), std::string::npos);
}
#else
TEST(SchedulerDeathTest, DestructorTripsOnSwallowedTaskErrors) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TaskScheduler pool(2);
        pool.Submit([](int) { throw std::runtime_error("boom"); });
        // No Wait(): the destructor finds the unobserved error.
      },
      "unobserved task error");
}
#endif

TEST(Scheduler, StatusErrorKeepsTypedCode) {
  // A task that unwinds via StatusError must surface its code from Wait()
  // — cancellation is not a generic runtime failure.
  TaskScheduler pool(2);
  pool.Submit([](int) {
    throw StatusError(Status::Cancelled("stopped by test"));
  });
  Status s = pool.Wait();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCancelled());
  EXPECT_NE(s.message().find("stopped by test"), std::string::npos);
}

TEST(Scheduler, TaskGroupIsolatesErrorsBetweenGroups) {
  // Two queries sharing one pool: group A's failure must surface from
  // WaitGroup(&a) only — neither from WaitGroup(&b) nor from Wait(), which
  // joins the pool's own group.
  TaskScheduler pool(4);
  TaskGroup a(&pool);
  TaskGroup b(&pool);
  std::atomic<int> b_done{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit(&a, [i](int) {
      if (i == 5) throw std::runtime_error("group A failed");
    });
    pool.Submit(&b, [&b_done](int) { b_done.fetch_add(1); });
  }
  Status sa = pool.WaitGroup(&a);
  Status sb = pool.WaitGroup(&b);
  ASSERT_FALSE(sa.ok());
  EXPECT_NE(sa.message().find("group A failed"), std::string::npos);
  EXPECT_TRUE(sb.ok());
  EXPECT_EQ(b_done.load(), 16);
  EXPECT_TRUE(pool.Wait().ok());
}

TEST(Scheduler, TaskGroupErrorIsClearedByWaitGroup) {
  // A group is reusable after its error was observed (the operator reuses
  // one group across Execute calls).
  TaskScheduler pool(2);
  TaskGroup g(&pool);
  pool.Submit(&g, [](int) { throw std::runtime_error("first round"); });
  EXPECT_FALSE(pool.WaitGroup(&g).ok());
  std::atomic<int> ran{0};
  pool.Submit(&g, [&ran](int) { ran.fetch_add(1); });
  EXPECT_TRUE(pool.WaitGroup(&g).ok());
  EXPECT_EQ(ran.load(), 1);
}

TEST(Scheduler, WaitGroupDoesNotWaitOnOtherGroups) {
  // WaitGroup(&fast) and Wait() must return while another group's task is
  // still blocked — a join never requires global quiescence.
  TaskScheduler pool(2);
  TaskGroup fast(&pool);
  TaskGroup slow(&pool);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<bool> slow_running{false};
  pool.Submit(&slow, [&](int) {
    slow_running.store(true);
    gate.wait();
  });
  while (!slow_running.load()) std::this_thread::yield();
  std::atomic<int> fast_done{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit(&fast, [&fast_done](int) { fast_done.fetch_add(1); });
  }
  EXPECT_TRUE(pool.WaitGroup(&fast).ok());
  EXPECT_EQ(fast_done.load(), 32);
  // Wait() joins only tasks submitted without a group. It runs on another
  // thread so that a join that waited for `slow` fails the test instead
  // of hanging it.
  std::future<Status> pool_wait =
      std::async(std::launch::async, [&pool] { return pool.Wait(); });
  EXPECT_EQ(pool_wait.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "Wait() waited for another group's blocked task";
  EXPECT_TRUE(slow_running.load());
  release.set_value();
  EXPECT_TRUE(pool_wait.get().ok());
  EXPECT_TRUE(pool.WaitGroup(&slow).ok());
}

TEST(Scheduler, IgnoredParallelForErrorStaysOutOfEnclosingGroup) {
  // A group task calls a failing ParallelFor and drops the returned
  // status. The error belongs to the call's own group, so the enclosing
  // group's join stays clean.
  TaskScheduler pool(2);
  TaskGroup g(&pool);
  std::atomic<bool> call_failed{false};
  pool.Submit(&g, [&](int) {
    Status ignored = pool.ParallelFor(8, [](int, size_t i) {
      if (i == 3) throw std::runtime_error("index 3 failed");
    });
    call_failed.store(!ignored.ok());
  });
  EXPECT_TRUE(pool.WaitGroup(&g).ok());
  EXPECT_TRUE(call_failed.load());
  EXPECT_TRUE(pool.Wait().ok());
}

TEST(Scheduler, WaitGroupFromWorkerHelpsDrain) {
  // A group task that fans out subtasks under the same group and joins
  // them from inside the pool must not deadlock, even with one worker.
  TaskScheduler pool(1);
  TaskGroup g(&pool);
  std::atomic<int> leaves{0};
  std::atomic<bool> all_done_at_join{false};
  pool.Submit(&g, [&](int) {
    for (int i = 0; i < 16; ++i) {
      pool.Submit(&g, [&leaves](int) { leaves.fetch_add(1); });
    }
    // Note: this inner WaitGroup also consumes the group's completion of
    // everything queued so far except the enclosing task itself.
    EXPECT_TRUE(pool.WaitGroup(&g).ok());
    all_done_at_join.store(leaves.load() == 16);
  });
  EXPECT_TRUE(pool.WaitGroup(&g).ok());
  EXPECT_EQ(leaves.load(), 16);
  EXPECT_TRUE(all_done_at_join.load());
}

TEST(Scheduler, OutsideWaitGroupWaitsForNestedGroupJoin) {
  // A group task joins its own group from inside the pool while a caller
  // outside the pool joins the same group. Once the subtask failed, the
  // only pending task is the worker frame blocked in the nested join. The
  // outside caller must keep waiting for that frame: the nested join owns
  // the subtask's error, and the frame is still running.
  TaskScheduler pool(2);
  int failed_rounds = 0;
  for (int round = 0; round < 200; ++round) {
    TaskGroup g(&pool);
    std::atomic<bool> started{false};
    std::atomic<bool> gate{false};
    std::atomic<bool> nested_error{false};
    std::atomic<bool> joined{false};
    std::thread opener([&] {
      while (!started.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      gate.store(true);
    });
    pool.Submit(&g, [&](int) {
      pool.Submit(&g, [&](int) {
        started.store(true);
        while (!gate.load()) std::this_thread::yield();
        throw std::runtime_error("subtask failed");
      });
      // Let the other worker take the subtask, so this frame parks in its
      // join instead of running the subtask inline.
      while (!started.load()) std::this_thread::yield();
      nested_error.store(!pool.WaitGroup(&g).ok());
      joined.store(true);
    });
    const bool outer_ok = pool.WaitGroup(&g).ok();
    const bool joined_first = joined.load();
    opener.join();
    // Drain before `g` goes out of scope even when the join above returned
    // early.
    while (!joined.load()) std::this_thread::yield();
    (void)pool.WaitGroup(&g);
    if (!outer_ok || !joined_first || !nested_error.load()) ++failed_rounds;
  }
  EXPECT_EQ(failed_rounds, 0);
}

TEST(Scheduler, StressTreeSpawnWithFailingLeaves) {
  // Deterministic stress: tasks fan out a tree of subtasks, some leaves
  // throw, and each round must still account for every task and report an
  // error exactly when a leaf failed. Exercises concurrent Submit +
  // help-draining + error capture across repeated rounds on one pool.
  TaskScheduler pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> leaves{0};
    bool inject = (round % 2 == 0);
    std::function<void(int, int)> spawn = [&](int depth, int path) {
      if (depth == 0) {
        leaves.fetch_add(1);
        if (inject && path == 0) throw std::runtime_error("leaf failed");
        return;
      }
      for (int c = 0; c < 3; ++c) {
        pool.Submit([&spawn, depth, path, c](int) {
          spawn(depth - 1, path * 3 + c);
        });
      }
    };
    pool.Submit([&spawn](int) { spawn(4, 0); });
    Status s = pool.Wait();
    ASSERT_EQ(leaves.load(), 81) << "round " << round;
    ASSERT_EQ(s.ok(), !inject) << "round " << round;
  }
}

}  // namespace
}  // namespace cea
