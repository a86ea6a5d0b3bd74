// Tests for the shared execution layer: thread pool semantics, worker-id
// tagging, quiescence, and task-graph execution (dependency order,
// exactly-once execution, priority dispatch, pool reuse).
#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "common/random.h"
#include "exec/task_graph_runner.h"
#include "exec/worker_context.h"
#include "sim/task_graph.h"

namespace pacman::exec {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedJobs) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, WorkersCarryDenseIds) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<WorkerId> seen;
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&] {
      WorkerId id = CurrentWorkerId();
      std::lock_guard<std::mutex> g(mu);
      seen.insert(id);
    });
  }
  pool.WaitIdle();
  EXPECT_GE(seen.size(), 1u);
  for (WorkerId id : seen) EXPECT_LT(id, 4u);
  // Off-pool threads are untagged.
  EXPECT_EQ(CurrentWorkerId(), kInvalidWorkerId);
}

TEST(ThreadPoolTest, WorkerScopeNestsAndRestores) {
  EXPECT_EQ(CurrentWorkerId(), kInvalidWorkerId);
  {
    WorkerScope outer(3);
    EXPECT_EQ(CurrentWorkerId(), 3u);
    {
      WorkerScope inner(7);
      EXPECT_EQ(CurrentWorkerId(), 7u);
    }
    EXPECT_EQ(CurrentWorkerId(), 3u);
  }
  EXPECT_EQ(CurrentWorkerId(), kInvalidWorkerId);
}

TEST(ThreadPoolTest, JobsMaySubmitJobs) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 10);
}

TEST(TaskGraphRunnerTest, PoolIsReusableAcrossGraphs) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    sim::TaskGraph g;
    std::atomic<int> count{0};
    sim::TaskId prev = g.AddTask(0.0, [&] { count.fetch_add(1); });
    for (int i = 1; i < 50; ++i) {
      sim::TaskId t = g.AddTask(0.0, [&] { count.fetch_add(1); });
      if (i % 2 == 0) g.AddEdge(prev, t);
      prev = t;
    }
    double seconds = RunTaskGraph(&g, &pool);
    EXPECT_GE(seconds, 0.0);
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(TaskGraphRunnerTest, EmptyGraphCompletes) {
  sim::TaskGraph g;
  EXPECT_GE(RunTaskGraph(&g, 2), 0.0);
}

TEST(TaskGraphRunnerTest, GraphTasksRunOnTaggedWorkers) {
  ThreadPool pool(3);
  sim::TaskGraph g;
  std::atomic<int> bad{0};
  for (int i = 0; i < 100; ++i) {
    g.AddTask(0.0, [&] {
      WorkerId id = CurrentWorkerId();
      if (id >= 3) bad.fetch_add(1);
    });
  }
  RunTaskGraph(&g, &pool);
  EXPECT_EQ(bad.load(), 0);
}

// The real-thread task-graph executor (the library's recovery backend):
// dependency order, exactly-once execution, priority dispatch.

TEST(ExecutorTest, RunsEveryTaskExactlyOnce) {
  sim::TaskGraph g;
  std::atomic<int> count{0};
  for (int i = 0; i < 500; ++i) {
    g.AddTask(0.0, [&]() { count.fetch_add(1); });
  }
  RunTaskGraph(&g, 4);
  EXPECT_EQ(count.load(), 500);
}

TEST(ExecutorTest, RespectsDependencyOrder) {
  sim::TaskGraph g;
  std::atomic<int> stage{0};
  sim::TaskId a = g.AddTask(0.0, [&]() {
    int expected = 0;
    EXPECT_TRUE(stage.compare_exchange_strong(expected, 1));
  });
  sim::TaskId b = g.AddTask(0.0, [&]() {
    int expected = 1;
    EXPECT_TRUE(stage.compare_exchange_strong(expected, 2));
  });
  sim::TaskId c = g.AddTask(0.0, [&]() {
    int expected = 2;
    EXPECT_TRUE(stage.compare_exchange_strong(expected, 3));
  });
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  RunTaskGraph(&g, 8);
  EXPECT_EQ(stage.load(), 3);
}

TEST(ExecutorTest, RandomDagsCompleteInTopologicalOrder) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    sim::TaskGraph g;
    const int n = 200;
    std::vector<std::atomic<bool>> done(n);
    for (auto& d : done) d.store(false);
    std::vector<std::vector<sim::TaskId>> deps(n);
    for (int i = 0; i < n; ++i) {
      // Random backward edges keep the graph acyclic.
      int ndeps = static_cast<int>(rng.Uniform(0, 3));
      for (int k = 0; k < ndeps && i > 0; ++k) {
        deps[i].push_back(static_cast<sim::TaskId>(rng.Uniform(0, i - 1)));
      }
    }
    for (int i = 0; i < n; ++i) {
      std::vector<sim::TaskId> my_deps = deps[i];
      sim::TaskId t = g.AddTask(0.0, [&done, my_deps, i]() {
        for (sim::TaskId d : my_deps) {
          EXPECT_TRUE(done[d].load()) << "dep ran after dependent";
        }
        done[i].store(true);
      });
      for (sim::TaskId d : deps[i]) g.AddEdge(d, t);
      ASSERT_EQ(t, static_cast<sim::TaskId>(i));
    }
    RunTaskGraph(&g, 1 + trial % 4);
    for (auto& d : done) EXPECT_TRUE(d.load());
  }
}

TEST(ExecutorTest, DynamicWorkIsInvoked) {
  sim::TaskGraph g;
  std::atomic<int> calls{0};
  sim::TaskId a = g.AddTask(5.0, nullptr);
  g.task(a).dynamic_work = [&]() {
    calls.fetch_add(1);
    return 1.0;
  };
  RunTaskGraph(&g, 2);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ExecutorTest, SingleThreadFollowsPriorityOrder) {
  sim::TaskGraph g;
  std::vector<int> order;
  g.AddTask(0.0, [&]() { order.push_back(0); }, 0, /*priority=*/9);
  g.AddTask(0.0, [&]() { order.push_back(1); }, 0, /*priority=*/1);
  g.AddTask(0.0, [&]() { order.push_back(2); }, 0, /*priority=*/5);
  RunTaskGraph(&g, 1);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

}  // namespace
}  // namespace pacman::exec
