// Copyright (c) 2026 The PACMAN reproduction authors.
// Shared fixed-size thread pool — the execution layer under both ends of
// the engine: recovery task graphs (exec::RunTaskGraph) and concurrent
// forward processing (pacman::WorkloadDriver).
//
// Workers are created once and tagged with dense WorkerIds [0, size);
// submitted jobs run FIFO. WaitIdle() is the quiescence barrier callers use
// instead of tearing the pool down between phases.
#ifndef PACMAN_EXEC_THREAD_POOL_H_
#define PACMAN_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/types.h"

namespace pacman::exec {

class ThreadPool {
 public:
  // `name_prefix`, when non-empty, names the pool's OS threads
  // "<prefix>-<id>" (visible in /proc, debuggers and sanitizer reports —
  // a server process runs several pools at once: IO loops, transaction
  // executors, recovery loaders).
  explicit ThreadPool(uint32_t num_threads, std::string name_prefix = "");
  // Drains the queue, then joins all workers.
  ~ThreadPool();
  PACMAN_DISALLOW_COPY_AND_MOVE(ThreadPool);

  // Enqueues one job. Thread-safe; jobs may submit further jobs while the
  // pool is running (Submit aborts once destruction has begun draining).
  void Submit(std::function<void()> fn);

  // Blocks until the queue is empty and every worker is idle.
  void WaitIdle();

  uint32_t size() const { return static_cast<uint32_t>(threads_.size()); }

 private:
  void WorkerLoop(WorkerId id);

  std::string name_prefix_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // Signals workers: work or shutdown.
  std::condition_variable idle_cv_;  // Signals WaitIdle: pool quiesced.
  std::deque<std::function<void()>> queue_;
  uint32_t active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace pacman::exec

#endif  // PACMAN_EXEC_THREAD_POOL_H_
