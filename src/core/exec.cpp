#include "core/exec.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"

namespace mdd {

namespace {

/// Set while the current thread is executing inside a pool worker; nested
/// parallel regions detect it and run inline.
thread_local bool t_in_worker = false;

/// Process-wide pool, grown (recreated) when a larger thread count is
/// requested. `pool_mutex` also serializes concurrent top-level parallel
/// regions — only one runs at a time, which keeps worker ids meaningful
/// for per-worker scratch state.
std::mutex pool_mutex;
std::unique_ptr<ThreadPool> shared_pool;

}  // namespace

ExecPolicy ExecPolicy::parallel(std::size_t n) {
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  return ExecPolicy{n};
}

ExecPolicy ExecPolicy::from_env() {
  const char* env = std::getenv("MDD_THREADS");
  if (env == nullptr || *env == '\0') return serial();
  const long v = std::atol(env);
  if (v < 0) return serial();
  return parallel(static_cast<std::size_t>(v));
}

void parallel_for_ranges(
    const ExecPolicy& policy, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t n_workers = std::min(policy.n_threads, n);
  if (n_workers <= 1 || t_in_worker) {
    body(0, n, 0);
    return;
  }

  std::lock_guard<std::mutex> lock(pool_mutex);
  if (!shared_pool || shared_pool->n_threads() < n_workers)
    shared_pool = std::make_unique<ThreadPool>(n_workers);

  shared_pool->run_on_all([&](std::size_t worker) {
    if (worker >= n_workers) return;  // pool may be larger than needed
    const std::size_t begin = worker * n / n_workers;
    const std::size_t end = (worker + 1) * n / n_workers;
    if (begin >= end) return;
    t_in_worker = true;
    try {
      body(begin, end, worker);
    } catch (...) {
      t_in_worker = false;
      throw;
    }
    t_in_worker = false;
  });
}

void parallel_for(const ExecPolicy& policy, std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for_ranges(policy, n,
                      [&](std::size_t begin, std::size_t end,
                          std::size_t worker) {
                        for (std::size_t i = begin; i < end; ++i)
                          body(i, worker);
                      });
}

void parallel_for(const ExecPolicy& policy, std::size_t n,
                  const CancelToken* cancel,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (cancel == nullptr) {
    parallel_for(policy, n, body);
    return;
  }
  parallel_for_ranges(policy, n,
                      [&](std::size_t begin, std::size_t end,
                          std::size_t worker) {
                        CancelCheckpoint cp(cancel, 8);
                        for (std::size_t i = begin; i < end; ++i) {
                          if (cp()) break;
                          body(i, worker);
                        }
                      });
}

std::size_t run_on_threads(std::size_t n, const std::function<void()>& body) {
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto guarded = [&] {
    try {
      body();
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> group;
  if (n > 1) {
    try {
      group.reserve(n);
      while (group.size() < n) group.emplace_back(guarded);
    } catch (const std::exception&) {
    }
  }
  // The caller only waits: with glibc, every thread that allocates heavily
  // binds a malloc arena, and a caller drawn from a long-lived pool would
  // add its own to those the group threads reuse from exited ones.
  if (group.empty()) guarded();
  for (std::thread& t : group) t.join();
  if (error) std::rethrow_exception(error);
  return std::max<std::size_t>(group.size(), 1);
}

}  // namespace mdd
