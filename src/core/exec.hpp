// openmdd — execution policy and deterministic parallel loops.
//
// `ExecPolicy` is the knob threaded through the stack: serial (the
// default, always available) or parallel with a fixed thread count. Every
// parallel loop in the repo goes through `parallel_for` /
// `parallel_for_ranges`, which partition [0, n) into contiguous
// per-worker ranges on a shared fixed-size `ThreadPool`. Callers write
// results into per-index slots and aggregate in index order, so output is
// byte-identical to the serial loop for any thread count — the property
// the differential tests (tests/test_parallel_equiv.cpp) pin down.
//
// Nested parallel regions (a parallel_for issued from inside a worker)
// degrade to serial execution in the calling worker: determinism and
// deadlock-freedom over cleverness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/cancel.hpp"

namespace mdd {

struct ExecPolicy {
  /// Number of worker threads; <= 1 means serial.
  std::size_t n_threads = 1;

  static ExecPolicy serial() { return ExecPolicy{1}; }

  /// `n == 0` picks std::thread::hardware_concurrency().
  static ExecPolicy parallel(std::size_t n = 0);

  /// Reads the MDD_THREADS environment variable ("0" = hardware
  /// concurrency, unset/empty/"1" = serial).
  static ExecPolicy from_env();

  bool is_serial() const { return n_threads <= 1; }

  bool operator==(const ExecPolicy&) const = default;
};

/// Runs body(begin, end, worker) over a static partition of [0, n) into
/// min(policy.n_threads, n) contiguous ranges (one per worker, worker ids
/// dense from 0). Serial policies, n <= 1, and nested calls run inline as
/// body(0, n, 0). Blocks until every range is done; exceptions propagate.
void parallel_for_ranges(
    const ExecPolicy& policy, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

/// Per-index convenience over parallel_for_ranges: body(i, worker).
void parallel_for(const ExecPolicy& policy, std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Cancellable per-index loop: identical to parallel_for, except every
/// worker polls `cancel` (throttled, every few indices) and stops at the
/// next index boundary once the token is cancelled or its deadline has
/// passed. Cooperative: indices already started still finish, and which
/// indices ran is NOT deterministic after cancellation — callers must
/// treat a cancelled loop as partial and check `cancel->cancelled()`
/// afterwards. A null token degrades to plain parallel_for.
void parallel_for(const ExecPolicy& policy, std::size_t n,
                  const CancelToken* cancel,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Runs `body()` on `n` fresh private threads and joins them; `n <= 1`
/// runs it on the calling thread instead. No pool is involved, so a
/// caller that is itself a pool worker still gets `n` threads. `body`
/// claims its own work (for example chunks off an atomic counter), so the
/// result must not depend on how many threads ran. A thread that fails to
/// start is not an error: the ones running take its work, and if none
/// started the caller runs `body`. The first exception any `body` throws
/// is rethrown after the join. Returns the number of threads that ran
/// `body` (at least 1).
std::size_t run_on_threads(std::size_t n, const std::function<void()>& body);

}  // namespace mdd
