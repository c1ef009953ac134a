// openmdd — store refresh: folding journaled faults into the `.mdds` file.
//
// A refresh merges workload-learned faults (store/journal.hpp) into the
// persistent dictionary without re-simulating what the store already
// knows: existing records' posting bytes are carried over verbatim from
// the mmap'd file, only genuinely new faults are simulated, and the
// merged store is written with the writer's tmp+rename protocol — readers
// holding the old mapping keep serving it, and the next open (or the
// daemon's reader swap) picks up the grown universe. If the store is
// absent or unreadable, the fold rebuilds it from the default universe
// plus the journaled faults, so `dict refresh` also works as a first
// build.
#pragma once

#include <span>
#include <string>
#include <utility>

#include "core/exec.hpp"
#include "fault/fault.hpp"
#include "store/writer.hpp"

namespace mdd::store {

/// Cross-process fold mutex for one (netlist, patterns) store folder.
///
/// Two concurrent folds of the same store are a lost-update race: both
/// read version N, each writes N+{its faults}, and whichever tmp+rename
/// lands last silently drops the other's learned faults — while the
/// loser compacts its journal as if they were folded, losing them for
/// good. `openmdd dict refresh` can race a daemon's refresh thread on
/// one store, as can two daemons sharing one `--store-dir`, so the fold
/// is guarded by an advisory flock(2) on a `.lock` file beside the `.mdds`:
/// the kernel releases it on process death (no stale-lock recovery
/// needed), and lock-file I/O failure degrades to the old uncoordinated
/// behavior (fail-open: a missing lock must never stop learning).
class RefreshLock {
 public:
  enum class State {
    held,         ///< this process owns the fold
    busy,         ///< another holder owns it — skip or wait and retry
    unavailable,  ///< lock file unusable — proceed unguarded (fail-open)
  };

  RefreshLock() = default;
  RefreshLock(RefreshLock&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)), state_(other.state_) {}
  RefreshLock& operator=(RefreshLock&& other) noexcept;
  RefreshLock(const RefreshLock&) = delete;
  RefreshLock& operator=(const RefreshLock&) = delete;
  ~RefreshLock();

  /// Non-blocking: `busy` when another process (or another descriptor in
  /// this one) holds the fold.
  static RefreshLock try_acquire(const std::string& dir,
                                 const Netlist& netlist,
                                 const PatternSet& patterns);
  /// Blocking: waits for the current holder (CLI `dict refresh` path).
  static RefreshLock acquire(const std::string& dir, const Netlist& netlist,
                             const PatternSet& patterns);
  /// Path-level variants (tests, tools that already resolved the path).
  static RefreshLock try_acquire_path(const std::string& lock_path);
  static RefreshLock acquire_path(const std::string& lock_path);

  State state() const { return state_; }
  bool held() const { return state_ == State::held; }
  /// A fold may proceed when the lock is held OR unavailable — only
  /// `busy` means someone else is folding right now.
  bool may_fold() const { return state_ != State::busy; }

  void release();

 private:
  RefreshLock(int fd, State state) : fd_(fd), state_(state) {}
  static RefreshLock acquire_impl(const std::string& lock_path, bool block);
  int fd_ = -1;
  State state_ = State::unavailable;
};

/// The advisory lock file guarding folds of this (netlist, patterns)
/// store: `<store path>.lock`.
std::string refresh_lock_path_for(const std::string& dir,
                                  const Netlist& netlist,
                                  const PatternSet& patterns);

struct RefreshStats {
  std::size_t n_offered = 0;   ///< faults given to the fold
  std::size_t n_new = 0;       ///< simulated and added to the store
  std::size_t n_existing = 0;  ///< records carried over byte-for-byte
  std::size_t n_invalid = 0;   ///< offered faults that failed validation
  bool rebuilt = false;        ///< store was absent/corrupt → fresh build
  bool wrote = false;          ///< a new store file was written
  BuildStats build;            ///< of the written file (empty if !wrote)
};

/// Folds `extra` faults into the store for (netlist, patterns) inside
/// `dir`. Already-present and invalid faults are skipped (counted); if
/// nothing new remains and the store is healthy, no file is written.
/// Throws StoreError on I/O failure writing the merged store.
RefreshStats fold_into_store(const Netlist& netlist,
                             const PatternSet& patterns,
                             const std::string& dir,
                             std::span<const Fault> extra,
                             const ExecPolicy& exec = {});

/// CLI/daemon entry point: reads the journal sidecar, folds its faults
/// into the store, and resets the journal to header-only on success.
/// A malformed or mismatched journal header throws StoreError (the
/// journal must never be folded into the wrong store); a missing journal
/// is a healthy no-op.
RefreshStats refresh_store(const Netlist& netlist, const PatternSet& patterns,
                           const std::string& dir,
                           const ExecPolicy& exec = {});

}  // namespace mdd::store
