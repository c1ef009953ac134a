// openmdd — bounded MPMC job queue with explicit backpressure.
//
// The daemon's admission point: producers (connection readers) try_push
// and get an immediate `false` when the queue is full — the protocol
// layer turns that into an `overloaded` response instead of letting
// latency grow without bound. Consumers (the worker pool) block in pop()
// until a job or shutdown arrives. close() wakes everyone; pops drain the
// remaining jobs first, then return nullopt.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace mdd::server {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Non-blocking admission; false = full or closed (backpressure — the
  /// caller owns the reject response). `item` is moved from only on
  /// success, so a rejected job is still usable for the reject reply.
  bool try_push(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      if (items_.size() > high_water_) high_water_ = items_.size();
    }
    ready_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed AND
  /// drained; nullopt means "no more work, ever".
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Stops admission; queued jobs still drain through pop().
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  /// Levels only; the owner counts admissions and rejects.
  struct Stats {
    std::size_t high_water = 0;
    std::size_t depth = 0;
    std::size_t capacity = 0;
  };
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return Stats{high_water_, items_.size(), capacity_};
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
  std::size_t high_water_ = 0;
};

}  // namespace mdd::server
