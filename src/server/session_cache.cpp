#include "server/session_cache.hpp"

#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "netlist/bench_parser.hpp"
#include "netlist/verilog_parser.hpp"
#include "obs/metrics.hpp"
#include "store/format.hpp"
#include "workload/textio.hpp"

namespace mdd::server {

namespace {

struct SessionMetrics {
  obs::Counter& hits = obs::registry().counter("sessions.hits");
  obs::Counter& misses = obs::registry().counter("sessions.misses");
  obs::Counter& evictions = obs::registry().counter("sessions.evictions");
  obs::Counter& load_failures =
      obs::registry().counter("sessions.load_failures");
  obs::Gauge& bytes = obs::registry().gauge("sessions.bytes");
  obs::Gauge& entries = obs::registry().gauge("sessions.entries");
  /// Store files that existed but could not be attached (corrupt,
  /// truncated, or built for different content) — the session loaded
  /// fine, it just runs storeless.
  obs::Counter& store_attach_failures =
      obs::registry().counter("store.attach_failures");
  obs::Counter& store_attached =
      obs::registry().counter("store.attached");
};

SessionMetrics& session_metrics() {
  static SessionMetrics m;
  return m;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Netlist load_netlist_file(const std::string& path) {
  if (ends_with(path, ".bench")) return parse_bench_file(path).netlist;
  if (ends_with(path, ".v")) {
    static const CellLibrary lib;
    return parse_verilog_file(path, lib).netlist;
  }
  throw std::runtime_error("unknown netlist extension (want .bench or .v): " +
                           path);
}

/// Looks for a prebuilt dictionary store matching the session's content
/// hashes. An absent file is the normal case and silent; a present but
/// unusable one (corrupt, truncated, or built for different content) is
/// logged and counted, never fatal — the session simply runs storeless.
std::shared_ptr<const store::DictReader> try_attach_store(
    const std::string& store_dir, const Netlist& netlist,
    const PatternSet& patterns) {
  if (store_dir.empty()) return nullptr;
  const std::string path =
      store::store_path_for(store_dir, netlist, patterns);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return nullptr;
  try {
    auto dict = store::DictReader::open(path);
    dict->validate_for(netlist, patterns);
    session_metrics().store_attached.inc();
    return dict;
  } catch (const std::exception& e) {
    session_metrics().store_attach_failures.inc();
    std::cerr << "openmdd: ignoring dictionary store " << path << ": "
              << e.what() << "\n";
    return nullptr;
  }
}

std::shared_ptr<const Session> load_session(const std::string& netlist_path,
                                            const std::string& patterns_path,
                                            std::size_t memo_bytes,
                                            std::size_t composite_bytes,
                                            const std::string& store_dir) {
  auto session = std::make_shared<Session>();
  session->netlist = load_netlist_file(netlist_path);
  session->patterns = read_patterns_file(patterns_path);
  if (session->patterns.n_signals() != session->netlist.n_inputs())
    throw std::runtime_error(
        "pattern width (" + std::to_string(session->patterns.n_signals()) +
        ") does not match netlist inputs (" +
        std::to_string(session->netlist.n_inputs()) + "): " + patterns_path);
  session->baseline = SingleFaultPropagator::make_baseline(session->netlist,
                                                           session->patterns);
  // The baseline already holds the valid-masked PO response simulate()
  // would produce; copying it saves a second good-machine simulation.
  session->good = session->baseline->good;
  session->memo = std::make_unique<SignatureMemo>(memo_bytes);
  session->traces = std::make_unique<TraceMemo>();
  session->composites = std::make_unique<CompositeMemo>(composite_bytes);
  // A matching dictionary store becomes the memo's disk tier. Its mmapped
  // bytes are NOT charged against the cache budget — they live in the
  // page cache, not the heap.
  session->memo->set_store(
      try_attach_store(store_dir, session->netlist, session->patterns));
  session->approx_bytes = approx_session_bytes(*session);
  return session;
}

}  // namespace

std::size_t approx_session_bytes(const Session& session) {
  const auto matrix_bytes = [](const PatternSet& ps) {
    return ps.n_blocks() * ps.n_signals() * sizeof(Word);
  };
  // Netlist internals (gate records, fanin/fanout adjacency, name table)
  // are approximated by a per-net constant.
  std::size_t baseline_bytes = 0;
  if (session.baseline != nullptr)
    baseline_bytes = session.baseline->values.size() * sizeof(Word) +
                     matrix_bytes(session.baseline->good);
  return matrix_bytes(session.patterns) + matrix_bytes(session.good) +
         baseline_bytes + session.netlist.n_nets() * 160;
}

SessionCache::SessionCache(std::size_t max_bytes, std::size_t memo_bytes,
                           std::size_t composite_bytes,
                           std::string store_dir)
    : max_bytes_(max_bytes),
      memo_bytes_(memo_bytes),
      composite_bytes_(composite_bytes),
      store_dir_(std::move(store_dir)) {}

void SessionCache::evict_over_budget_locked() {
  // Never evict the just-admitted MRU head: an over-budget single session
  // still serves its requests, it just evicts everything else. Pinned
  // keys (an in-flight batch) are skipped — their memos stay resident no
  // matter how much other traffic loads.
  auto it = lru_.end();
  while (bytes_ > max_bytes_ && lru_.size() > 1 && it != lru_.begin()) {
    --it;
    if (it == lru_.begin()) break;  // MRU head survives
    if (auto p = pins_.find(*it); p != pins_.end() && p->second > 0)
      continue;
    const Key victim = *it;
    it = lru_.erase(it);
    lru_pos_.erase(victim);
    auto ent = entries_.find(victim);
    if (ent != entries_.end()) {
      if (ent->second->session)
        bytes_ -= ent->second->session->approx_bytes;
      entries_.erase(ent);
    }
    session_metrics().evictions.inc();
  }
  session_metrics().bytes.set(static_cast<std::int64_t>(bytes_));
  session_metrics().entries.set(static_cast<std::int64_t>(lru_.size()));
}

SessionCache::Pin SessionCache::pin(const std::string& netlist_path,
                                    const std::string& patterns_path) {
  Key key = netlist_path + '\n' + patterns_path;
  std::lock_guard<std::mutex> lock(mutex_);
  ++pins_[key];
  return Pin(this, std::move(key));
}

void SessionCache::Pin::release() {
  if (cache_ == nullptr) return;
  std::lock_guard<std::mutex> lock(cache_->mutex_);
  auto it = cache_->pins_.find(key_);
  if (it != cache_->pins_.end() && --it->second == 0)
    cache_->pins_.erase(it);
  cache_ = nullptr;
}

std::shared_ptr<const Session> SessionCache::get(
    const std::string& netlist_path, const std::string& patterns_path,
    bool* was_hit) {
  const Key key = netlist_path + '\n' + patterns_path;
  for (;;) {
    std::shared_ptr<Entry> entry;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(key);
      if (it == entries_.end()) {
        entry = std::make_shared<Entry>();
        entries_.emplace(key, entry);
      } else {
        entry = it->second;
      }
    }

    // The slow path (parse + simulate) runs under the per-entry mutex
    // only — other circuits load concurrently, same-circuit callers wait
    // here and then take the hit branch.
    std::lock_guard<std::mutex> load_lock(entry->load_mutex);
    if (entry->session) {
      std::lock_guard<std::mutex> lock(mutex_);
      session_metrics().hits.inc();
      auto pos = lru_pos_.find(key);
      if (pos != lru_pos_.end())
        lru_.splice(lru_.begin(), lru_, pos->second);
      if (was_hit != nullptr) *was_hit = true;
      return entry->session;
    }

    {
      // The creator may have failed (entry orphaned) — retry from scratch
      // so this caller performs its own load attempt.
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(key);
      if (it == entries_.end() || it->second != entry) continue;
    }

    try {
      entry->session = load_session(netlist_path, patterns_path, memo_bytes_,
                                    composite_bytes_, store_dir_);
    } catch (...) {
      session_metrics().load_failures.inc();
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end() && it->second == entry) entries_.erase(it);
      throw;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    session_metrics().misses.inc();
    bytes_ += entry->session->approx_bytes;
    lru_.push_front(key);
    lru_pos_[key] = lru_.begin();
    evict_over_budget_locked();
    if (was_hit != nullptr) *was_hit = false;
    return entry->session;
  }
}

SessionCache::AccountingCheck SessionCache::check_accounting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  AccountingCheck out;
  out.accounted = bytes_;
  const auto fail = [&](std::string what) {
    if (out.ok) {
      out.ok = false;
      out.detail = std::move(what);
    }
  };
  std::size_t n_lru = 0;
  for (auto it = lru_.begin(); it != lru_.end(); ++it, ++n_lru) {
    const Key& key = *it;
    const auto pos = lru_pos_.find(key);
    if (pos == lru_pos_.end() || pos->second != it) {
      fail("lru_pos_ does not point at the LRU node for '" + key + "'");
      continue;
    }
    const auto ent = entries_.find(key);
    if (ent == entries_.end() || ent->second->session == nullptr) {
      fail("LRU key '" + key + "' has no loaded entry");
      continue;
    }
    out.recomputed += ent->second->session->approx_bytes;
  }
  if (lru_pos_.size() != n_lru)
    fail("lru_pos_ holds keys the LRU list does not");
  for (const auto& [key, count] : pins_)
    if (count == 0) fail("pin count for '" + key + "' decayed to zero");
  if (out.recomputed != out.accounted)
    fail("accounted bytes " + std::to_string(out.accounted) +
         " != recomputed " + std::to_string(out.recomputed));
  return out;
}

MemoLayerStats SessionCache::layer_stats() const {
  MemoLayerStats out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, entry] : entries_) {
    const std::shared_ptr<const Session> session = entry->session;
    if (session == nullptr) continue;  // still loading
    out.signature += session->memo->stats();
    out.traces += session->traces->stats();
    out.composites += session->composites->stats();
    // A decode failure detaches the store, so ask the memo, not the load.
    if (const auto dict = session->memo->store_reader()) {
      ++out.store_sessions;
      out.store_entries += dict->n_entries();
      out.store_bytes_mapped += dict->bytes_mapped();
    }
  }
  return out;
}

SessionCacheStats SessionCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SessionCacheStats s;
  s.entries = lru_.size();
  s.bytes = bytes_;
  s.max_bytes = max_bytes_;
  return s;
}

}  // namespace mdd::server
