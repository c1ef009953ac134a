// openmdd — persistent fault-dictionary store: mmap-served reader.
//
// `DictReader` maps a store file read-only and serves signature lookups
// straight off the mapping: fault lookup is a binary search over the
// fixed-width index records in place, and decoding reconstructs an
// `ErrorSignature` from the fault's varint posting list without ever
// materializing the file in heap memory — the OS page cache is the only
// resident copy, shared by every process mapping the same store.
//
// Validation is two-layered. open() proves the file self-consistent:
// magic, format version, exact size accounting, content hash over index +
// postings (catches truncation and bit flips), sorted index, in-bounds
// posting extents. validate_for() then proves it is the *right* store by
// comparing the header's netlist/patterns content hashes against the live
// objects. Decoding re-checks every bound anyway, so even an adversarial
// file degrades to a StoreError, never an out-of-bounds read.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "fsim/fsim.hpp"
#include "store/format.hpp"

namespace mdd::store {

class DictReader {
 public:
  /// Maps and validates `path`. Throws StoreError on any structural
  /// problem (also counted on the `store.open_failures` metric).
  static std::shared_ptr<const DictReader> open(const std::string& path);

  ~DictReader();
  DictReader(const DictReader&) = delete;
  DictReader& operator=(const DictReader&) = delete;

  const std::string& path() const { return path_; }
  const StoreHeader& header() const { return header_; }
  std::size_t n_entries() const { return header_.n_faults; }
  std::size_t bytes_mapped() const { return size_; }
  std::size_t n_patterns() const { return header_.n_patterns; }
  std::size_t n_outputs() const { return header_.n_outputs; }

  /// Total stored error bits (summed over the index; no decoding).
  std::size_t total_error_bits() const;

  /// True if the store was built for exactly this (netlist, patterns).
  bool matches(const Netlist& netlist, const PatternSet& patterns) const;
  /// Throws StoreError (with which hash differs) when !matches().
  void validate_for(const Netlist& netlist,
                    const PatternSet& patterns) const;

  /// Index of `fault`'s record, if the store holds it (binary search).
  std::optional<std::size_t> find(const Fault& fault) const;
  Fault fault_at(std::size_t i) const;

  /// Reconstructs the full-window signature of record `i`. Byte-identical
  /// to what FaultSimulator::signature produced at build time; throws
  /// StoreError on a malformed posting list.
  ErrorSignature decode(std::size_t i) const;

  /// find() + decode() in one step.
  std::optional<ErrorSignature> lookup(const Fault& fault) const;

  /// Decodes every record with full checks (dict verify): returns the
  /// total decoded error bits; throws StoreError on the first problem.
  std::size_t verify_all() const;

 private:
  DictReader() = default;
  const std::uint8_t* record_ptr(std::size_t i) const;
  const std::uint8_t* payload_base() const;

  std::string path_;
  StoreHeader header_{};
  const std::uint8_t* data_ = nullptr;  ///< mmap base
  std::size_t size_ = 0;
  bool gauges_registered_ = false;  ///< bytes/entries gauges bumped
};

}  // namespace mdd::store
