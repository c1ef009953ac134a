// openmdd — persistent fault-dictionary store: on-disk format (v1).
//
// A store file holds the full-window error signatures of one
// (netlist, pattern set) pair as delta-encoded posting lists — per fault,
// the sorted global bit positions `pattern * n_outputs + po` of its
// failing (pattern, PO) bits — so a daemon restart can serve solo
// signatures by open-mmap-decode instead of simulating the whole fault
// universe again. Layout (all integers little-endian):
//
//   [ 0, 80)   header (fixed size, see StoreHeader)
//   [80, 80 + n_faults*40)   fault index: fixed 40-byte records, sorted
//                            by Fault ordering (binary-searchable in situ)
//   [.., end)  postings region: per fault, varint-encoded position deltas
//
// The header carries content hashes of the netlist (structure + PO order)
// and the pattern set, so a store can never silently serve the wrong
// circuit; `content_hash` covers every byte after the header, so random
// corruption (truncation, bit flips) is detected at open time. Decoding is
// additionally bounds-checked bit by bit — a hostile file can make open()
// or decode() throw StoreError, never read out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fsim/fsim.hpp"
#include "netlist/netlist.hpp"
#include "sim/patterns.hpp"

namespace mdd::store {

/// Any structural problem with a store file: wrong magic/version/hash,
/// truncation, out-of-bounds offsets, malformed varints. The serving layer
/// catches it, counts a metric, and falls back to simulation.
class StoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr char kMagic[8] = {'M', 'D', 'D', 'S', 'T', 'O', 'R', '1'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderBytes = 80;
inline constexpr std::size_t kRecordBytes = 40;
/// Store files are named <netlist_hash>-<patterns_hash>.mdds inside the
/// store directory, so one directory serves many circuits.
inline constexpr const char* kStoreExtension = ".mdds";

/// Decoded fixed-size header. On disk the fields follow the magic at the
/// offsets documented inline (write_header/read_header are the codec).
struct StoreHeader {
  std::uint32_t format_version = kFormatVersion;  // offset 8
  std::uint64_t netlist_hash = 0;                 // offset 16
  std::uint64_t patterns_hash = 0;                // offset 24
  std::uint64_t n_faults = 0;                     // offset 32
  std::uint64_t n_patterns = 0;                   // offset 40
  std::uint64_t n_outputs = 0;                    // offset 48
  std::uint64_t payload_bytes = 0;                // offset 56 (postings)
  std::uint64_t content_hash = 0;                 // offset 64 (index+postings)
};

/// One fault-index record (40 bytes on disk): the fault identity, where
/// its posting list lives inside the postings region, and the decoded
/// shape (for exact reservation and cheap inspect/verify statistics).
struct FaultRecord {
  Fault fault{};
  std::uint64_t offset = 0;        ///< into the postings region
  std::uint32_t n_bytes = 0;       ///< encoded posting-list bytes
  std::uint32_t n_positions = 0;   ///< error bits
  std::uint32_t n_failing = 0;     ///< failing patterns
};

// ---- little-endian scalar IO ---------------------------------------------

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xff);
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xff);
}
inline std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}
inline std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

// ---- varint (LEB128, unsigned 64-bit) ------------------------------------

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Decodes one varint from [*p, end), advancing *p past it. Throws
/// StoreError on buffer overrun or a value wider than 64 bits.
inline std::uint64_t get_varint(const std::uint8_t*& p,
                                const std::uint8_t* end) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (p >= end) throw StoreError("store: truncated varint");
    const std::uint8_t byte = *p++;
    if (shift == 63 && (byte & 0x7e) != 0)
      throw StoreError("store: varint exceeds 64 bits");
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      if (shift > 0 && byte == 0)
        throw StoreError("store: non-canonical varint");
      return v;
    }
  }
  throw StoreError("store: varint exceeds 64 bits");
}

// ---- content hashing (FNV-1a 64) -----------------------------------------

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

inline std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t h) {
  for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
  return h;
}

/// Structural content hash of a netlist: gate kinds, fanin lists, and the
/// primary-output order — exactly what error signatures depend on. Net
/// names are excluded (renaming does not change responses).
std::uint64_t netlist_content_hash(const Netlist& netlist);

/// Content hash of a pattern set (shape + bits; padding positions in the
/// final block are masked out so equal pattern sets always hash equal).
std::uint64_t patterns_content_hash(const PatternSet& patterns);

/// File name "<netlist_hash>-<patterns_hash>.mdds" (hashes in lowercase
/// hex, zero-padded to 16 digits).
std::string store_file_name(std::uint64_t netlist_hash,
                            std::uint64_t patterns_hash);

/// Full path of the store file for (netlist, patterns) inside `dir`.
std::string store_path_for(const std::string& dir, const Netlist& netlist,
                           const PatternSet& patterns);

// ---- posting-list codec --------------------------------------------------

/// Delta-varint encodes the sorted global bit positions of `sig`
/// (`pattern * n_outputs + po`) into `out`; returns the number of
/// positions written.
std::size_t encode_postings(const ErrorSignature& sig,
                            std::uint64_t n_outputs,
                            std::vector<std::uint8_t>& out);

/// Reconstructs an ErrorSignature of shape (n_patterns, n_outputs) from
/// `n_positions` delta-varint positions starting at *p, advancing *p past
/// them. Every bound and delta is checked; throws StoreError on malformed
/// input. Byte-identical to what encode_postings consumed.
ErrorSignature decode_postings(const std::uint8_t*& p,
                               const std::uint8_t* end,
                               std::uint32_t n_positions,
                               std::uint64_t n_patterns,
                               std::uint64_t n_outputs);

// ---- record / header codec -----------------------------------------------

void append_header(std::vector<std::uint8_t>& out, const StoreHeader& header);
/// Parses and sanity-checks magic + version; `size` is the full file size.
/// Throws StoreError on malformed input.
StoreHeader read_header(const std::uint8_t* data, std::size_t size);

void append_record(std::vector<std::uint8_t>& out, const FaultRecord& rec);
FaultRecord read_record(const std::uint8_t* p);

}  // namespace mdd::store
