#include "store/reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <tuple>
#include <vector>

#include "obs/metrics.hpp"

namespace mdd::store {

namespace {

struct StoreMetrics {
  obs::Counter& opens = obs::registry().counter("store.opens");
  obs::Counter& open_failures =
      obs::registry().counter("store.open_failures");
  obs::Counter& decodes = obs::registry().counter("store.decodes");
  obs::Gauge& bytes_mapped = obs::registry().gauge("store.bytes_mapped");
  obs::Gauge& entries_mapped = obs::registry().gauge("store.entries_mapped");
};

StoreMetrics& store_metrics() {
  static StoreMetrics m;
  return m;
}

auto fault_key(const Fault& f) {
  return std::make_tuple(f.kind, f.net, f.pin, f.bridge_net);
}

}  // namespace

std::shared_ptr<const DictReader> DictReader::open(const std::string& path) {
  // shared_ptr with the private ctor: wrap a raw new.
  std::shared_ptr<DictReader> reader(new DictReader());
  reader->path_ = path;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    store_metrics().open_failures.inc();
    throw StoreError("store: cannot open " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    store_metrics().open_failures.inc();
    throw StoreError("store: cannot stat " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  void* map = size > 0
                  ? ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0)
                  : MAP_FAILED;
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    store_metrics().open_failures.inc();
    throw StoreError("store: cannot mmap " + path);
  }
  reader->data_ = static_cast<const std::uint8_t*>(map);
  reader->size_ = size;
  // From here the reader owns the mapping; a validation throw unmaps via
  // the destructor.
  try {
    reader->header_ = read_header(reader->data_, size);
    // Index invariants: strictly sorted (binary-searchable), extents
    // back-to-back inside the postings region. Back-to-back is stricter
    // than in-bounds but it is what the writer produces, and it leaves an
    // adversarial file no slack space to hide bytes in.
    std::uint64_t expected_offset = 0;
    const std::uint64_t n = reader->header_.n_faults;
    for (std::uint64_t i = 0; i < n; ++i) {
      const FaultRecord rec = read_record(reader->record_ptr(i));
      if (i > 0) {
        const FaultRecord prev = read_record(reader->record_ptr(i - 1));
        if (!(fault_key(prev.fault) < fault_key(rec.fault)))
          throw StoreError("store: fault index not strictly sorted");
      }
      if (rec.offset != expected_offset)
        throw StoreError("store: posting extents not contiguous");
      expected_offset += rec.n_bytes;
      if (expected_offset > reader->header_.payload_bytes)
        throw StoreError("store: posting extent exceeds payload");
      if (rec.n_positions < rec.n_failing)
        throw StoreError("store: record bit count below pattern count");
    }
    if (expected_offset != reader->header_.payload_bytes)
      throw StoreError("store: payload has trailing bytes");
    const std::uint64_t hash =
        fnv1a(reader->data_ + kHeaderBytes, size - kHeaderBytes);
    if (hash != reader->header_.content_hash)
      throw StoreError("store: content hash mismatch (corrupt file): " +
                       path);
  } catch (...) {
    store_metrics().open_failures.inc();
    throw;
  }
  store_metrics().opens.inc();
  store_metrics().bytes_mapped.add(static_cast<std::int64_t>(size));
  store_metrics().entries_mapped.add(
      static_cast<std::int64_t>(reader->header_.n_faults));
  reader->gauges_registered_ = true;
  return reader;
}

DictReader::~DictReader() {
  if (gauges_registered_) {
    store_metrics().bytes_mapped.add(-static_cast<std::int64_t>(size_));
    store_metrics().entries_mapped.add(
        -static_cast<std::int64_t>(header_.n_faults));
  }
  if (data_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
}

const std::uint8_t* DictReader::record_ptr(std::size_t i) const {
  return data_ + kHeaderBytes + i * kRecordBytes;
}

const std::uint8_t* DictReader::payload_base() const {
  return data_ + kHeaderBytes + header_.n_faults * kRecordBytes;
}

std::size_t DictReader::total_error_bits() const {
  std::size_t bits = 0;
  for (std::uint64_t i = 0; i < header_.n_faults; ++i)
    bits += read_record(record_ptr(i)).n_positions;
  return bits;
}

bool DictReader::matches(const Netlist& netlist,
                         const PatternSet& patterns) const {
  return header_.netlist_hash == netlist_content_hash(netlist) &&
         header_.patterns_hash == patterns_content_hash(patterns) &&
         header_.n_patterns == patterns.n_patterns() &&
         header_.n_outputs == netlist.n_outputs();
}

void DictReader::validate_for(const Netlist& netlist,
                              const PatternSet& patterns) const {
  if (header_.netlist_hash != netlist_content_hash(netlist))
    throw StoreError("store: netlist content hash mismatch (store built "
                     "for a different circuit): " +
                     path_);
  if (header_.patterns_hash != patterns_content_hash(patterns))
    throw StoreError("store: patterns content hash mismatch (store built "
                     "for a different pattern set): " +
                     path_);
  if (header_.n_patterns != patterns.n_patterns() ||
      header_.n_outputs != netlist.n_outputs())
    throw StoreError("store: signature shape mismatch: " + path_);
}

std::optional<std::size_t> DictReader::find(const Fault& fault) const {
  const auto key = fault_key(fault);
  std::size_t lo = 0, hi = header_.n_faults;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const FaultRecord rec = read_record(record_ptr(mid));
    if (fault_key(rec.fault) < key)
      lo = mid + 1;
    else
      hi = mid;
  }
  if (lo < header_.n_faults &&
      fault_key(read_record(record_ptr(lo)).fault) == key)
    return lo;
  return std::nullopt;
}

Fault DictReader::fault_at(std::size_t i) const {
  return read_record(record_ptr(i)).fault;
}

ErrorSignature DictReader::decode(std::size_t i) const {
  if (i >= header_.n_faults)
    throw StoreError("store: record index out of range");
  const FaultRecord rec = read_record(record_ptr(i));
  const std::uint8_t* p = payload_base() + rec.offset;
  const std::uint8_t* end = p + rec.n_bytes;

  ErrorSignature sig = decode_postings(p, end, rec.n_positions,
                                       header_.n_patterns, header_.n_outputs);
  if (p != end)
    throw StoreError("store: posting list has trailing bytes");
  if (sig.n_failing_patterns() != rec.n_failing)
    throw StoreError("store: decoded pattern count mismatch");
  store_metrics().decodes.inc();
  return sig;
}

std::optional<ErrorSignature> DictReader::lookup(const Fault& fault) const {
  const auto i = find(fault);
  if (!i) return std::nullopt;
  return decode(*i);
}

std::size_t DictReader::verify_all() const {
  std::size_t bits = 0;
  for (std::uint64_t i = 0; i < header_.n_faults; ++i) {
    const ErrorSignature sig = decode(i);
    if (sig.n_error_bits() != read_record(record_ptr(i)).n_positions)
      throw StoreError("store: decoded bit count mismatch at record " +
                       std::to_string(i));
    bits += sig.n_error_bits();
  }
  return bits;
}

}  // namespace mdd::store
