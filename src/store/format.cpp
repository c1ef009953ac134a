#include "store/format.hpp"

#include <span>

namespace mdd::store {

std::uint64_t netlist_content_hash(const Netlist& netlist) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_u64(netlist.n_inputs(), h);
  h = fnv1a_u64(netlist.n_outputs(), h);
  h = fnv1a_u64(netlist.n_nets(), h);
  for (NetId n = 0; n < netlist.n_nets(); ++n) {
    h = fnv1a_u64(static_cast<std::uint64_t>(netlist.kind(n)), h);
    const auto fanins = netlist.fanins(n);
    h = fnv1a_u64(fanins.size(), h);
    for (NetId f : fanins) h = fnv1a_u64(f, h);
  }
  // PO order fixes the bit layout of every signature.
  for (NetId o : netlist.outputs()) h = fnv1a_u64(o, h);
  return h;
}

std::uint64_t patterns_content_hash(const PatternSet& patterns) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_u64(patterns.n_patterns(), h);
  h = fnv1a_u64(patterns.n_signals(), h);
  for (std::size_t b = 0; b < patterns.n_blocks(); ++b) {
    const Word valid = patterns.valid_mask(b);
    for (std::size_t s = 0; s < patterns.n_signals(); ++s)
      h = fnv1a_u64(patterns.word(b, s) & valid, h);
  }
  return h;
}

std::string store_file_name(std::uint64_t netlist_hash,
                            std::uint64_t patterns_hash) {
  static const char* hex = "0123456789abcdef";
  std::string name;
  name.reserve(16 + 1 + 16 + 5);  // "<hex16>-<hex16>.mdds"
  const auto append_hex = [&](std::uint64_t v) {
    for (int i = 15; i >= 0; --i) name.push_back(hex[(v >> (4 * i)) & 0xf]);
  };
  append_hex(netlist_hash);
  name.push_back('-');
  append_hex(patterns_hash);
  name += kStoreExtension;
  return name;
}

std::string store_path_for(const std::string& dir, const Netlist& netlist,
                           const PatternSet& patterns) {
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path.push_back('/');
  return path + store_file_name(netlist_content_hash(netlist),
                                patterns_content_hash(patterns));
}

std::size_t encode_postings(const ErrorSignature& sig,
                            std::uint64_t n_outputs,
                            std::vector<std::uint8_t>& out) {
  std::size_t n_positions = 0;
  std::uint64_t prev = 0;
  bool first = true;
  for (std::size_t i = 0; i < sig.n_failing_patterns(); ++i) {
    const std::uint64_t base =
        std::uint64_t{sig.failing_patterns()[i]} * n_outputs;
    for (std::uint32_t po : sig.failing_outputs(i)) {
      const std::uint64_t pos = base + po;
      put_varint(out, first ? pos : pos - prev);
      prev = pos;
      first = false;
      ++n_positions;
    }
  }
  return n_positions;
}

ErrorSignature decode_postings(const std::uint8_t*& p,
                               const std::uint8_t* end,
                               std::uint32_t n_positions,
                               std::uint64_t n_patterns,
                               std::uint64_t n_outputs) {
  ErrorSignature sig(n_patterns, n_outputs);
  const std::uint64_t limit = n_patterns * n_outputs;
  std::vector<Word> mask(sig.n_po_words(), kAllZero);
  std::uint64_t current_pattern = 0;
  bool have_pattern = false;
  std::uint64_t pos = 0;
  for (std::uint32_t k = 0; k < n_positions; ++k) {
    const std::uint64_t delta = get_varint(p, end);
    if (k == 0) {
      pos = delta;
    } else {
      if (delta == 0) throw StoreError("store: zero posting delta");
      if (delta > limit || pos > limit - delta)
        throw StoreError("store: posting position overflow");
      pos += delta;
    }
    if (pos >= limit)
      throw StoreError("store: posting position out of range");
    const std::uint64_t pattern = pos / n_outputs;
    const std::uint64_t po = pos % n_outputs;
    if (have_pattern && pattern != current_pattern) {
      sig.append(static_cast<std::uint32_t>(current_pattern), mask);
      std::fill(mask.begin(), mask.end(), kAllZero);
    }
    current_pattern = pattern;
    have_pattern = true;
    mask[po / 64] |= Word{1} << (po % 64);
  }
  if (have_pattern)
    sig.append(static_cast<std::uint32_t>(current_pattern), mask);
  return sig;
}

void append_header(std::vector<std::uint8_t>& out,
                   const StoreHeader& header) {
  const std::size_t base = out.size();
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  put_u32(out, header.format_version);
  put_u32(out, 0);  // reserved
  put_u64(out, header.netlist_hash);
  put_u64(out, header.patterns_hash);
  put_u64(out, header.n_faults);
  put_u64(out, header.n_patterns);
  put_u64(out, header.n_outputs);
  put_u64(out, header.payload_bytes);
  put_u64(out, header.content_hash);
  put_u64(out, 0);  // reserved
  if (out.size() - base != kHeaderBytes)
    throw StoreError("store: header codec size mismatch");
}

StoreHeader read_header(const std::uint8_t* data, std::size_t size) {
  if (size < kHeaderBytes)
    throw StoreError("store: file shorter than the fixed header");
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
    throw StoreError("store: bad magic (not a dictionary store file)");
  StoreHeader h;
  h.format_version = read_u32(data + 8);
  if (h.format_version != kFormatVersion)
    throw StoreError("store: unsupported format version " +
                     std::to_string(h.format_version) + " (expected " +
                     std::to_string(kFormatVersion) + ")");
  h.netlist_hash = read_u64(data + 16);
  h.patterns_hash = read_u64(data + 24);
  h.n_faults = read_u64(data + 32);
  h.n_patterns = read_u64(data + 40);
  h.n_outputs = read_u64(data + 48);
  h.payload_bytes = read_u64(data + 56);
  h.content_hash = read_u64(data + 64);
  // Size accounting must be exact: header + index + postings == file.
  if (h.n_faults > (size - kHeaderBytes) / kRecordBytes)
    throw StoreError("store: fault index exceeds file size");
  const std::uint64_t body = kHeaderBytes + h.n_faults * kRecordBytes;
  if (size - body != h.payload_bytes)
    throw StoreError("store: file size does not match header accounting");
  return h;
}

void append_record(std::vector<std::uint8_t>& out, const FaultRecord& rec) {
  const std::size_t base = out.size();
  out.push_back(static_cast<std::uint8_t>(rec.fault.kind));
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);
  put_u32(out, rec.fault.net);
  put_u32(out, rec.fault.pin);
  put_u32(out, rec.fault.bridge_net);
  put_u64(out, rec.offset);
  put_u32(out, rec.n_bytes);
  put_u32(out, rec.n_positions);
  put_u32(out, rec.n_failing);
  put_u32(out, 0);  // reserved
  if (out.size() - base != kRecordBytes)
    throw StoreError("store: record codec size mismatch");
}

FaultRecord read_record(const std::uint8_t* p) {
  FaultRecord rec;
  const std::uint8_t kind = p[0];
  if (kind > static_cast<std::uint8_t>(FaultKind::SlowToFall))
    throw StoreError("store: fault record with unknown fault kind");
  rec.fault.kind = static_cast<FaultKind>(kind);
  rec.fault.net = read_u32(p + 4);
  rec.fault.pin = read_u32(p + 8);
  rec.fault.bridge_net = read_u32(p + 12);
  rec.offset = read_u64(p + 16);
  rec.n_bytes = read_u32(p + 24);
  rec.n_positions = read_u32(p + 28);
  rec.n_failing = read_u32(p + 32);
  return rec;
}

}  // namespace mdd::store
