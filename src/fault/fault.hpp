// openmdd — logic-level fault models and fault universe generation.
//
// Supported models (Section 2 of DESIGN.md):
//  * stuck-at 0/1 on a stem (a net) or on a branch (a specific fanin pin of
//    a gate) — also the logic-level model for full opens;
//  * dominant bridging (aggressor forces its value onto the victim net);
//  * wired-AND / wired-OR bridging (both nets take AND/OR of the two
//    driver values).
//
// A `Fault` is a value type usable in hashed containers; rendering needs a
// netlist for names.
#pragma once

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace mdd {

enum class FaultKind : std::uint8_t {
  StuckAt0,
  StuckAt1,
  BridgeDom,   ///< `bridge_net` (aggressor) dominates `net` (victim)
  BridgeWAnd,  ///< net and bridge_net both take AND of the two values
  BridgeWOr,   ///< net and bridge_net both take OR of the two values
  SlowToRise,  ///< transition fault: a 0->1 transition between the launch
               ///< and capture frames is not completed (gross-delay model)
  SlowToFall,  ///< transition fault: a 1->0 transition is not completed
};

std::string_view to_string(FaultKind kind);

/// Marks a stem (whole-net) stuck-at site.
inline constexpr std::uint32_t kStemPin = UINT32_MAX;

struct Fault {
  FaultKind kind = FaultKind::StuckAt0;
  /// Stuck-at: the affected net (stem) or the gate whose input branch is
  /// stuck (with `pin`). Bridges: the victim net (BridgeDom) or the
  /// lower-numbered net (wired types, normalized so net < bridge_net).
  NetId net = kNoNet;
  /// kStemPin for stem faults; otherwise the fanin index of `net`'s gate.
  std::uint32_t pin = kStemPin;
  /// Bridges only: the aggressor (BridgeDom) / second net (wired).
  NetId bridge_net = kNoNet;

  bool is_stuck_at() const {
    return kind == FaultKind::StuckAt0 || kind == FaultKind::StuckAt1;
  }
  bool is_transition() const {
    return kind == FaultKind::SlowToRise || kind == FaultKind::SlowToFall;
  }
  bool is_bridge() const { return !is_stuck_at() && !is_transition(); }
  bool stuck_value() const { return kind == FaultKind::StuckAt1; }

  static Fault stem_sa(NetId net, bool value) {
    return {value ? FaultKind::StuckAt1 : FaultKind::StuckAt0, net, kStemPin,
            kNoNet};
  }
  static Fault branch_sa(NetId gate, std::uint32_t pin, bool value) {
    return {value ? FaultKind::StuckAt1 : FaultKind::StuckAt0, gate, pin,
            kNoNet};
  }
  static Fault bridge_dom(NetId victim, NetId aggressor) {
    return {FaultKind::BridgeDom, victim, kStemPin, aggressor};
  }
  static Fault bridge_wand(NetId a, NetId b) {
    return {FaultKind::BridgeWAnd, std::min(a, b), kStemPin, std::max(a, b)};
  }
  static Fault bridge_wor(NetId a, NetId b) {
    return {FaultKind::BridgeWOr, std::min(a, b), kStemPin, std::max(a, b)};
  }
  static Fault slow_to_rise(NetId net) {
    return {FaultKind::SlowToRise, net, kStemPin, kNoNet};
  }
  static Fault slow_to_fall(NetId net) {
    return {FaultKind::SlowToFall, net, kStemPin, kNoNet};
  }

  auto operator<=>(const Fault&) const = default;
};

std::string to_string(const Fault& f, const Netlist& netlist);

struct FaultHash {
  std::size_t operator()(const Fault& f) const {
    std::size_t h = static_cast<std::size_t>(f.kind);
    h = h * 1000003u ^ f.net;
    h = h * 1000003u ^ f.pin;
    h = h * 1000003u ^ f.bridge_net;
    return h;
  }
};

/// Validates that a fault's site references exist in `netlist` and that
/// bridges are non-degenerate. Throws std::invalid_argument otherwise.
void validate_fault(const Fault& f, const Netlist& netlist);

/// Full uncollapsed stuck-at universe: stem faults on every net plus
/// branch faults on every gate input pin whose source net has fanout > 1
/// (single-fanout branches are identical to their stems and omitted).
std::vector<Fault> all_stuck_at_faults(const Netlist& netlist);

/// Transition-fault universe: slow-to-rise / slow-to-fall on every net.
std::vector<Fault> all_transition_faults(const Netlist& netlist);

/// Reusable visit marks for is_feedback_pair: a query stamps the nets it
/// reaches with a fresh epoch, so it neither clears nor allocates once the
/// vectors have grown to the netlist. One per thread.
struct ReachScratch {
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
  std::vector<NetId> stack;
};

/// True if dominating/bridging `a` and `b` would create a feedback loop
/// (one net lies in the other's fan-out cone, or a == b).
bool is_feedback_pair(const Netlist& netlist, NetId a, NetId b,
                      ReachScratch& scratch);
/// As above with a scratch of its own (one allocation per call).
bool is_feedback_pair(const Netlist& netlist, NetId a, NetId b);

struct BridgeUniverseConfig {
  std::size_t count = 64;         ///< pairs to sample
  std::uint32_t max_level_gap = 4;///< |level(a)-level(b)| proxy for adjacency
  std::uint64_t seed = 1;
  bool include_wired = true;      ///< also emit WAND/WOR for each pair
};

/// Samples non-feedback bridge fault candidates. For each accepted pair the
/// list gets both dominance orientations (and wired types if configured).
std::vector<Fault> sample_bridge_faults(const Netlist& netlist,
                                        const BridgeUniverseConfig& config);

}  // namespace mdd
