// openmdd — gate-level netlist core.
//
// Representation: single-driver form. Every signal (net) is identified by a
// dense `NetId` and carries the gate that drives it (`GateKind` + fanin
// list); primary inputs are nets of kind `Input`. Primary outputs are an
// ordered list of observed nets. Full-scan sequential circuits are handled
// by the parsers, which convert state elements into pseudo-PI/PO pairs.
//
// A netlist is built incrementally (`add_input` / `add_gate` / `add_cell`)
// and then `finalize()`d, which validates the structure, computes fanout
// lists, levelizes, and freezes a topological evaluation order. All
// simulators require a finalized netlist.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/cell.hpp"

namespace mdd {

/// Dense net identifier; also identifies the driving gate.
using NetId = std::uint32_t;
inline constexpr NetId kNoNet = UINT32_MAX;

/// A complex-cell instance that was expanded into primitives. Kept for
/// reporting: diagnosis can map an internal suspect net back to the cell.
struct CellInstance {
  std::string cell_name;       ///< library cell name, e.g. "AOI21"
  std::string instance_name;   ///< instance name from the source netlist
  std::vector<NetId> pins;     ///< cell input nets, pin order
  std::vector<NetId> internal; ///< nets created by the expansion
  NetId output = kNoNet;       ///< cell output net
};

class Netlist {
 public:
  explicit Netlist(std::string name = "top") : name_(std::move(name)) {}

  // ---- construction -------------------------------------------------------

  /// Adds a primary input net.
  NetId add_input(std::string name);

  /// Adds a gate driving a fresh net. `Buf`/`Not` take exactly one fanin;
  /// `And`/`Nand`/`Or`/`Nor` take >= 1; `Xor`/`Xnor` take >= 2;
  /// `Const0`/`Const1` take none.
  NetId add_gate(GateKind kind, std::vector<NetId> fanins,
                 std::string name = "");

  /// Expands a library cell into primitives; returns the cell output net.
  /// Records a CellInstance for reporting.
  NetId add_cell(const CellModel& cell, const std::vector<NetId>& pins,
                 std::string instance_name, std::string output_name = "");

  /// Marks a net as a primary output (a net may be marked at most once).
  void mark_output(NetId net);

  /// Validates, computes fanouts/levels/topological order. Throws
  /// std::runtime_error on structural errors. Idempotent.
  void finalize();
  bool finalized() const { return finalized_; }

  // ---- topology -----------------------------------------------------------

  const std::string& name() const { return name_; }
  std::size_t n_nets() const { return kinds_.size(); }
  std::size_t n_inputs() const { return inputs_.size(); }
  std::size_t n_outputs() const { return outputs_.size(); }
  /// Number of logic gates (excludes Input nets).
  std::size_t n_gates() const { return kinds_.size() - inputs_.size(); }

  GateKind kind(NetId n) const { return kinds_[n]; }
  std::span<const NetId> fanins(NetId n) const { return fanin_lists_[n]; }
  std::span<const NetId> fanouts(NetId n) const {
    assert(finalized_);
    return fanout_lists_[n];
  }

  const std::vector<NetId>& inputs() const { return inputs_; }
  const std::vector<NetId>& outputs() const { return outputs_; }

  /// Gate evaluation order (inputs first). Valid after finalize().
  const std::vector<NetId>& topo_order() const { return topo_; }
  std::uint32_t level(NetId n) const { return levels_[n]; }
  std::uint32_t depth() const { return depth_; }

  /// Position of `n` in the PO list if it is a PO.
  std::optional<std::uint32_t> output_index(NetId n) const {
    assert(finalized_);
    if (output_index_[n] == 0) return std::nullopt;
    return output_index_[n] - 1;
  }

  /// True if `n` is a primary input.
  bool is_input(NetId n) const { return kinds_[n] == GateKind::Input; }

  // ---- names --------------------------------------------------------------

  const std::string& net_name(NetId n) const { return names_[n]; }
  /// Finds a net by name; kNoNet if absent.
  NetId find_net(std::string_view name) const;

  // ---- cones (require finalize) -------------------------------------------

  /// Transitive fan-in of `roots` (includes the roots), topological order.
  std::vector<NetId> fanin_cone(std::span<const NetId> roots) const;
  std::vector<NetId> fanin_cone(NetId root) const;

  /// Transitive fan-out of `root` (includes the root).
  std::vector<NetId> fanout_cone(NetId root) const;

  /// Indices (into outputs()) of POs reachable from `root`.
  std::vector<std::uint32_t> reachable_outputs(NetId root) const;

  // ---- cell instances ------------------------------------------------------

  const std::vector<CellInstance>& cell_instances() const { return cells_; }
  /// Index of the cell instance owning net `n` (as an internal or output
  /// net), if any.
  std::optional<std::uint32_t> owning_cell(NetId n) const;

  // ---- stats ---------------------------------------------------------------

  struct Stats {
    std::size_t n_inputs = 0;
    std::size_t n_outputs = 0;
    std::size_t n_gates = 0;
    std::size_t n_nets = 0;
    std::uint32_t depth = 0;
    std::size_t max_fanin = 0;
    std::size_t max_fanout = 0;
    std::size_t n_fanout_stems = 0;  ///< nets with >1 fanout branch
  };
  Stats stats() const;

 private:
  void check_built(NetId n) const;
  NetId new_net(GateKind kind, std::string name);

  std::string name_;
  std::vector<GateKind> kinds_;
  std::vector<std::vector<NetId>> fanin_lists_;
  std::vector<std::string> names_;
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
  std::unordered_map<std::string, NetId> by_name_;
  std::vector<CellInstance> cells_;
  std::vector<std::uint32_t> owner_;  // cell index + 1, 0 = none

  // Derived by finalize():
  bool finalized_ = false;
  std::vector<std::vector<NetId>> fanout_lists_;
  std::vector<std::uint32_t> levels_;
  std::vector<NetId> topo_;
  std::uint32_t depth_ = 0;
  std::vector<std::uint32_t> output_index_;  // PO index + 1, 0 = none
};

}  // namespace mdd
