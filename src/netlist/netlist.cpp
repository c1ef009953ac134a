#include "netlist/netlist.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mdd {

namespace {

void check_arity(GateKind kind, std::size_t n) {
  switch (kind) {
    case GateKind::Input:
    case GateKind::Const0:
    case GateKind::Const1:
      if (n != 0) throw std::runtime_error("netlist: source gate with fanins");
      break;
    case GateKind::Buf:
    case GateKind::Not:
      if (n != 1) throw std::runtime_error("netlist: BUF/NOT needs 1 fanin");
      break;
    case GateKind::Xor:
    case GateKind::Xnor:
      if (n < 2) throw std::runtime_error("netlist: XOR/XNOR needs >=2 fanins");
      break;
    default:
      if (n < 1) throw std::runtime_error("netlist: gate needs >=1 fanin");
      break;
  }
}

}  // namespace

NetId Netlist::new_net(GateKind kind, std::string name) {
  const NetId id = static_cast<NetId>(kinds_.size());
  if (name.empty()) name = "n" + std::to_string(id);
  if (by_name_.contains(name))
    throw std::runtime_error("netlist: duplicate net name '" + name + "'");
  kinds_.push_back(kind);
  fanin_lists_.emplace_back();
  names_.push_back(name);
  owner_.push_back(0);
  by_name_.emplace(std::move(name), id);
  finalized_ = false;
  return id;
}

NetId Netlist::add_input(std::string name) {
  const NetId id = new_net(GateKind::Input, std::move(name));
  inputs_.push_back(id);
  return id;
}

NetId Netlist::add_gate(GateKind kind, std::vector<NetId> fanins,
                        std::string name) {
  if (kind == GateKind::Input)
    throw std::runtime_error("netlist: use add_input for INPUT");
  check_arity(kind, fanins.size());
  for (NetId f : fanins) check_built(f);
  const NetId id = new_net(kind, std::move(name));
  fanin_lists_[id] = std::move(fanins);
  return id;
}

NetId Netlist::add_cell(const CellModel& cell, const std::vector<NetId>& pins,
                        std::string instance_name, std::string output_name) {
  if (pins.size() != cell.n_inputs())
    throw std::runtime_error("netlist: cell '" + cell.name() +
                             "' pin count mismatch");
  CellInstance inst;
  inst.cell_name = cell.name();
  inst.instance_name = instance_name;
  inst.pins = pins;

  // Expand the decomposition; step outputs become internal nets.
  std::vector<NetId> values = pins;
  const std::size_t n_ops = cell.ops().size();
  for (std::size_t k = 0; k < n_ops; ++k) {
    const CellOp& op = cell.ops()[k];
    std::vector<NetId> fanins;
    fanins.reserve(op.operands.size());
    for (std::uint32_t o : op.operands) fanins.push_back(values[o]);
    const bool last = (k + 1 == n_ops);
    std::string net_name;
    if (last && !output_name.empty()) {
      net_name = output_name;
    } else if (!instance_name.empty()) {
      net_name = instance_name + "." + std::to_string(k);
    }
    const NetId out = add_gate(op.kind, std::move(fanins), std::move(net_name));
    values.push_back(out);
    if (last) {
      inst.output = out;
    } else {
      inst.internal.push_back(out);
    }
  }
  const std::uint32_t cell_index = static_cast<std::uint32_t>(cells_.size());
  for (NetId n : inst.internal) owner_[n] = cell_index + 1;
  owner_[inst.output] = cell_index + 1;
  cells_.push_back(std::move(inst));
  return cells_.back().output;
}

void Netlist::mark_output(NetId net) {
  check_built(net);
  if (std::find(outputs_.begin(), outputs_.end(), net) != outputs_.end())
    throw std::runtime_error("netlist: net marked output twice: " +
                             names_[net]);
  outputs_.push_back(net);
  finalized_ = false;
}

void Netlist::check_built(NetId n) const {
  if (n >= kinds_.size()) throw std::runtime_error("netlist: bad net id");
}

void Netlist::finalize() {
  if (finalized_) return;
  const std::size_t n = kinds_.size();
  if (outputs_.empty()) throw std::runtime_error("netlist: no outputs");

  fanout_lists_.assign(n, {});
  for (NetId g = 0; g < n; ++g)
    for (NetId f : fanin_lists_[g]) fanout_lists_[f].push_back(g);

  // Kahn levelization; detects cycles (impossible via the builder API but
  // guards against future mutation paths).
  levels_.assign(n, 0);
  std::vector<std::uint32_t> pending(n);
  topo_.clear();
  topo_.reserve(n);
  for (NetId g = 0; g < n; ++g) {
    pending[g] = static_cast<std::uint32_t>(fanin_lists_[g].size());
    if (pending[g] == 0) topo_.push_back(g);
  }
  for (std::size_t head = 0; head < topo_.size(); ++head) {
    const NetId g = topo_[head];
    for (NetId s : fanout_lists_[g]) {
      levels_[s] = std::max(levels_[s], levels_[g] + 1);
      if (--pending[s] == 0) topo_.push_back(s);
    }
  }
  if (topo_.size() != n) throw std::runtime_error("netlist: cyclic");
  depth_ = 0;
  for (std::uint32_t lv : levels_) depth_ = std::max(depth_, lv);

  output_index_.assign(n, 0);
  for (std::uint32_t i = 0; i < outputs_.size(); ++i)
    output_index_[outputs_[i]] = i + 1;

  finalized_ = true;
}

NetId Netlist::find_net(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? kNoNet : it->second;
}

std::vector<NetId> Netlist::fanin_cone(std::span<const NetId> roots) const {
  assert(finalized_);
  std::vector<bool> seen(n_nets(), false);
  std::vector<NetId> stack(roots.begin(), roots.end());
  for (NetId r : stack) seen[r] = true;
  while (!stack.empty()) {
    const NetId g = stack.back();
    stack.pop_back();
    for (NetId f : fanin_lists_[g]) {
      if (!seen[f]) {
        seen[f] = true;
        stack.push_back(f);
      }
    }
  }
  std::vector<NetId> cone;
  for (NetId g : topo_)
    if (seen[g]) cone.push_back(g);
  return cone;
}

std::vector<NetId> Netlist::fanin_cone(NetId root) const {
  return fanin_cone(std::span<const NetId>(&root, 1));
}

std::vector<NetId> Netlist::fanout_cone(NetId root) const {
  assert(finalized_);
  std::vector<bool> seen(n_nets(), false);
  std::vector<NetId> stack{root};
  seen[root] = true;
  while (!stack.empty()) {
    const NetId g = stack.back();
    stack.pop_back();
    for (NetId s : fanout_lists_[g]) {
      if (!seen[s]) {
        seen[s] = true;
        stack.push_back(s);
      }
    }
  }
  std::vector<NetId> cone;
  for (NetId g : topo_)
    if (seen[g]) cone.push_back(g);
  return cone;
}

std::vector<std::uint32_t> Netlist::reachable_outputs(NetId root) const {
  std::vector<std::uint32_t> pos;
  for (NetId g : fanout_cone(root)) {
    if (auto idx = output_index(g)) pos.push_back(*idx);
  }
  std::sort(pos.begin(), pos.end());
  return pos;
}

std::optional<std::uint32_t> Netlist::owning_cell(NetId n) const {
  if (owner_[n] == 0) return std::nullopt;
  return owner_[n] - 1;
}

Netlist::Stats Netlist::stats() const {
  assert(finalized_);
  Stats s;
  s.n_inputs = inputs_.size();
  s.n_outputs = outputs_.size();
  s.n_gates = n_gates();
  s.n_nets = n_nets();
  s.depth = depth_;
  for (NetId g = 0; g < n_nets(); ++g) {
    s.max_fanin = std::max(s.max_fanin, fanin_lists_[g].size());
    s.max_fanout = std::max(s.max_fanout, fanout_lists_[g].size());
    if (fanout_lists_[g].size() > 1) ++s.n_fanout_stems;
  }
  return s;
}

}  // namespace mdd
