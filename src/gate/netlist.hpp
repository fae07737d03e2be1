// Gate-level netlist substrate. Units under test (decoder, fetch, WSC) are
// built as real netlists of 2-input gates, muxes, and D flip-flops; stuck-at
// faults are enumerated on every net, exactly like a collapsed stuck-at list
// over a synthesized standard-cell design.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace gpf::gate {

struct CompiledNetlist;
struct GateProgram;

enum class GateKind : std::uint8_t {
  Input,   ///< primary input (value set externally)
  Const0,
  Const1,
  Buf,
  Not,
  And,
  Or,
  Nand,
  Nor,
  Xor,
  Xnor,
  Mux,     ///< a = select, b = when-0, c = when-1
  Dff,     ///< a = D input, b = enable net (-1 = always enabled)
};

/// Net id == index of the gate driving it.
using Net = std::int32_t;
inline constexpr Net kNoNet = -1;

struct Gate {
  GateKind kind = GateKind::Const0;
  Net a = kNoNet, b = kNoNet, c = kNoNet;
};

/// A named bundle of nets (a port or an observable internal bus).
struct PortBus {
  std::string name;
  std::vector<Net> nets;
};

class Netlist {
 public:
  // -- construction -------------------------------------------------------
  Net input();
  Net constant(bool v);
  Net buf(Net a);
  Net not_(Net a);
  Net and_(Net a, Net b);
  Net or_(Net a, Net b);
  Net nand_(Net a, Net b);
  Net nor_(Net a, Net b);
  Net xor_(Net a, Net b);
  Net xnor_(Net a, Net b);
  /// mux(s, a, b) = s ? b : a.
  Net mux(Net s, Net a, Net b);
  /// D flip-flop; `enable == kNoNet` clocks every cycle.
  Net dff(Net d = kNoNet, Net enable = kNoNet);
  /// Late-bind a DFF's D input / enable (for feedback loops).
  void set_dff_input(Net dff_net, Net d, Net enable = kNoNet);

  // -- ports -------------------------------------------------------------
  void add_input_bus(const std::string& name, std::vector<Net> nets);
  void add_output_bus(const std::string& name, std::vector<Net> nets);
  const PortBus* find_input(const std::string& name) const;
  const PortBus* find_output(const std::string& name) const;
  const std::vector<PortBus>& inputs() const { return inputs_; }
  const std::vector<PortBus>& outputs() const { return outputs_; }

  // -- finalize / query -----------------------------------------------
  /// Compute the levelized evaluation order. Must be called before simulation.
  void finalize();
  bool finalized() const { return finalized_; }

  std::size_t num_nets() const { return gates_.size(); }
  const Gate& gate(Net n) const { return gates_[static_cast<std::size_t>(n)]; }
  const std::vector<Net>& eval_order() const { return eval_order_; }
  const std::vector<Net>& dffs() const { return dffs_; }
  /// Constant nets and their values, collected by finalize() so simulators
  /// can refresh them without rescanning the whole netlist.
  const std::vector<std::pair<Net, std::uint8_t>>& constants() const {
    return constants_;
  }
  /// Flat SoA program + CSR fan-out lowered by finalize(); the simulators
  /// execute this instead of chasing gate(n) through eval_order().
  const CompiledNetlist& compiled() const;

  /// Optimized executable gate program (gate/gateprog.hpp) lowered from the
  /// compiled form by finalize(): the 1:1 `full` stream the scalar Simulator
  /// runs, plus the fused/DCE'd/register-allocated `fused` stream the batch
  /// engine runs.
  const GateProgram& program() const;

  /// Total combinational + sequential cell count (excludes Input/Const).
  std::size_t cell_count() const;
  /// Area estimate in um^2 from per-cell areas of a 15nm-class library.
  double area_um2() const;

 private:
  Net add(GateKind k, Net a = kNoNet, Net b = kNoNet, Net c = kNoNet);

  std::vector<Gate> gates_;
  std::vector<Net> dffs_;
  std::vector<Net> eval_order_;
  std::vector<std::pair<Net, std::uint8_t>> constants_;
  // shared_ptr so Netlist stays copyable; the compiled form is immutable.
  std::shared_ptr<const CompiledNetlist> compiled_;
  std::shared_ptr<const GateProgram> program_;
  std::vector<PortBus> inputs_;
  std::vector<PortBus> outputs_;
  bool finalized_ = false;
};

/// Per-cell area (um^2) used for the Table 3 reproduction.
double cell_area_um2(GateKind k);

}  // namespace gpf::gate
