#include "gate/compiled.hpp"

#include <algorithm>
#include <numeric>

namespace gpf::gate {

CompiledNetlist::CompiledNetlist(const Netlist& nl,
                                 std::span<const int> net_level) {
  const std::size_t n = nl.num_nets();
  level.assign(net_level.begin(), net_level.end());

  // Program: eval_order() is already stable-sorted by level.
  const std::vector<Net>& order = nl.eval_order();
  kind.reserve(order.size());
  a.reserve(order.size());
  b.reserve(order.size());
  c.reserve(order.size());
  out.reserve(order.size());
  slot_of.assign(n, kNoSlot);
  for (std::size_t s = 0; s < order.size(); ++s) {
    const Net g = order[s];
    const Gate& gg = nl.gate(g);
    kind.push_back(gg.kind);
    a.push_back(gg.a);
    b.push_back(gg.b);
    c.push_back(gg.c);
    out.push_back(g);
    slot_of[static_cast<std::size_t>(g)] = static_cast<std::uint32_t>(s);
  }

  // Sequential elements.
  dff_index.assign(n, -1);
  dff_out.reserve(nl.dffs().size());
  dff_d.reserve(nl.dffs().size());
  dff_en.reserve(nl.dffs().size());
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    const Net q = nl.dffs()[i];
    const Gate& gg = nl.gate(q);
    dff_out.push_back(q);
    dff_d.push_back(gg.a);
    dff_en.push_back(gg.b);
    dff_index[static_cast<std::size_t>(q)] = static_cast<std::int32_t>(i);
  }

  // CSR fan-out over combinational gates and DFF pins (a divergent value
  // feeding a DFF crosses the register boundary, so cone walks need the edge).
  const auto each_edge = [&](auto&& fn) {
    for (std::size_t g = 0; g < n; ++g) {
      const Gate& gg = nl.gate(static_cast<Net>(g));
      if (gg.kind == GateKind::Input || gg.kind == GateKind::Const0 ||
          gg.kind == GateKind::Const1)
        continue;
      for (Net in : {gg.a, gg.b, gg.c})
        if (in != kNoNet) fn(in, static_cast<Net>(g));
    }
  };
  fan_offset.assign(n + 1, 0);
  each_edge([&](Net src, Net) { ++fan_offset[static_cast<std::size_t>(src) + 1]; });
  for (std::size_t i = 1; i <= n; ++i) fan_offset[i] += fan_offset[i - 1];
  fan_target.resize(fan_offset[n]);
  std::vector<std::uint32_t> cursor(fan_offset.begin(), fan_offset.end() - 1);
  each_edge([&](Net src, Net dst) {
    fan_target[cursor[static_cast<std::size_t>(src)]++] = dst;
  });

  // Topological rank: nets sorted by (level, net id).
  std::vector<Net> by_topo(n);
  std::iota(by_topo.begin(), by_topo.end(), Net{0});
  std::stable_sort(by_topo.begin(), by_topo.end(), [&](Net x, Net y) {
    return level[static_cast<std::size_t>(x)] < level[static_cast<std::size_t>(y)];
  });
  topo_index.assign(n, 0);
  for (std::size_t r = 0; r < n; ++r)
    topo_index[static_cast<std::size_t>(by_topo[r])] = static_cast<std::uint32_t>(r);
}

}  // namespace gpf::gate
