// Test helper: a hook that forwards to another but keeps the default
// cycle_invariant(), so launches take the plain watchdog path. Comparing a
// run through it with a run of the hook itself checks the livelock cut.
#pragma once

#include "arch/machine.hpp"

namespace gpf::arch {

/// Forwards every hook to `inner` but keeps the default cycle_invariant():
/// launches run the plain watchdog path.
class PlainForward final : public MachineHooks {
 public:
  explicit PlainForward(MachineHooks& inner) : in_(inner) {}
  void on_launch_begin(Gpu& g, const isa::Program& p) override { in_.on_launch_begin(g, p); }
  void pre_cycle(Gpu& g, unsigned sm, unsigned ppb) override { in_.pre_cycle(g, sm, ppb); }
  int post_select(Gpu& g, unsigned sm, unsigned ppb, int slot) override {
    return in_.post_select(g, sm, ppb, slot);
  }
  std::uint32_t post_fetch_pc(Gpu& g, unsigned sm, unsigned ppb, unsigned slot,
                              std::uint32_t pc) override {
    return in_.post_fetch_pc(g, sm, ppb, slot, pc);
  }
  std::uint64_t post_fetch_word(Gpu& g, unsigned sm, unsigned ppb, unsigned slot,
                                std::uint64_t word) override {
    return in_.post_fetch_word(g, sm, ppb, slot, word);
  }
  void post_decode(Gpu& g, unsigned sm, unsigned ppb, isa::Instruction& in,
                   bool& ok) override {
    in_.post_decode(g, sm, ppb, in, ok);
  }
  void pre_execute(ExecCtx& ctx) override { in_.pre_execute(ctx); }
  void post_execute(ExecCtx& ctx) override { in_.post_execute(ctx); }

 private:
  MachineHooks& in_;
};

}  // namespace gpf::arch
