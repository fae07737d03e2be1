// NVBitPERfi-equivalent error injector: implements the paper's 13 error
// functions as instruction-level instrumentation (MachineHooks) following the
// exact recipes of Section 5.1 (Figs. IRA/IAT/IAL/IOC listings):
//   IRA/IVRA  — operand register-address redirection (dest or source);
//   IAT/IAW/IAC — XOR bitErrMask into the destination of S2R instructions
//                 reading SR_TID / SR_CTAID;
//   IAL       — disable a lane's FU results (save/restore) or force-enable
//               predicated-off instructions on a lane;
//   IIO/IMS   — XOR bitErrMask into the destination of instructions touching
//               immediates / constant+shared-memory sources;
//   IMD       — XOR bitErrMask into the data or address register of
//               shared-memory stores;
//   WV        — XOR into the written predicate of SETP instructions;
//   IOC       — substitute the executed operation on the INT/FP32 cores;
//   IVOC      — invalid opcode: immediate device exception.
// IPP is represented by the other models (as in the paper).
#pragma once

#include <array>

#include "arch/machine.hpp"
#include "common/rng.hpp"
#include "errmodel/models.hpp"

namespace gpf::perfi {

/// Instrumenter realizing one error descriptor during execution. A permanent
/// error: every matching instruction on the target SM/PPB/warps is corrupted.
class ErrorInjector final : public arch::MachineHooks {
 public:
  explicit ErrorInjector(errmodel::ErrorDescriptor desc) : d_(desc) {}

  const errmodel::ErrorDescriptor& descriptor() const { return d_; }

  void pre_execute(arch::ExecCtx& ctx) override;
  void post_execute(arch::ExecCtx& ctx) override;
  /// The corruption depends on the descriptor and the issuing instruction
  /// only; saved_ lives from one issue's pre_execute to its post_execute.
  bool cycle_invariant() const override { return true; }

 private:
  bool targets(const arch::ExecCtx& ctx) const;
  std::uint32_t lane_set(const arch::ExecCtx& ctx) const;

  errmodel::ErrorDescriptor d_;
  // Save/restore state for the two-part error functions (IAL disable).
  struct Saved {
    bool active = false;
    unsigned lane = 0;
    std::uint32_t value = 0;
  };
  std::array<Saved, arch::kWarpSize> saved_{};
  std::uint8_t saved_reg_ = 0;
};

/// Random, reproducible error descriptor targeting SM0/PPB0, mirroring the
/// paper's sampling (random warp slots, lanes, bit masks, operand positions).
errmodel::ErrorDescriptor random_descriptor(errmodel::ErrorModel model, Rng& rng,
                                            unsigned regs_per_thread = 32);

}  // namespace gpf::perfi
