// RTL-level fault descriptors and the MachineHooks overlays that realize
// them on the functional GPU model:
//  - functional-unit faults ride on the softfloat bus overlay (SoftExec);
//  - pipeline-register faults model an 8-lane-wide latch bundle (each latch
//    serves 4 warp beats: threads l, l+8, l+16, l+24) with ~84% of bits
//    holding operands/results and the rest control (instruction word,
//    active-mask, PC, warp-select) — the paper's observed split;
//  - scheduler faults are persistent stuck-at bits in the warp state table
//    (active masks, done/barrier bits, stored PCs) and the select lines.
#pragma once

#include <cstdint>

#include "arch/machine.hpp"
#include "softfloat/buses.hpp"

namespace gpf::rtl {

inline constexpr unsigned kPipeLanes = 8;  ///< FU width: one latch per 4 beats

/// Fault activation in time. The paper's methodology "can be adapted to
/// other fault models (delay, intermittent, or transient faults)" — this is
/// that adaptation: the same fault descriptors gated by a temporal profile.
struct FaultTiming {
  enum class Mode : std::uint8_t {
    Permanent,     ///< active every cycle (the paper's model)
    Intermittent,  ///< active on a deterministic fraction of cycles
    Transient,     ///< active only within [onset, onset + duration)
  };
  Mode mode = Mode::Permanent;
  double duty = 0.1;                ///< Intermittent: fraction of active cycles
  std::uint64_t onset = 0;          ///< Transient window start (cycles)
  std::uint64_t duration = 1;       ///< Transient window length
  std::uint64_t seed = 0x1234;      ///< Intermittent sampling stream

  bool active(std::uint64_t cycle) const;
};

struct PipelineFault {
  enum class Field : std::uint8_t {
    OperandA, OperandB, OperandC,  ///< per-latch operand bits (data portion)
    Result,                        ///< per-latch result bits (data portion)
    InstrWord,                     ///< latched instruction word (control)
    ExecMask,                      ///< latched active mask (control)
    PcLatch,                       ///< latched PC (control)
    WarpSel,                       ///< warp-select lines (control)
  };
  Field field = Field::OperandA;
  unsigned lane = 0;  ///< 0..7, for per-latch fields
  unsigned bit = 0;
  bool stuck_high = false;

  bool is_control() const {
    return field == Field::InstrWord || field == Field::ExecMask ||
           field == Field::PcLatch || field == Field::WarpSel;
  }
};

struct SchedulerFault {
  enum class Field : std::uint8_t {
    ActiveMask,   ///< per-warp state bits enabling/disabling threads
    DoneBit,
    BarrierBit,
    StoredPc,     ///< per-warp PC state (the paper's "memory addresses")
    SelSlot,      ///< warp-select output lines (shared)
    GroupEnable,  ///< shared 8-thread dispatch-group enables (4 lines) —
                  ///< the signals whose corruption hits many threads of
                  ///< every issued warp (paper: ~28 threads/warp)
    MaskOut,      ///< shared mask-output bus towards dispatch (32 lines)
    MaskWordLine, ///< per-warp mask-register word line: stuck-low reads the
                  ///< mask as all-zero (whole warp silently disabled),
                  ///< stuck-high as all-ones (inactive threads enabled) —
                  ///< the whole-warp corruptions behind the paper's ~28
                  ///< corrupted threads per warp
  };
  Field field = Field::ActiveMask;
  unsigned slot = 0;  ///< warp slot, for per-warp fields
  unsigned bit = 0;
  bool stuck_high = false;
};

/// Hook applying one pipeline-register stuck-at during every issue.
class PipelineFaultHook final : public arch::MachineHooks {
 public:
  explicit PipelineFaultHook(PipelineFault f, FaultTiming timing = {})
      : f_(f), timing_(timing) {}

  std::uint64_t post_fetch_word(arch::Gpu&, unsigned, unsigned, unsigned,
                                std::uint64_t word) override;
  std::uint32_t post_fetch_pc(arch::Gpu&, unsigned, unsigned, unsigned,
                              std::uint32_t pc) override;
  int post_select(arch::Gpu&, unsigned, unsigned, int slot) override;
  void pre_execute(arch::ExecCtx& ctx) override;
  void post_execute(arch::ExecCtx& ctx) override;
  /// A permanent fault is active every cycle, and the operand save/restore
  /// state lives within one issue: the effect depends on machine state only.
  bool cycle_invariant() const override {
    return timing_.mode == FaultTiming::Mode::Permanent;
  }

 private:
  std::uint32_t stuck32(std::uint32_t v) const {
    const std::uint32_t m = 1u << f_.bit;
    return f_.stuck_high ? (v | m) : (v & ~m);
  }

  PipelineFault f_;
  FaultTiming timing_;
  // Save/restore for transient operand-latch corruption.
  struct Saved {
    bool active = false;
    unsigned lane = 0;
    std::uint8_t reg = 0;
    std::uint32_t value = 0;
  };
  Saved saved_[4];
  std::uint8_t corrupted_src_reg_ = 0;
  bool src_is_rd_ = false;
};

/// Hook applying one persistent scheduler-state stuck-at every cycle.
class SchedulerFaultHook final : public arch::MachineHooks {
 public:
  explicit SchedulerFaultHook(SchedulerFault f, FaultTiming timing = {})
      : f_(f), timing_(timing) {}

  void pre_cycle(arch::Gpu& gpu, unsigned sm, unsigned ppb) override;
  int post_select(arch::Gpu&, unsigned, unsigned, int slot) override;
  void pre_execute(arch::ExecCtx& ctx) override;
  /// A permanent stuck-at acts on the machine state alone.
  bool cycle_invariant() const override {
    return timing_.mode == FaultTiming::Mode::Permanent;
  }

 private:
  SchedulerFault f_;
  FaultTiming timing_;
};

}  // namespace gpf::rtl
