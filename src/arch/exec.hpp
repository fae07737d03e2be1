// Execution-unit backends. FastExec uses host arithmetic (PERfi campaigns);
// SoftExec routes through the bit-accurate datapaths in src/softfloat and
// honours per-lane / per-SFU fault overlays (RTL campaigns).
#pragma once

#include <array>
#include <cstdint>

#include "arch/types.hpp"
#include "isa/opcode.hpp"
#include "softfloat/buses.hpp"

namespace gpf::arch {

/// One 32-bit value per lane of a warp: a register row of the register file.
using LaneRow = std::array<std::uint32_t, kWarpSize>;

class ExecUnit {
 public:
  virtual ~ExecUnit() = default;
  /// Evaluate a (non-memory, non-control) operation for one lane.
  virtual std::uint32_t alu(isa::Op op, std::uint32_t a, std::uint32_t b,
                            std::uint32_t c, unsigned lane) = 0;
  /// Evaluate the operation for every lane in `mask`; out[l] = alu(op, a[l],
  /// b[l], c[l], l) there. Lanes outside `mask` may hold anything. The base
  /// calls alu lane by lane, so per-lane fault overlays stay exact.
  virtual void alu_warp(isa::Op op, const LaneRow& a, const LaneRow& b, const LaneRow& c,
                        LaneRow& out, std::uint32_t mask);
};

/// Host-arithmetic backend (bitwise-compatible with SoftExec for normal-range
/// values; FTZ differences only appear with subnormals).
class FastExec final : public ExecUnit {
 public:
  std::uint32_t alu(isa::Op op, std::uint32_t a, std::uint32_t b, std::uint32_t c,
                    unsigned lane) override;
  /// One switch per call, then a plain loop over all 32 lanes.
  void alu_warp(isa::Op op, const LaneRow& a, const LaneRow& b, const LaneRow& c,
                LaneRow& out, std::uint32_t mask) override;
};

/// Bit-accurate backend with stuck-at overlays. A fault set can be installed
/// per lane (per-lane INT/FP32 cores) or per SFU (lanes share SFUs in blocks
/// of kWarpSize / sfus_per_ppb — the sharing that makes SFU control faults
/// corrupt multiple threads).
class SoftExec final : public ExecUnit {
 public:
  explicit SoftExec(unsigned sfu_count = 2) : sfu_count_(sfu_count) {}

  void set_lane_fault(unsigned lane, const sf::BusFaultSet* f) { lane_faults_[lane] = f; }
  void set_sfu_fault(unsigned sfu, const sf::BusFaultSet* f) { sfu_faults_[sfu] = f; }
  unsigned sfu_of_lane(unsigned lane) const {
    return lane / (kWarpSize / sfu_count_);
  }

  std::uint32_t alu(isa::Op op, std::uint32_t a, std::uint32_t b, std::uint32_t c,
                    unsigned lane) override;

 private:
  unsigned sfu_count_;
  std::array<const sf::BusFaultSet*, kWarpSize> lane_faults_{};
  std::array<const sf::BusFaultSet*, 8> sfu_faults_{};
};

}  // namespace gpf::arch
