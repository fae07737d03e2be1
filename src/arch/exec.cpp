#include "arch/exec.hpp"

#include <cmath>

#include "common/bitops.hpp"
#include "softfloat/fp32.hpp"
#include "softfloat/intops.hpp"
#include "softfloat/sfu.hpp"

namespace gpf::arch {

using isa::Op;

void ExecUnit::alu_warp(Op op, const LaneRow& a, const LaneRow& b, const LaneRow& c,
                        LaneRow& out, std::uint32_t mask) {
  for (unsigned lane = 0; lane < kWarpSize; ++lane)
    if ((mask >> lane) & 1) out[lane] = alu(op, a[lane], b[lane], c[lane], lane);
}

namespace {

// FastExec's semantics, one lane function per op: `apply` receives the
// function for `op`, so the per-lane and the per-warp entry points share one
// switch. Every function is defined for any operand bits (IABS negates
// unsigned), since alu_warp also evaluates lanes outside the mask.
template <class Apply>
auto with_fast_op(Op op, Apply&& apply) {
  using U = std::uint32_t;
  auto s32 = [](U v) { return static_cast<std::int32_t>(v); };
  switch (op) {
    case Op::IADD: return apply([](U a, U b, U) { return a + b; });
    case Op::ISUB: return apply([](U a, U b, U) { return a - b; });
    case Op::IMUL: return apply([](U a, U b, U) { return a * b; });
    case Op::IMAD: return apply([](U a, U b, U c) { return a * b + c; });
    case Op::IMIN: return apply([=](U a, U b, U) { return s32(a) < s32(b) ? a : b; });
    case Op::IMAX: return apply([=](U a, U b, U) { return s32(a) > s32(b) ? a : b; });
    case Op::IABS: return apply([=](U a, U, U) { return s32(a) < 0 ? 0u - a : a; });
    case Op::SHL: return apply([](U a, U b, U) { return b >= 32 ? 0u : a << b; });
    case Op::SHR: return apply([](U a, U b, U) { return b >= 32 ? 0u : a >> b; });
    case Op::SHRA:
      return apply([=](U a, U b, U) { return static_cast<U>(s32(a) >> (b >= 32 ? 31 : b)); });
    case Op::LOP_AND: return apply([](U a, U b, U) { return a & b; });
    case Op::LOP_OR: return apply([](U a, U b, U) { return a | b; });
    case Op::LOP_XOR: return apply([](U a, U b, U) { return a ^ b; });
    case Op::LOP_NOT: return apply([](U a, U, U) { return ~a; });

    case Op::FADD: return apply([](U a, U b, U) { return f32_bits(bits_f32(a) + bits_f32(b)); });
    case Op::FMUL: return apply([](U a, U b, U) { return f32_bits(bits_f32(a) * bits_f32(b)); });
    case Op::FFMA:
      return apply([](U a, U b, U c) {
        return f32_bits(std::fmaf(bits_f32(a), bits_f32(b), bits_f32(c)));
      });
    case Op::FMIN:
      return apply([](U a, U b, U) { return f32_bits(std::fmin(bits_f32(a), bits_f32(b))); });
    case Op::FMAX:
      return apply([](U a, U b, U) { return f32_bits(std::fmax(bits_f32(a), bits_f32(b))); });
    case Op::F2I: return apply([](U a, U, U) { return sf::f2i(a); });
    case Op::I2F: return apply([=](U a, U, U) { return f32_bits(static_cast<float>(s32(a))); });

    // SFU ops use the same polynomial pipeline as SoftExec so golden outputs
    // are identical across backends.
    case Op::FSIN: return apply([](U a, U, U) { return sf::sfu_eval(sf::SfuFunc::Sin, a); });
    case Op::FEXP: return apply([](U a, U, U) { return sf::sfu_eval(sf::SfuFunc::Exp2, a); });
    case Op::FRCP: return apply([](U a, U, U) { return sf::sfu_eval(sf::SfuFunc::Rcp, a); });
    case Op::FSQRT: return apply([](U a, U, U) { return sf::sfu_eval(sf::SfuFunc::Sqrt, a); });
    case Op::FLG2: return apply([](U a, U, U) { return sf::sfu_eval(sf::SfuFunc::Lg2, a); });

    default: return apply([](U, U, U) { return 0u; });
  }
}

}  // namespace

std::uint32_t FastExec::alu(Op op, std::uint32_t a, std::uint32_t b, std::uint32_t c,
                            unsigned /*lane*/) {
  return with_fast_op(op, [&](auto f) { return f(a, b, c); });
}

void FastExec::alu_warp(Op op, const LaneRow& a, const LaneRow& b, const LaneRow& c,
                        LaneRow& out, std::uint32_t /*mask*/) {
  with_fast_op(op, [&](auto f) {
    for (unsigned lane = 0; lane < kWarpSize; ++lane) out[lane] = f(a[lane], b[lane], c[lane]);
  });
}

std::uint32_t SoftExec::alu(Op op, std::uint32_t a, std::uint32_t b, std::uint32_t c,
                            unsigned lane) {
  const sf::BusFaultSet* lf = lane_faults_[lane % kWarpSize];
  switch (op) {
    case Op::IADD: return sf::iadd(a, b, lf);
    case Op::ISUB: return sf::isub(a, b, lf);
    case Op::IMUL: return sf::imul(a, b, lf);
    case Op::IMAD: return sf::imad(a, b, c, lf);
    case Op::IMIN: return sf::imin(a, b, lf);
    case Op::IMAX: return sf::imax(a, b, lf);

    case Op::FADD: return sf::fadd(a, b, lf);
    case Op::FMUL: return sf::fmul(a, b, lf);
    case Op::FFMA: return sf::ffma(a, b, c, lf);
    case Op::FMIN: return sf::fmin(a, b, lf);
    case Op::FMAX: return sf::fmax(a, b, lf);
    case Op::F2I: return sf::f2i(a, lf);
    case Op::I2F: return sf::i2f(a, lf);

    case Op::FSIN: case Op::FEXP: case Op::FRCP: case Op::FSQRT: case Op::FLG2: {
      const sf::BusFaultSet* sfb = sfu_faults_[sfu_of_lane(lane) % sfu_count_];
      sf::SfuFunc fn = sf::SfuFunc::Sin;
      if (op == Op::FEXP) fn = sf::SfuFunc::Exp2;
      if (op == Op::FRCP) fn = sf::SfuFunc::Rcp;
      if (op == Op::FSQRT) fn = sf::SfuFunc::Sqrt;
      if (op == Op::FLG2) fn = sf::SfuFunc::Lg2;
      return sf::sfu_eval(fn, a, sfb);
    }

    // Pure-logic ops share the fast path (no separately modelled datapath).
    default: {
      FastExec fast;
      return fast.alu(op, a, b, c, lane);
    }
  }
}

const char* trap_name(TrapKind k) {
  switch (k) {
    case TrapKind::None: return "none";
    case TrapKind::InvalidOpcode: return "invalid-opcode";
    case TrapKind::InvalidRegister: return "invalid-register";
    case TrapKind::IllegalAddress: return "illegal-address";
    case TrapKind::StackOverflow: return "stack-overflow";
    case TrapKind::InvalidPC: return "invalid-pc";
    case TrapKind::Watchdog: return "watchdog-hang";
  }
  return "?";
}

}  // namespace gpf::arch
