#include "arch/machine.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>

#include "common/bitops.hpp"
#include "obs/metrics.hpp"

namespace gpf::arch {

using isa::Instruction;
using isa::MemSpace;
using isa::Op;

namespace {
constexpr unsigned kPhysRegsPerThread = 64;  // physical register window per thread
constexpr std::size_t kRegWindow = std::size_t{kPhysRegsPerThread} * kWarpSize;  // per warp
static_assert((kPhysRegsPerThread & (kPhysRegsPerThread - 1)) == 0 &&
              (kWarpSize & (kWarpSize - 1)) == 0);

/// The lanes for which a SETP op's comparison of a and b holds.
std::uint32_t compare_warp(Op op, const LaneRow& a, const LaneRow& b) {
  std::uint32_t set = 0;
  auto each = [&](auto holds) {
    for (unsigned lane = 0; lane < kWarpSize; ++lane)
      set |= static_cast<std::uint32_t>(holds(a[lane], b[lane])) << lane;
  };
  using U = std::uint32_t;
  if (isa::is_float(op)) {
    auto f = [](U v) { return bits_f32(v); };
    switch (isa::cmp_of(op)) {
      case isa::Cmp::LT: each([&](U x, U y) { return f(x) < f(y); }); break;
      case isa::Cmp::LE: each([&](U x, U y) { return f(x) <= f(y); }); break;
      case isa::Cmp::GT: each([&](U x, U y) { return f(x) > f(y); }); break;
      case isa::Cmp::GE: each([&](U x, U y) { return f(x) >= f(y); }); break;
      case isa::Cmp::EQ: each([&](U x, U y) { return f(x) == f(y); }); break;
      default: each([&](U x, U y) { return f(x) != f(y); }); break;
    }
  } else {
    auto i = [](U v) { return static_cast<std::int32_t>(v); };
    switch (isa::cmp_of(op)) {
      case isa::Cmp::LT: each([&](U x, U y) { return i(x) < i(y); }); break;
      case isa::Cmp::LE: each([&](U x, U y) { return i(x) <= i(y); }); break;
      case isa::Cmp::GT: each([&](U x, U y) { return i(x) > i(y); }); break;
      case isa::Cmp::GE: each([&](U x, U y) { return i(x) >= i(y); }); break;
      case isa::Cmp::EQ: each([&](U x, U y) { return x == y; }); break;
      case isa::Cmp::LTU: each([&](U x, U y) { return x < y; }); break;
      case isa::Cmp::GEU: each([&](U x, U y) { return x >= y; }); break;
      default: each([&](U x, U y) { return x != y; }); break;
    }
  }
  return set;
}

/// Per-launch totals, added once per launch (a cut launch adds the totals it
/// extrapolated).
void count_launch(const LaunchResult& res) {
  static obs::Counter& launches = obs::counter("arch.launches");
  static obs::Counter& instructions = obs::counter("arch.instructions");
  static obs::Counter& cycles = obs::counter("arch.cycles");
  launches.add();
  instructions.add(res.instructions);
  cycles.add(res.cycles);
}
}  // namespace

// ---------------------------------------------------------------------------
// ExecCtx register/predicate accessors
// ---------------------------------------------------------------------------

std::uint32_t ExecCtx::read_reg(unsigned lane, std::uint8_t r) {
  if (r == isa::kRZ) return 0;
  if (r >= gpu_.prog_->regs_per_thread) {
    pending_trap = TrapKind::InvalidRegister;
    return 0;
  }
  return gpu_.reg_at(sm_id, ppb_id, warp_.slot, lane, r);
}

void ExecCtx::write_reg(unsigned lane, std::uint8_t r, std::uint32_t v) {
  if (r == isa::kRZ) return;
  if (r >= gpu_.prog_->regs_per_thread) {
    pending_trap = TrapKind::InvalidRegister;
    return;
  }
  gpu_.reg_at(sm_id, ppb_id, warp_.slot, lane, r) = v;
}

bool ExecCtx::read_pred(unsigned lane, std::uint8_t p) const {
  p &= 0x7;
  if (p >= isa::kNumPredicates) return true;  // PT
  return (warp_.preds[lane] >> p) & 1;
}

void ExecCtx::write_pred(unsigned lane, std::uint8_t p, bool v) {
  p &= 0x7;
  if (p >= isa::kNumPredicates) return;  // PT is not writable
  warp_.preds[lane] = static_cast<std::uint8_t>(
      v ? (warp_.preds[lane] | (1u << p)) : (warp_.preds[lane] & ~(1u << p)));
}

// ---------------------------------------------------------------------------
// GlobalMemory
// ---------------------------------------------------------------------------

GlobalMemory::GlobalMemory(std::size_t words) : size_(words) {
  if (words == 0) return;
  void* p = mmap(nullptr, words * sizeof(std::uint32_t), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  // Kernels touch a few scattered pages; a huge page would zero 2 MB for each.
  madvise(p, words * sizeof(std::uint32_t), MADV_NOHUGEPAGE);
  words_ = static_cast<std::uint32_t*>(p);
}

GlobalMemory::~GlobalMemory() {
  if (words_) munmap(words_, size_ * sizeof(std::uint32_t));
}

void GlobalMemory::clear() {
  // Dropping the pages of a private anonymous mapping makes them read zero.
  if (words_ && madvise(words_, size_ * sizeof(std::uint32_t), MADV_DONTNEED) != 0)
    std::memset(words_, 0, size_ * sizeof(std::uint32_t));
}

bool operator==(const GlobalMemory& a, const GlobalMemory& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

// ---------------------------------------------------------------------------
// Gpu
// ---------------------------------------------------------------------------

Gpu::Gpu(GpuConfig cfg) : cfg_(cfg), global_(cfg.global_words) {
  const_.assign(cfg_.const_words, 0);
  sms_.resize(cfg_.num_sms);
  for (Sm& sm : sms_) {
    sm.ppbs.resize(cfg_.ppbs_per_sm);
    for (Ppb& ppb : sm.ppbs) {
      ppb.warps.resize(cfg_.max_warps_per_ppb);
      for (unsigned s = 0; s < cfg_.max_warps_per_ppb; ++s) ppb.warps[s].slot = s;
      ppb.regfile.assign(
          static_cast<std::size_t>(cfg_.max_warps_per_ppb) * kPhysRegsPerThread * kWarpSize, 0);
      ppb.local.assign(static_cast<std::size_t>(cfg_.max_warps_per_ppb) * kWarpSize *
                           cfg_.local_words_per_thread, 0);
    }
  }
}

void Gpu::write_global(std::size_t addr, std::span<const std::uint32_t> data) {
  if (addr + data.size() > global_.size())
    throw std::out_of_range("write_global out of bounds");
  reserve_global(addr, data.size());
  std::copy(data.begin(), data.end(), global_.begin() + static_cast<std::ptrdiff_t>(addr));
}

void Gpu::write_global_f(std::size_t addr, std::span<const float> data) {
  if (addr + data.size() > global_.size())
    throw std::out_of_range("write_global_f out of bounds");
  reserve_global(addr, data.size());
  for (std::size_t i = 0; i < data.size(); ++i) global_[addr + i] = f32_bits(data[i]);
}

void Gpu::reserve_global(std::size_t addr, std::size_t words) {
  if (words == 0) return;
  if (addr + words > global_.size())
    throw std::out_of_range("reserve_global out of bounds");
  // Absorb every segment the range overlaps or touches. Segments stay
  // disjoint and apart, so one pass finds them all; the merged segment takes
  // the place of the first.
  std::size_t lo = addr, hi = addr + words;
  auto merged = segments_.end();
  for (auto it = segments_.begin(); it != segments_.end();) {
    const auto [base, size] = *it;
    if (lo > base + size || base > hi) {
      ++it;
      continue;
    }
    lo = std::min(lo, base);
    hi = std::max(hi, base + size);
    if (merged == segments_.end()) {
      merged = it++;
    } else {
      it = segments_.erase(it);
    }
  }
  if (merged == segments_.end())
    segments_.emplace_back(lo, hi - lo);
  else
    *merged = {lo, hi - lo};
}

bool Gpu::global_addr_valid(std::uint64_t addr) const {
  if (addr >= global_.size()) return false;
  if (segments_.empty()) return true;  // bare-metal mode
  for (const auto& [base, size] : segments_)
    if (addr >= base && addr < base + size) return true;
  return false;
}

std::vector<float> Gpu::read_global_f(std::size_t addr, std::size_t n) const {
  if (addr + n > global_.size()) throw std::out_of_range("read_global_f out of bounds");
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = bits_f32(global_[addr + i]);
  return out;
}

void Gpu::clear_memories() {
  global_.clear();
  std::fill(const_.begin(), const_.end(), 0u);
  segments_.clear();
}

Gpu::MemoryImage Gpu::save_memory() const {
  MemoryImage image;
  image.segments = segments_;
  for (const auto& [base, size] : segments_)
    image.words.insert(image.words.end(), global_.begin() + static_cast<std::ptrdiff_t>(base),
                       global_.begin() + static_cast<std::ptrdiff_t>(base + size));
  return image;
}

void Gpu::restore_memory(const MemoryImage& image) {
  for (const auto& [base, size] : segments_)
    std::fill_n(global_.begin() + static_cast<std::ptrdiff_t>(base), size, 0u);
  segments_ = image.segments;
  auto src = image.words.begin();
  for (const auto& [base, size] : segments_) {
    std::copy_n(src, size, global_.begin() + static_cast<std::ptrdiff_t>(base));
    src += static_cast<std::ptrdiff_t>(size);
  }
}

std::uint32_t& Gpu::reg_at(unsigned sm, unsigned ppb, unsigned slot, unsigned lane,
                           unsigned reg) {
  const std::size_t idx = static_cast<std::size_t>(slot) * kRegWindow +
                          (reg & (kPhysRegsPerThread - 1)) * kWarpSize +
                          (lane & (kWarpSize - 1));
  return sms_[sm].ppbs[ppb].regfile[idx];
}

void Gpu::raise_trap(TrapKind kind, std::uint32_t pc) {
  if (trap_ == TrapKind::None) {
    trap_ = kind;
    trap_pc_ = pc;
  }
}

// ---------------------------------------------------------------------------
// CTA management
// ---------------------------------------------------------------------------

void Gpu::init_cta(unsigned sm_i, unsigned cta_x, unsigned cta_y) {
  Sm& sm = sms_[sm_i];
  sm.cta.active = true;
  sm.cta.cta_x = cta_x;
  sm.cta.cta_y = cta_y;
  sm.cta.shared.assign(prog_->shared_words, 0);

  const unsigned threads = block_.count();
  const unsigned warps = (threads + kWarpSize - 1) / kWarpSize;
  sm.cta.expected_warps = warps;

  const unsigned ppbs = static_cast<unsigned>(sm.ppbs.size());
  for (unsigned w = 0; w < warps; ++w) {
    const unsigned ppb_i = w % ppbs;
    const unsigned slot = w / ppbs;
    Ppb& ppb = sm.ppbs[ppb_i];
    Warp& warp = ppb.warps.at(slot);
    warp.valid = true;
    warp.done = false;
    warp.at_barrier = false;
    warp.warp_in_cta = w;
    warp.cta_x = cta_x;
    warp.cta_y = cta_y;
    warp.preds.fill(0);

    std::uint32_t mask = 0;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
      const unsigned tid = w * kWarpSize + lane;
      if (tid >= threads) break;
      mask |= 1u << lane;
      warp.tid_x[lane] = static_cast<std::uint16_t>(tid % block_.x);
      warp.tid_y[lane] = static_cast<std::uint16_t>((tid / block_.x) % block_.y);
      warp.tid_z[lane] = static_cast<std::uint16_t>(tid / (block_.x * block_.y));
    }
    warp.exist_mask = mask;
    warp.stack.assign(1, SimtEntry{0, kNoReconv, mask});

    // Zero the warp's register and local-memory windows: a launch never
    // sees what an earlier launch or injection left there.
    std::fill_n(ppb.regfile.begin() + static_cast<std::ptrdiff_t>(slot * kRegWindow),
                kRegWindow, 0u);
    const std::size_t local_window = kWarpSize * cfg_.local_words_per_thread;
    std::fill_n(ppb.local.begin() + static_cast<std::ptrdiff_t>(slot * local_window),
                local_window, 0u);
  }
}

void Gpu::release_barriers(unsigned sm_i) {
  Sm& sm = sms_[sm_i];
  if (!sm.cta.active) return;
  unsigned at_barrier = 0;
  for (const Ppb& ppb : sm.ppbs)
    for (const Warp& w : ppb.warps)
      if (w.valid && w.at_barrier) ++at_barrier;
  // All warps of the CTA must arrive. A warp that exited early can never
  // arrive, which deadlocks the barrier — the watchdog then reports a hang,
  // matching real-GPU behaviour for corrupted control flow.
  if (at_barrier == sm.cta.expected_warps) {
    for (Ppb& ppb : sm.ppbs)
      for (Warp& w : ppb.warps)
        if (w.valid) w.at_barrier = false;
  }
}

bool Gpu::sm_idle(unsigned sm_i) const {
  const Sm& sm = sms_[sm_i];
  if (!sm.cta.active) return true;
  for (const Ppb& ppb : sm.ppbs)
    for (const Warp& w : ppb.warps)
      if (w.valid && !w.done) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Scheduling / fetch / decode / execute
// ---------------------------------------------------------------------------

int Gpu::select_warp(unsigned sm_i, unsigned ppb_i) {
  Ppb& ppb = sms_[sm_i].ppbs[ppb_i];
  const unsigned n = static_cast<unsigned>(ppb.warps.size());
  for (unsigned k = 0; k < n; ++k) {
    const unsigned slot = (ppb.rr_next + k) % n;
    if (ppb.warps[slot].ready()) {
      ppb.rr_next = (slot + 1) % n;
      return static_cast<int>(slot);
    }
  }
  return -1;
}

bool Gpu::step_ppb(unsigned sm_i, unsigned ppb_i, LaunchResult& res) {
  if (hooks_) hooks_->pre_cycle(*this, sm_i, ppb_i);

  int slot = select_warp(sm_i, ppb_i);
  if (hooks_) slot = hooks_->post_select(*this, sm_i, ppb_i, slot);
  Ppb& ppb = sms_[sm_i].ppbs[ppb_i];
  if (slot < 0 || slot >= static_cast<int>(ppb.warps.size())) return false;
  Warp& w = ppb.warps[static_cast<unsigned>(slot)];
  if (!w.valid || w.done || w.stack.empty()) return false;

  // Reconvergence: pop entries whose PC reached their reconvergence point.
  while (w.stack.size() > 1 &&
         (w.stack.back().pc == w.stack.back().reconv_pc || w.stack.back().mask == 0))
    w.stack.pop_back();

  std::uint32_t pc = w.pc();
  if (hooks_) {
    const std::uint32_t pc2 =
        hooks_->post_fetch_pc(*this, sm_i, ppb_i, static_cast<unsigned>(slot), pc);
    if (pc2 != pc) {
      pc = pc2;
      w.stack.back().pc = pc;  // the warp's PC register itself is corrupted
    }
  }
  if (pc >= prog_->words.size()) {
    raise_trap(TrapKind::InvalidPC, pc);
    return false;
  }

  std::uint64_t word = prog_->words[pc];
  if (hooks_)
    word = hooks_->post_fetch_word(*this, sm_i, ppb_i, static_cast<unsigned>(slot), word);

  isa::DecodeResult dec = isa::decode(word);
  bool ok = dec.ok;
  if (hooks_) hooks_->post_decode(*this, sm_i, ppb_i, dec.instr, ok);
  if (!ok) {
    raise_trap(TrapKind::InvalidOpcode, pc);
    return false;
  }

  ExecCtx ctx(*this, sm_i, ppb_i, w, pc, dec.instr);
  // Guard: PT passes every active lane (and !PT none); Pn those whose bit n
  // is set (or clear, negated).
  const isa::Instruction& in = ctx.instr;
  std::uint32_t guard = in.guard_neg ? 0u : ~0u;
  if (in.guard_pred < isa::kNumPredicates) {
    std::uint32_t set = 0;
    for (unsigned lane = 0; lane < kWarpSize; ++lane)
      set |= static_cast<std::uint32_t>((w.preds[lane] >> in.guard_pred) & 1) << lane;
    guard = in.guard_neg ? ~set : set;
  }
  ctx.exec_mask = w.active_mask() & guard;

  if (hooks_) hooks_->pre_execute(ctx);
  if (!ctx.skip) execute(ctx);
  if (hooks_ && ctx.pending_trap == TrapKind::None) hooks_->post_execute(ctx);
  if (ctx.pending_trap != TrapKind::None) {
    raise_trap(ctx.pending_trap, pc);
    return false;
  }

  ++res.instructions;
  ++res.unit_issues[static_cast<unsigned>(isa::unit_of(ctx.instr.op))];
  return true;
}

void Gpu::execute(ExecCtx& ctx) {
  Warp& w = ctx.warp();
  const std::uint32_t pc = w.stack.back().pc;  // may differ from ctx.pc under faults
  const Instruction& in = ctx.instr;

  switch (in.op) {
    case Op::BRA: {
      const std::uint32_t taken = ctx.exec_mask;
      const std::uint32_t not_taken = w.active_mask() & ~taken;
      SimtEntry& tos = w.stack.back();
      if (taken == 0) {
        tos.pc = pc + 1;
      } else if (not_taken == 0) {
        tos.pc = in.imm;
      } else {
        if (w.stack.size() >= kMaxStackDepth) {
          ctx.pending_trap = TrapKind::StackOverflow;
          return;
        }
        tos.mask = not_taken;
        tos.pc = pc + 1;
        w.stack.push_back(SimtEntry{in.imm, tos.reconv_pc, taken});
      }
      return;
    }
    case Op::SSY: {
      if (w.stack.size() >= kMaxStackDepth) {
        ctx.pending_trap = TrapKind::StackOverflow;
        return;
      }
      const SimtEntry tos = w.stack.back();
      w.stack.back() = SimtEntry{in.imm, tos.reconv_pc, tos.mask};  // join entry
      w.stack.push_back(SimtEntry{pc + 1, in.imm, tos.mask});       // continue entry
      return;
    }
    case Op::EXIT: {
      const std::uint32_t dying = ctx.exec_mask;
      const std::size_t tos_idx = w.stack.size() - 1;
      for (SimtEntry& e : w.stack) e.mask &= ~dying;
      while (!w.stack.empty() && w.stack.back().mask == 0) w.stack.pop_back();
      if (w.stack.empty()) {
        w.done = true;
      } else if (w.stack.size() - 1 == tos_idx) {
        w.stack.back().pc = pc + 1;  // surviving lanes of the current entry
      }
      return;
    }
    case Op::BAR:
      // Predicated-off barriers do not arrive (a warp whose lanes are all
      // guarded off skips the barrier — the source of barrier mismatches).
      if (ctx.exec_mask != 0) w.at_barrier = true;
      w.stack.back().pc = pc + 1;
      return;
    case Op::NOP:
      w.stack.back().pc = pc + 1;
      return;
    default:
      execute_warp(ctx);
      if (ctx.pending_trap == TrapKind::None) w.stack.back().pc = pc + 1;
      return;
  }
}

// One issue of a non-control instruction for every lane in exec_mask. The
// per-lane model this replaces visited the lanes in order and trapped at the
// first failing one; the same outcome follows from checking once:
//  - a register index is the same in every lane, so a bad one (>=
//    regs_per_thread, not RZ) traps InvalidRegister before any lane writes;
//  - an illegal address is per lane, so LD and ST still walk the lanes in
//    order: the lanes below the first illegal one have loaded or stored.
void Gpu::execute_warp(ExecCtx& ctx) {
  const Instruction& in = ctx.instr;
  const std::uint32_t mask = ctx.exec_mask;
  if (mask == 0 || ctx.pending_trap != TrapKind::None) return;

  const unsigned regs = prog_->regs_per_thread;
  auto bad = [regs](std::uint8_t r) { return r != isa::kRZ && r >= regs; };
  std::uint32_t* const file = sms_[ctx.sm_id].ppbs[ctx.ppb_id].regfile.data() +
                              static_cast<std::size_t>(ctx.warp_.slot) * kRegWindow;
  // Valid only for a register that is neither bad nor RZ.
  auto row = [file](std::uint8_t r) { return file + std::size_t{r} * kWarpSize; };
  // A source row: the immediate, zeros for RZ (or a bad register, which
  // reads 0 where it does not trap first), else a copy of the register.
  auto operand = [&](LaneRow& dst, std::uint8_t r, bool from_imm) {
    if (from_imm)
      dst.fill(in.imm);
    else if (r == isa::kRZ || bad(r))
      dst.fill(0);
    else
      std::memcpy(dst.data(), row(r), sizeof(LaneRow));
  };
  auto merge = [&](std::uint8_t rd, const LaneRow& v) {
    if (rd == isa::kRZ) return;
    std::uint32_t* d = row(rd);
    for (unsigned lane = 0; lane < kWarpSize; ++lane)
      d[lane] = (mask >> lane) & 1 ? v[lane] : d[lane];
  };
  auto trap_if = [&](bool any_bad) {
    if (any_bad) ctx.pending_trap = TrapKind::InvalidRegister;
    return any_bad;
  };
  LaneRow a{}, b{}, c{}, out{};

  switch (in.op) {
    case Op::MOV:
      if (trap_if((!in.use_imm && bad(in.rs1)) || bad(in.rd))) return;
      operand(a, in.rs1, in.use_imm);
      merge(in.rd, a);
      return;
    case Op::SEL: {
      if (trap_if(bad(in.rs1) || (!in.use_imm && bad(in.rs2)) || bad(in.rd))) return;
      operand(a, in.rs1, false);
      operand(b, in.rs2, in.use_imm);
      for (unsigned lane = 0; lane < kWarpSize; ++lane)
        out[lane] = ctx.read_pred(lane, in.rs3) ? a[lane] : b[lane];
      merge(in.rd, out);
      return;
    }
    case Op::S2R:
      if (trap_if(bad(in.rd))) return;
      for (unsigned lane = 0; lane < kWarpSize; ++lane)
        if ((mask >> lane) & 1) out[lane] = special_value(ctx, lane, in.rs1);
      merge(in.rd, out);
      return;
    case Op::LD: {
      // A bad source reads 0 and still forms an address: the first lane
      // traps IllegalAddress if that address is illegal, InvalidRegister if
      // not. A bad destination traps only once the first load succeeded.
      const bool bad_reg = bad(in.rs1) || (!in.use_imm && bad(in.rs2)) || bad(in.rd);
      operand(a, in.rs1, false);
      operand(b, in.rs2, in.use_imm);
      for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (!((mask >> lane) & 1)) continue;
        const std::uint32_t v =
            mem_read(ctx, in.space, lane, std::uint64_t{a[lane]} + b[lane]);
        if (ctx.pending_trap != TrapKind::None || trap_if(bad_reg)) return;
        if (in.rd != isa::kRZ) row(in.rd)[lane] = v;
      }
      return;
    }
    case Op::ST: {
      if (trap_if(bad(in.rs1) || (!in.use_imm && bad(in.rs2)) || bad(in.rd))) return;
      operand(a, in.rs1, false);
      operand(b, in.rs2, in.use_imm);
      operand(c, in.rd, false);
      for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        if (!((mask >> lane) & 1)) continue;
        mem_write(ctx, in.space, lane, std::uint64_t{a[lane]} + b[lane], c[lane]);
        if (ctx.pending_trap != TrapKind::None) return;
      }
      return;
    }
    default:
      break;
  }

  // ALU, SFU and SETP ops. rs1 is read whenever the op has a source, even
  // when an immediate replaces it.
  const int srcs = isa::num_sources(in.op);
  const bool sets_pred = isa::writes_predicate(in.op);
  const bool sets_reg = !sets_pred && isa::writes_register(in.op);
  const bool imm_b = in.use_imm && srcs == 2, imm_c = in.use_imm && srcs == 3;
  if (trap_if((srcs >= 1 && bad(in.rs1)) || (srcs >= 2 && !imm_b && bad(in.rs2)) ||
              (srcs >= 3 && !imm_c && bad(in.rs3)) || (sets_reg && bad(in.rd))))
    return;
  if (srcs >= 1) operand(a, in.rs1, srcs == 1 && in.use_imm);
  if (srcs >= 2) operand(b, in.rs2, imm_b);
  if (srcs >= 3) operand(c, in.rs3, imm_c);

  if (sets_pred) {
    const std::uint8_t p = in.rd & 0x7;
    if (p >= isa::kNumPredicates) return;  // PT is not writable
    const std::uint32_t set = compare_warp(in.op, a, b);
    const auto bit = static_cast<std::uint8_t>(1u << p);
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
      if (!((mask >> lane) & 1)) continue;
      std::uint8_t& preds = ctx.warp_.preds[lane];
      preds = static_cast<std::uint8_t>((set >> lane) & 1 ? preds | bit : preds & ~bit);
    }
    return;
  }
  if (exec_)
    exec_->alu_warp(in.op, a, b, c, out, mask);
  else
    builtin_exec_.alu_warp(in.op, a, b, c, out, mask);
  if (sets_reg) merge(in.rd, out);
}

std::uint32_t Gpu::mem_read(ExecCtx& ctx, MemSpace space, unsigned lane,
                            std::uint64_t addr) {
  switch (space) {
    case MemSpace::Global:
      if (!global_addr_valid(addr)) {
        ctx.pending_trap = TrapKind::IllegalAddress;
        return 0;
      }
      return global_[addr];
    case MemSpace::Shared: {
      CtaState& cta = sms_[ctx.sm_id].cta;
      if (addr >= cta.shared.size()) {
        ctx.pending_trap = TrapKind::IllegalAddress;
        return 0;
      }
      return cta.shared[addr];
    }
    case MemSpace::Const:
      if (addr >= const_.size()) {
        ctx.pending_trap = TrapKind::IllegalAddress;
        return 0;
      }
      return const_[addr];
    case MemSpace::Local: {
      if (addr >= cfg_.local_words_per_thread) {
        ctx.pending_trap = TrapKind::IllegalAddress;
        return 0;
      }
      Ppb& ppb = sms_[ctx.sm_id].ppbs[ctx.ppb_id];
      const std::size_t idx =
          (static_cast<std::size_t>(ctx.warp().slot) * kWarpSize + lane) *
              cfg_.local_words_per_thread +
          addr;
      return ppb.local[idx];
    }
  }
  return 0;
}

void Gpu::mem_write(ExecCtx& ctx, MemSpace space, unsigned lane, std::uint64_t addr,
                    std::uint32_t value) {
  switch (space) {
    case MemSpace::Global:
      if (!global_addr_valid(addr)) {
        ctx.pending_trap = TrapKind::IllegalAddress;
        return;
      }
      global_[addr] = value;
      return;
    case MemSpace::Shared: {
      CtaState& cta = sms_[ctx.sm_id].cta;
      if (addr >= cta.shared.size()) {
        ctx.pending_trap = TrapKind::IllegalAddress;
        return;
      }
      cta.shared[addr] = value;
      return;
    }
    case MemSpace::Const:
      ctx.pending_trap = TrapKind::IllegalAddress;  // constant memory is read-only
      return;
    case MemSpace::Local: {
      if (addr >= cfg_.local_words_per_thread) {
        ctx.pending_trap = TrapKind::IllegalAddress;
        return;
      }
      Ppb& ppb = sms_[ctx.sm_id].ppbs[ctx.ppb_id];
      const std::size_t idx =
          (static_cast<std::size_t>(ctx.warp().slot) * kWarpSize + lane) *
              cfg_.local_words_per_thread +
          addr;
      ppb.local[idx] = value;
      return;
    }
  }
}

std::uint32_t Gpu::special_value(const ExecCtx& ctx, unsigned lane,
                                 std::uint8_t sr) const {
  const Warp& w = ctx.warp_;
  switch (static_cast<isa::SpecialReg>(sr)) {
    case isa::SpecialReg::TID_X: return w.tid_x[lane];
    case isa::SpecialReg::TID_Y: return w.tid_y[lane];
    case isa::SpecialReg::TID_Z: return w.tid_z[lane];
    case isa::SpecialReg::NTID_X: return block_.x;
    case isa::SpecialReg::NTID_Y: return block_.y;
    case isa::SpecialReg::NTID_Z: return block_.z;
    case isa::SpecialReg::CTAID_X: return w.cta_x;
    case isa::SpecialReg::CTAID_Y: return w.cta_y;
    case isa::SpecialReg::NCTAID_X: return grid_.x;
    case isa::SpecialReg::NCTAID_Y: return grid_.y;
    case isa::SpecialReg::LANEID: return lane;
    case isa::SpecialReg::WARPID: return w.warp_in_cta;
    case isa::SpecialReg::SMID: return ctx.sm_id;
    default: return 0;  // unknown special register reads zero
  }
}

// ---------------------------------------------------------------------------
// Livelock cut
// ---------------------------------------------------------------------------

bool Gpu::livelock_cut_applies() const {
  return (!hooks_ || hooks_->cycle_invariant()) && !exec_ && !segments_.empty();
}

// Calls fn(words, count) for the launch state's bulk memory, in a fixed
// order: the register windows of valid warps (registers at or above
// regs_per_thread trap on access, so only those below count), their
// local-memory windows, then the registered global segments (kernels can
// reach no other global word, and constant memory is read-only).
template <class Fn>
void Gpu::for_each_state_window(Fn&& fn) const {
  auto valid_warp_windows = [&](std::vector<std::uint32_t> Ppb::*mem, std::size_t stride,
                                std::size_t n) {
    for (const Sm& sm : sms_)
      for (const Ppb& ppb : sm.ppbs)
        for (std::size_t slot = 0; slot < ppb.warps.size(); ++slot)
          if (ppb.warps[slot].valid) fn((ppb.*mem).data() + slot * stride, n);
  };
  const std::size_t local_window = kWarpSize * cfg_.local_words_per_thread;
  valid_warp_windows(&Ppb::regfile, kRegWindow, std::size_t{prog_->regs_per_thread} * kWarpSize);
  valid_warp_windows(&Ppb::local, local_window, local_window);
  for (const auto& [base, size] : segments_) fn(global_.data() + base, size);
}

void Gpu::capture(LaunchState& s, unsigned next_cta) const {
  s.next_cta = next_cta;
  s.rr_next.clear();
  s.warps.clear();
  for (const Sm& sm : sms_)
    for (const Ppb& ppb : sm.ppbs) {
      s.rr_next.push_back(ppb.rr_next);
      s.warps.insert(s.warps.end(), ppb.warps.begin(), ppb.warps.end());
    }
  s.ctas.resize(sms_.size());
  for (std::size_t i = 0; i < sms_.size(); ++i) s.ctas[i] = sms_[i].cta;
  s.words.clear();
  for_each_state_window([&](const std::uint32_t* p, std::size_t n) {
    s.words.insert(s.words.end(), p, p + n);
  });
}

bool Gpu::matches(const LaunchState& s, unsigned next_cta) const {
  if (next_cta != s.next_cta) return false;
  std::size_t p = 0, k = 0;
  for (const Sm& sm : sms_)
    for (const Ppb& ppb : sm.ppbs) {
      if (ppb.rr_next != s.rr_next[p++]) return false;
      for (const Warp& w : ppb.warps)
        if (!(w == s.warps[k++])) return false;
    }
  for (std::size_t i = 0; i < sms_.size(); ++i)
    if (!(sms_[i].cta == s.ctas[i])) return false;
  // The valid warps matched, so the windows line up with s.words.
  bool same = true;
  std::size_t off = 0;
  for_each_state_window([&](const std::uint32_t* w, std::size_t n) {
    same = same && off + n <= s.words.size() &&
           std::equal(w, w + n, s.words.begin() + static_cast<std::ptrdiff_t>(off));
    off += n;
  });
  return same && off == s.words.size();
}

// ---------------------------------------------------------------------------
// Launch loop
// ---------------------------------------------------------------------------

LaunchResult Gpu::launch(const isa::Program& prog, Dim3 grid, Dim3 block,
                         std::uint64_t max_cycles) {
  LaunchResult res;
  if (prog.regs_per_thread > kPhysRegsPerThread)
    throw std::invalid_argument("kernel exceeds 64 registers per thread");
  const unsigned warps_per_cta = (block.count() + kWarpSize - 1) / kWarpSize;
  if (warps_per_cta > cfg_.max_warps_per_ppb * cfg_.ppbs_per_sm)
    throw std::invalid_argument("CTA exceeds resident warp capacity");
  if (block.count() == 0 || grid.count() == 0)
    throw std::invalid_argument("empty launch");

  prog_ = &prog;
  grid_ = grid;
  block_ = block;
  cycle_ = 0;
  trap_ = TrapKind::None;
  trap_pc_ = 0;
  for (Sm& sm : sms_) {
    sm.cta.active = false;
    for (Ppb& ppb : sm.ppbs) {
      ppb.rr_next = 0;
      for (Warp& w : ppb.warps) {
        w.valid = false;
        w.done = false;
        w.at_barrier = false;
        w.stack.clear();
      }
    }
  }

  if (hooks_) hooks_->on_launch_begin(*this, prog);

  const std::uint64_t budget = max_cycles ? max_cycles : cfg_.watchdog_cycles;
  const unsigned total_ctas = grid.x * grid.y;
  unsigned next_cta = 0;

  // Livelock cut (Brent): checkpoint the state at kLivelockStart, then at
  // doubling intervals; compare every cycle in between.
  bool cut = livelock_cut_applies();
  bool have_checkpoint = false;
  std::uint64_t next_checkpoint = kLivelockStart, interval = 64;
  LaunchResult at_checkpoint;
  std::uint64_t checkpoint_cycle = 0;

  for (;;) {
    // Retire finished CTAs and dispatch pending ones.
    bool any_active = false;
    for (unsigned s = 0; s < sms_.size(); ++s) {
      if (sms_[s].cta.active && sm_idle(s)) {
        sms_[s].cta.active = false;
        for (Ppb& ppb : sms_[s].ppbs)
          for (Warp& w : ppb.warps) w.valid = false;
      }
      if (!sms_[s].cta.active && next_cta < total_ctas) {
        init_cta(s, next_cta % grid.x, next_cta / grid.x);
        ++next_cta;
      }
      any_active |= sms_[s].cta.active;
    }
    if (!any_active && next_cta >= total_ctas) break;

    for (unsigned s = 0; s < sms_.size(); ++s)
      for (unsigned p = 0; p < sms_[s].ppbs.size(); ++p) {
        step_ppb(s, p, res);
        if (trap_ != TrapKind::None) {
          res.ok = false;
          res.trap = trap_;
          res.trap_pc = trap_pc_;
          res.cycles = cycle_;
          prog_ = nullptr;
          count_launch(res);
          return res;
        }
      }

    for (unsigned s = 0; s < sms_.size(); ++s) release_barriers(s);

    if (++cycle_ > budget) {
      res.ok = false;
      res.trap = TrapKind::Watchdog;
      res.trap_pc = 0;
      res.cycles = cycle_;
      prog_ = nullptr;
      count_launch(res);
      return res;
    }

    if (!cut || cycle_ < kLivelockStart) continue;
    if (have_checkpoint && matches(checkpoint_, next_cta)) {
      // The state repeats with this period, and no period so far trapped or
      // finished: the launch can only end at the watchdog, after the cycles
      // cycle_..budget. Skip whole periods of them, adding each period's
      // issues, but leave at least one: the loop simulates the rest and
      // ends exactly where the plain path would.
      static obs::Counter& cuts = obs::counter("arch.livelocks_cut");
      static obs::Counter& skipped = obs::counter("arch.cycles_skipped");
      const std::uint64_t period = cycle_ - checkpoint_cycle;
      const std::uint64_t periods = (budget - cycle_) / period;
      res.instructions += periods * (res.instructions - at_checkpoint.instructions);
      for (std::size_t u = 0; u < res.unit_issues.size(); ++u)
        res.unit_issues[u] += periods * (res.unit_issues[u] - at_checkpoint.unit_issues[u]);
      cycle_ += periods * period;
      cuts.add();
      skipped.add(periods * period);
      cut = false;
    } else if (cycle_ == next_checkpoint) {
      capture(checkpoint_, next_cta);
      have_checkpoint = true;
      at_checkpoint = res;
      checkpoint_cycle = cycle_;
      next_checkpoint = cycle_ + interval;
      interval *= 2;
    }
  }

  res.ok = true;
  res.cycles = cycle_;
  prog_ = nullptr;
  count_launch(res);
  return res;
}

}  // namespace gpf::arch
