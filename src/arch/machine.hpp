// The functional GPU model: SMs containing PPBs; each PPB has a functional
// warp-scheduler (WSC), fetch and decode stage, 32 SP lanes, and shared SFUs.
// Every pipeline stage is exposed through MachineHooks so the RTL fault
// layer, the gate-level co-simulation, and the PERfi software injector can
// observe or override it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "arch/exec.hpp"
#include "arch/types.hpp"
#include "isa/program.hpp"

namespace gpf::arch {

inline constexpr std::uint32_t kNoReconv = 0xFFFFFFFFu;
inline constexpr unsigned kMaxStackDepth = 64;

/// One SIMT reconvergence-stack entry. The top entry is the running state;
/// it pops when its PC reaches its reconvergence PC.
struct SimtEntry {
  std::uint32_t pc = 0;
  std::uint32_t reconv_pc = kNoReconv;
  std::uint32_t mask = 0;

  bool operator==(const SimtEntry&) const = default;
};

/// Resident warp state (one scheduler slot).
struct Warp {
  bool valid = false;
  bool done = false;
  bool at_barrier = false;
  unsigned slot = 0;
  unsigned warp_in_cta = 0;
  unsigned cta_x = 0, cta_y = 0;
  std::uint32_t exist_mask = 0;  ///< lanes holding real threads
  std::vector<SimtEntry> stack;
  std::array<std::uint8_t, kWarpSize> preds{};  ///< bit i of lane byte = Pi
  std::array<std::uint16_t, kWarpSize> tid_x{}, tid_y{}, tid_z{};

  std::uint32_t active_mask() const { return stack.empty() ? 0 : stack.back().mask; }
  std::uint32_t pc() const { return stack.empty() ? 0 : stack.back().pc; }
  bool ready() const { return valid && !done && !at_barrier && !stack.empty(); }

  bool operator==(const Warp&) const = default;
};

class Gpu;

/// Per-issue context handed to hooks. Mutations (instruction fields, the
/// execution mask, register/predicate contents) take effect immediately —
/// this is the software surface PERfi's error functions operate on.
class ExecCtx {
 public:
  ExecCtx(Gpu& gpu, unsigned sm, unsigned ppb, Warp& warp, std::uint32_t pc,
          isa::Instruction instr)
      : instr(instr), pc(pc), sm_id(sm), ppb_id(ppb), gpu_(gpu), warp_(warp) {}

  isa::Instruction instr;     ///< decoded instruction (mutable)
  std::uint32_t pc;
  unsigned sm_id, ppb_id;
  std::uint32_t exec_mask = 0;  ///< lanes that will execute (active & guard)
  bool skip = false;            ///< set true to suppress execution entirely

  Warp& warp() { return warp_; }
  const Warp& warp() const { return warp_; }
  Gpu& gpu() { return gpu_; }

  /// Architectural register access for this warp (RZ reads 0 / discards).
  /// Out-of-bounds indices set the pending trap, mirroring hardware.
  std::uint32_t read_reg(unsigned lane, std::uint8_t r);
  void write_reg(unsigned lane, std::uint8_t r, std::uint32_t v);
  bool read_pred(unsigned lane, std::uint8_t p) const;
  void write_pred(unsigned lane, std::uint8_t p, bool v);

  TrapKind pending_trap = TrapKind::None;

 private:
  friend class Gpu;
  Gpu& gpu_;
  Warp& warp_;
};

/// Stage-override hooks. Default implementations are transparent.
class MachineHooks {
 public:
  virtual ~MachineHooks() = default;
  virtual void on_launch_begin(Gpu&, const isa::Program&) {}
  /// Called once per PPB cycle before scheduling; may corrupt warp state.
  virtual void pre_cycle(Gpu&, unsigned /*sm*/, unsigned /*ppb*/) {}
  /// WSC output: the selected warp slot (-1 = none). May be overridden.
  virtual int post_select(Gpu&, unsigned /*sm*/, unsigned /*ppb*/, int slot) {
    return slot;
  }
  /// Fetch outputs: the program counter and the fetched instruction word.
  virtual std::uint32_t post_fetch_pc(Gpu&, unsigned, unsigned, unsigned /*slot*/,
                                      std::uint32_t pc) {
    return pc;
  }
  virtual std::uint64_t post_fetch_word(Gpu&, unsigned, unsigned, unsigned /*slot*/,
                                        std::uint64_t word) {
    return word;
  }
  /// Decoder output: the decoded field bundle plus its validity.
  virtual void post_decode(Gpu&, unsigned, unsigned, isa::Instruction&, bool& /*ok*/) {}
  /// Instruction-level instrumentation (PERfi's error functions).
  virtual void pre_execute(ExecCtx&) {}
  virtual void post_execute(ExecCtx&) {}
  /// True when the hook's effect depends only on the machine state: not on
  /// the cycle count, and not on state it carries from one issue to the
  /// next. Gpu::launch may then cut a provably periodic livelock short (see
  /// Gpu::launch); hooks that keep the default get the plain watchdog.
  virtual bool cycle_invariant() const { return false; }
};

/// CTA (thread block) resident on an SM.
struct CtaState {
  bool active = false;
  unsigned cta_x = 0, cta_y = 0;
  unsigned expected_warps = 0;  ///< barrier releases only when ALL arrive
  std::vector<std::uint32_t> shared;

  bool operator==(const CtaState&) const = default;
};

/// A parallel processing block: warp slots + register file + local memory.
struct Ppb {
  std::vector<Warp> warps;
  std::vector<std::uint32_t> regfile;  ///< [slot][reg][lane]
  std::vector<std::uint32_t> local;    ///< [slot][lane][word]
  unsigned rr_next = 0;                ///< round-robin scheduler pointer
};

struct Sm {
  std::vector<Ppb> ppbs;
  CtaState cta;
};

/// Global memory: zero-initialized words in an anonymous private mapping,
/// so the pages no kernel or host write touches are never faulted in, and
/// clear() hands the pages back instead of writing zeros. Indexes and
/// iterates like a std::vector of words.
class GlobalMemory {
 public:
  explicit GlobalMemory(std::size_t words);
  ~GlobalMemory();
  GlobalMemory(const GlobalMemory&) = delete;
  GlobalMemory& operator=(const GlobalMemory&) = delete;

  std::size_t size() const { return size_; }
  std::uint32_t* data() { return words_; }
  const std::uint32_t* data() const { return words_; }
  std::uint32_t* begin() { return words_; }
  std::uint32_t* end() { return words_ + size_; }
  const std::uint32_t* begin() const { return words_; }
  const std::uint32_t* end() const { return words_ + size_; }
  std::uint32_t& operator[](std::size_t i) { return words_[i]; }
  const std::uint32_t& operator[](std::size_t i) const { return words_[i]; }

  /// Every word reads zero again.
  void clear();

  friend bool operator==(const GlobalMemory& a, const GlobalMemory& b);

 private:
  std::uint32_t* words_ = nullptr;
  std::size_t size_ = 0;
};

class Gpu {
 public:
  explicit Gpu(GpuConfig cfg = {});

  const GpuConfig& config() const { return cfg_; }

  // -- memory ------------------------------------------------------------
  GlobalMemory& global() { return global_; }
  const GlobalMemory& global() const { return global_; }
  std::vector<std::uint32_t>& constm() { return const_; }
  void write_global(std::size_t addr, std::span<const std::uint32_t> data);
  void write_global_f(std::size_t addr, std::span<const float> data);
  std::vector<float> read_global_f(std::size_t addr, std::size_t n) const;
  void clear_memories();

  /// What a kernel can change in memory: the registered global segments and
  /// their words (constant memory is read-only to kernels).
  struct MemoryImage {
    std::vector<std::pair<std::size_t, std::size_t>> segments;  // (base, words)
    std::vector<std::uint32_t> words;  ///< segment contents, in segment order
  };
  MemoryImage save_memory() const;
  /// Puts back an image saved from this Gpu: zeroes every segment registered
  /// since, then restores the image's segments and words. Kernels only write
  /// inside registered segments, so after clear_memories() + setup +
  /// save_memory(), restoring equals a fresh clear_memories() + setup word
  /// for word as long as the host writes only through write_global* /
  /// reserve_global. An image with no segments (bare-metal mode) cannot
  /// bound what kernels wrote; callers clear and set up again instead.
  void restore_memory(const MemoryImage& image);

  /// Allocation map: like CUDA allocations, only registered segments are
  /// addressable by kernels; anything else raises IllegalAddress. With no
  /// segments registered the whole global memory is valid (bare-metal mode,
  /// used by unit tests). write_global/write_global_f register implicitly.
  void reserve_global(std::size_t addr, std::size_t words);
  bool global_addr_valid(std::uint64_t addr) const;

  // -- plumbing ------------------------------------------------------
  void set_exec(ExecUnit* unit) { exec_ = unit; }  ///< nullptr = builtin FastExec
  void set_hooks(MachineHooks* hooks) { hooks_ = hooks; }

  // -- execution -----------------------------------------------------------
  /// Run a kernel to completion (or trap). `max_cycles` of 0 uses the config
  /// watchdog.
  ///
  /// Livelock cut: with no hooks or cycle-invariant ones, the builtin exec
  /// unit and registered segments, the next launch state is a function of
  /// the current one. Past kLivelockStart cycles the launch takes Brent
  /// checkpoints of that state at doubling intervals; when the state equals
  /// the checkpoint it repeats forever, so the launch skips the whole
  /// periods left before the watchdog and simulates only the remainder. The
  /// result (Watchdog, cycles, instructions, unit issues) equals the plain
  /// path's exactly.
  LaunchResult launch(const isa::Program& prog, Dim3 grid, Dim3 block,
                      std::uint64_t max_cycles = 0);

  // -- introspection (used by hooks / fault layers) -----------------------
  Sm& sm(unsigned i) { return sms_[i]; }
  unsigned num_sms() const { return static_cast<unsigned>(sms_.size()); }
  const isa::Program* running_program() const { return prog_; }
  std::uint64_t cycle() const { return cycle_; }

  /// Register (reg mod 64, lane mod 32) of warp `slot`, which must be below
  /// config().max_warps_per_ppb.
  std::uint32_t& reg_at(unsigned sm, unsigned ppb, unsigned slot, unsigned lane,
                        unsigned reg);

  /// Cycle of a launch from which the livelock cut checkpoints (see launch).
  static constexpr std::uint64_t kLivelockStart = 2048;

  /// Raise a trap from hook code (aborts the current launch).
  void raise_trap(TrapKind kind, std::uint32_t pc);

 private:
  friend class ExecCtx;

  int select_warp(unsigned sm, unsigned ppb);
  bool step_ppb(unsigned sm, unsigned ppb, LaunchResult& res);
  void execute(ExecCtx& ctx);
  void execute_warp(ExecCtx& ctx);
  void init_cta(unsigned sm, unsigned cta_x, unsigned cta_y);
  void release_barriers(unsigned sm);
  bool sm_idle(unsigned sm) const;

  std::uint32_t mem_read(ExecCtx& ctx, isa::MemSpace space, unsigned lane,
                         std::uint64_t addr);
  void mem_write(ExecCtx& ctx, isa::MemSpace space, unsigned lane,
                 std::uint64_t addr, std::uint32_t value);
  std::uint32_t special_value(const ExecCtx& ctx, unsigned lane,
                              std::uint8_t sr) const;

  /// Everything the next cycle of a launch reads, for the livelock cut:
  /// dispatch progress, scheduler pointers, warps, CTAs (with shared
  /// memory), then in `words` the live register and local-memory windows
  /// (those of valid warps) and the registered global segments. Buffers are
  /// reused across launches.
  struct LaunchState {
    unsigned next_cta = 0;
    std::vector<unsigned> rr_next;
    std::vector<Warp> warps;
    std::vector<CtaState> ctas;
    std::vector<std::uint32_t> words;
  };
  bool livelock_cut_applies() const;
  template <class Fn>
  void for_each_state_window(Fn&& fn) const;
  void capture(LaunchState& s, unsigned next_cta) const;
  /// True when capture(t, next_cta) would give a t equal to `s`; compares in
  /// place, cheapest fields first, and stops at the first difference.
  bool matches(const LaunchState& s, unsigned next_cta) const;

  GpuConfig cfg_;
  GlobalMemory global_;
  std::vector<std::uint32_t> const_;
  std::vector<std::pair<std::size_t, std::size_t>> segments_;  // (base, words)
  std::vector<Sm> sms_;
  FastExec builtin_exec_;
  ExecUnit* exec_ = nullptr;
  MachineHooks* hooks_ = nullptr;

  // Launch-scoped state.
  const isa::Program* prog_ = nullptr;
  Dim3 grid_{}, block_{};
  std::uint64_t cycle_ = 0;
  TrapKind trap_ = TrapKind::None;
  std::uint32_t trap_pc_ = 0;
  LaunchState checkpoint_;
};

}  // namespace gpf::arch
