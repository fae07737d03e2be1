#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "arch/machine.hpp"
#include "common/bitops.hpp"
#include "isa/builder.hpp"
#include "obs/metrics.hpp"
#include "softfloat/buses.hpp"

namespace gpf::arch {
namespace {

using isa::Cmp;
using isa::KernelBuilder;
using isa::MemSpace;
using isa::SpecialReg;

/// out[i] = a[i] + b[i], one thread per element. Buffers at fixed addresses.
isa::Program vecadd_kernel(std::uint32_t a_base, std::uint32_t b_base,
                           std::uint32_t out_base, std::uint32_t n) {
  KernelBuilder kb("vecadd");
  auto tid = kb.reg();
  auto ctaid = kb.reg();
  auto ntid = kb.reg();
  auto gid = kb.reg();
  auto va = kb.reg();
  auto vb = kb.reg();
  auto p = kb.pred();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.s2r(ctaid, SpecialReg::CTAID_X);
  kb.s2r(ntid, SpecialReg::NTID_X);
  kb.imad(gid, ctaid, ntid, tid);
  kb.isetpi(p, Cmp::LT, gid, n);
  kb.if_(p, false, [&] {
    kb.iaddi(va, gid, a_base);
    kb.ldg(va, va);
    kb.iaddi(vb, gid, b_base);
    kb.ldg(vb, vb);
    kb.fadd(va, va, vb);
    kb.iaddi(vb, gid, out_base);
    kb.stg(vb, 0, va);
  });
  return kb.build();
}

TEST(Machine, VectorAddEndToEnd) {
  Gpu gpu;
  const std::uint32_t n = 100;  // not a multiple of warp or block size
  std::vector<float> a(n), b(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(i) * 0.5f;
    b[i] = 100.0f - static_cast<float>(i);
  }
  gpu.write_global_f(0, a);
  gpu.write_global_f(1024, b);
  gpu.reserve_global(2048, n);

  const isa::Program prog = vecadd_kernel(0, 1024, 2048, n);
  const LaunchResult res = gpu.launch(prog, {2, 1, 1}, {64, 1, 1});
  ASSERT_TRUE(res.ok) << trap_name(res.trap);
  EXPECT_GT(res.instructions, 0u);

  const std::vector<float> out = gpu.read_global_f(2048, n);
  for (std::uint32_t i = 0; i < n; ++i) EXPECT_EQ(out[i], a[i] + b[i]) << i;
}

TEST(Machine, GuardPredicateMasksLanes) {
  // Even lanes write 1, odd lanes write 2.
  KernelBuilder kb("pred");
  auto lane = kb.reg();
  auto bit = kb.reg();
  auto v = kb.reg();
  auto addr = kb.reg();
  auto p = kb.pred();
  kb.s2r(lane, SpecialReg::LANEID);
  kb.landi(bit, lane, 1);
  kb.isetpi(p, Cmp::EQ, bit, 0);
  kb.movi(v, 0);
  kb.on(p).movi(v, 1);
  kb.on(p, true).movi(v, 2);
  kb.mov(addr, lane);
  kb.stg(addr, 0, v);
  const isa::Program prog = kb.build();

  Gpu gpu;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {32, 1, 1}).ok);
  for (unsigned i = 0; i < 32; ++i)
    EXPECT_EQ(gpu.global()[i], (i % 2 == 0) ? 1u : 2u) << i;
}

TEST(Machine, DivergenceReconverges) {
  // if (lane < 16) x = 10 else x = 20; then x += 1 for everyone.
  KernelBuilder kb("diverge");
  auto lane = kb.reg();
  auto x = kb.reg();
  auto p = kb.pred();
  kb.s2r(lane, SpecialReg::LANEID);
  kb.isetpi(p, Cmp::LT, lane, 16);
  kb.if_(p, false, [&] { kb.movi(x, 10); }, [&] { kb.movi(x, 20); });
  kb.iaddi(x, x, 1);
  kb.stg(lane, 0, x);
  const isa::Program prog = kb.build();

  Gpu gpu;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {32, 1, 1}).ok);
  for (unsigned i = 0; i < 32; ++i)
    EXPECT_EQ(gpu.global()[i], i < 16 ? 11u : 21u) << i;
}

TEST(Machine, LoopWithDivergentTripCounts) {
  // Each lane sums 1..laneid with a while loop (different trip counts).
  KernelBuilder kb("loop");
  auto lane = kb.reg();
  auto acc = kb.reg();
  auto i = kb.reg();
  auto p = kb.pred();
  kb.s2r(lane, SpecialReg::LANEID);
  kb.movi(acc, 0);
  kb.movi(i, 1);
  kb.while_(p, false, [&] { kb.isetp(p, Cmp::LE, i, lane); },
            [&] {
              kb.iadd(acc, acc, i);
              kb.iaddi(i, i, 1);
            });
  kb.stg(lane, 0, acc);
  const isa::Program prog = kb.build();

  Gpu gpu;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {32, 1, 1}).ok);
  for (unsigned l = 0; l < 32; ++l)
    EXPECT_EQ(gpu.global()[l], l * (l + 1) / 2) << l;
}

TEST(Machine, NestedDivergence) {
  // Nested if inside if.
  KernelBuilder kb("nested");
  auto lane = kb.reg();
  auto x = kb.reg();
  auto p = kb.pred();
  auto q = kb.pred();
  kb.s2r(lane, SpecialReg::LANEID);
  kb.movi(x, 0);
  kb.isetpi(p, Cmp::LT, lane, 16);
  kb.if_(p, false, [&] {
    kb.isetpi(q, Cmp::LT, lane, 8);
    kb.if_(q, false, [&] { kb.movi(x, 1); }, [&] { kb.movi(x, 2); });
  }, [&] { kb.movi(x, 3); });
  kb.stg(lane, 0, x);
  const isa::Program prog = kb.build();

  Gpu gpu;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {32, 1, 1}).ok);
  for (unsigned l = 0; l < 32; ++l) {
    const std::uint32_t expect = l < 8 ? 1u : (l < 16 ? 2u : 3u);
    EXPECT_EQ(gpu.global()[l], expect) << l;
  }
}

TEST(Machine, SharedMemoryAndBarrier) {
  // Reverse 64 values within a CTA through shared memory.
  KernelBuilder kb("reverse");
  kb.set_shared_words(64);
  auto tid = kb.reg();
  auto v = kb.reg();
  auto rev = kb.reg();
  auto tmp = kb.reg();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.ldg(v, tid, 100);        // v = g[100 + tid]
  kb.sts(tid, 0, v);          // shared[tid] = v
  kb.bar();
  kb.movi(tmp, 63);
  kb.isub(rev, tmp, tid);     // rev = 63 - tid
  kb.lds(v, rev, 0);          // v = shared[rev]
  kb.stg(tid, 200, v);        // g[200 + tid] = v
  const isa::Program prog = kb.build();

  Gpu gpu;
  for (unsigned i = 0; i < 64; ++i) gpu.global()[100 + i] = i * 7 + 1;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {64, 1, 1}).ok);
  for (unsigned i = 0; i < 64; ++i)
    EXPECT_EQ(gpu.global()[200 + i], (63 - i) * 7 + 1) << i;
}

TEST(Machine, MultiCtaGrid) {
  // Each CTA writes its id at out[cta].
  KernelBuilder kb("ctas");
  auto tid = kb.reg();
  auto cta = kb.reg();
  auto p = kb.pred();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.s2r(cta, SpecialReg::CTAID_X);
  kb.isetpi(p, Cmp::EQ, tid, 0);
  kb.if_(p, false, [&] { kb.stg(cta, 300, cta); });
  const isa::Program prog = kb.build();

  Gpu gpu;
  ASSERT_TRUE(gpu.launch(prog, {10, 1, 1}, {32, 1, 1}).ok);
  for (unsigned c = 0; c < 10; ++c) EXPECT_EQ(gpu.global()[300 + c], c) << c;
}

TEST(Machine, IllegalAddressTraps) {
  KernelBuilder kb("oob");
  auto r = kb.reg();
  kb.movi(r, 0x7FFFFFFF);
  kb.ldg(r, r);
  const isa::Program prog = kb.build();
  Gpu gpu;
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {1, 1, 1});
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.trap, TrapKind::IllegalAddress);
}

TEST(Machine, InvalidRegisterTraps) {
  isa::Program prog;
  prog.name = "badreg";
  prog.regs_per_thread = 4;
  isa::Instruction in;
  in.op = isa::Op::IADD;
  in.rd = 0;
  in.rs1 = 50;  // beyond regs_per_thread
  in.rs2 = 1;
  prog.words.push_back(isa::encode(in));
  prog.words.push_back(isa::encode({.op = isa::Op::EXIT}));
  Gpu gpu;
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {32, 1, 1});
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.trap, TrapKind::InvalidRegister);
}

TEST(Machine, InvalidOpcodeTraps) {
  isa::Program prog;
  prog.name = "badop";
  prog.words.push_back(std::uint64_t{0xEE} << 56);
  Gpu gpu;
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {32, 1, 1});
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.trap, TrapKind::InvalidOpcode);
}

TEST(Machine, WatchdogCatchesInfiniteLoop) {
  KernelBuilder kb("spin");
  auto head = kb.label();
  kb.place(head);
  kb.bra(head);
  const isa::Program prog = kb.build();
  Gpu gpu;
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {32, 1, 1}, 10'000);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.trap, TrapKind::Watchdog);
}

TEST(Machine, BarrierDeadlockAfterEarlyExitHangs) {
  // Warp 0 exits before the barrier; warp 1 waits forever -> watchdog.
  KernelBuilder kb("deadlock");
  auto tid = kb.reg();
  auto wid = kb.reg();
  auto p = kb.pred();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.shr(wid, tid, 5);
  kb.isetpi(p, Cmp::EQ, wid, 0);
  // Guarded EXIT kills warp 0's lanes entirely.
  auto after = kb.label();
  kb.bra(after, p, true);
  kb.movi(tid, 0);  // warp 0 only
  // warp 0 runs off into EXIT below via fallthrough? No: both warps reach
  // here, so instead: warp0 exits via the built EXIT after storing,
  // warp1 hits BAR first.
  kb.place(after);
  kb.on(p, true).bar();  // only warp 1 executes the barrier
  // warp 1 waits; warp 0 proceeds to EXIT and finishes.
  const isa::Program prog = kb.build();
  Gpu gpu;
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {64, 1, 1}, 20'000);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.trap, TrapKind::Watchdog);
}

TEST(Machine, SpecialRegistersExposed) {
  KernelBuilder kb("specials");
  auto tid = kb.reg();
  auto lane = kb.reg();
  auto warp = kb.reg();
  auto ntid = kb.reg();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.s2r(lane, SpecialReg::LANEID);
  kb.s2r(warp, SpecialReg::WARPID);
  kb.s2r(ntid, SpecialReg::NTID_X);
  kb.stg(tid, 0, lane);
  kb.stg(tid, 100, warp);
  kb.stg(tid, 200, ntid);
  const isa::Program prog = kb.build();
  Gpu gpu;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {64, 1, 1}).ok);
  for (unsigned t = 0; t < 64; ++t) {
    EXPECT_EQ(gpu.global()[t], t % 32);
    EXPECT_EQ(gpu.global()[100 + t], t / 32);
    EXPECT_EQ(gpu.global()[200 + t], 64u);
  }
}

TEST(Machine, LocalMemoryPerThread) {
  // Each thread writes its tid into local[3] and reads it back.
  KernelBuilder kb("local");
  auto tid = kb.reg();
  auto v = kb.reg();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.st(MemSpace::Local, KernelBuilder::RZ, 3, tid);
  kb.ld(v, MemSpace::Local, KernelBuilder::RZ, 3);
  kb.stg(tid, 0, v);
  const isa::Program prog = kb.build();
  Gpu gpu;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {64, 1, 1}).ok);
  for (unsigned t = 0; t < 64; ++t) EXPECT_EQ(gpu.global()[t], t) << t;
}

TEST(Machine, ConstMemoryReadOnly) {
  KernelBuilder kb("const");
  auto v = kb.reg();
  auto tid = kb.reg();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.ldc(v, tid, 0);
  kb.stg(tid, 0, v);
  const isa::Program prog = kb.build();
  Gpu gpu;
  for (unsigned i = 0; i < 32; ++i) gpu.constm()[i] = 1000 + i;
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {32, 1, 1}).ok);
  for (unsigned i = 0; i < 32; ++i) EXPECT_EQ(gpu.global()[i], 1000 + i);

  // A store to const memory traps.
  KernelBuilder kb2("const-store");
  auto r = kb2.reg();
  kb2.movi(r, 1);
  kb2.st(MemSpace::Const, KernelBuilder::RZ, 0, r);
  const isa::Program bad = kb2.build();
  const LaunchResult res = gpu.launch(bad, {1, 1, 1}, {1, 1, 1});
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.trap, TrapKind::IllegalAddress);
}

TEST(Machine, DeterministicAcrossRuns) {
  const isa::Program prog = vecadd_kernel(0, 1024, 2048, 64);
  Gpu gpu;
  std::vector<float> a(64, 1.5f), b(64, 2.25f);
  gpu.write_global_f(0, a);
  gpu.write_global_f(1024, b);
  gpu.reserve_global(2048, 64);
  const LaunchResult r1 = gpu.launch(prog, {1, 1, 1}, {64, 1, 1});
  const LaunchResult r2 = gpu.launch(prog, {1, 1, 1}, {64, 1, 1});
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.instructions, r2.instructions);
}

TEST(Machine, UnitIssueCountsTracked) {
  const isa::Program prog = vecadd_kernel(0, 1024, 2048, 64);
  Gpu gpu;
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {64, 1, 1});
  ASSERT_TRUE(res.ok);
  EXPECT_GT(res.unit_issues[static_cast<unsigned>(isa::UnitClass::FP32)], 0u);
  EXPECT_GT(res.unit_issues[static_cast<unsigned>(isa::UnitClass::MEM)], 0u);
  EXPECT_GT(res.unit_issues[static_cast<unsigned>(isa::UnitClass::INT)], 0u);
}

TEST(Machine, LocalMemoryZeroedBetweenLaunches) {
  // A launch must not read what an earlier launch left in local memory.
  KernelBuilder kb("local-write");
  auto tid = kb.reg();
  auto v = kb.reg();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.iaddi(v, tid, 1);
  kb.st(MemSpace::Local, KernelBuilder::RZ, 5, v);
  const isa::Program write = kb.build();

  KernelBuilder kb2("local-read");
  auto tid2 = kb2.reg();
  auto v2 = kb2.reg();
  kb2.s2r(tid2, SpecialReg::TID_X);
  kb2.ld(v2, MemSpace::Local, KernelBuilder::RZ, 5);
  kb2.stg(tid2, 0, v2);
  const isa::Program read = kb2.build();

  Gpu gpu;
  gpu.write_global(0, std::vector<std::uint32_t>(64, 0xDEADu));
  ASSERT_TRUE(gpu.launch(write, {1, 1, 1}, {64, 1, 1}).ok);
  ASSERT_TRUE(gpu.launch(read, {1, 1, 1}, {64, 1, 1}).ok);
  for (unsigned t = 0; t < 64; ++t) EXPECT_EQ(gpu.global()[t], 0u) << t;
}

TEST(Machine, ReserveGlobalCoalescesTransitively) {
  Gpu gpu;
  gpu.reserve_global(0, 10);
  gpu.reserve_global(20, 10);
  gpu.reserve_global(5, 20);  // bridges both
  const Gpu::MemoryImage image = gpu.save_memory();
  ASSERT_EQ(image.segments.size(), 1u);
  EXPECT_EQ(image.segments[0], (std::pair<std::size_t, std::size_t>{0, 30}));
  EXPECT_EQ(image.words.size(), 30u);
  EXPECT_TRUE(gpu.global_addr_valid(29));
  EXPECT_FALSE(gpu.global_addr_valid(30));

  gpu.reserve_global(40, 5);
  gpu.reserve_global(30, 10);  // touches [0,30) and [40,45) end to end
  EXPECT_EQ(gpu.save_memory().segments,
            (std::vector<std::pair<std::size_t, std::size_t>>{{0, 45}}));
}

TEST(Machine, MemoryImageRestoresPostSetupState) {
  const isa::Program prog = vecadd_kernel(0, 1024, 2048, 64);
  auto setup = [](Gpu& g) {
    g.clear_memories();
    g.write_global_f(0, std::vector<float>(64, 1.5f));
    g.write_global_f(1024, std::vector<float>(64, 2.25f));
    g.reserve_global(2048, 64);
  };
  Gpu gpu;
  setup(gpu);
  const Gpu::MemoryImage image = gpu.save_memory();
  ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {64, 1, 1}).ok);
  gpu.write_global(4096, std::vector<std::uint32_t>(8, 7u));  // a segment added later
  gpu.restore_memory(image);

  Gpu fresh;
  setup(fresh);
  EXPECT_EQ(gpu.global(), fresh.global());
  EXPECT_FALSE(gpu.global_addr_valid(4096));
  EXPECT_EQ(gpu.save_memory().segments, image.segments);
}

// A hook that changes nothing but keeps the default cycle_invariant(): the
// launch runs the plain watchdog path.
class PlainHooks final : public MachineHooks {};

void expect_same_result(const LaunchResult& a, const LaunchResult& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.trap, b.trap);
  EXPECT_EQ(a.trap_pc, b.trap_pc);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.unit_issues, b.unit_issues);
}

/// Two warps, divergent: the even lanes (on top of the SIMT stack) toggle
/// global[lane] forever; the odd lanes wait below. The state repeats.
isa::Program periodic_spin() {
  KernelBuilder kb("periodic");
  auto lane = kb.reg();
  auto bit = kb.reg();
  auto v = kb.reg();
  auto p = kb.pred();
  kb.s2r(lane, SpecialReg::LANEID);
  kb.landi(bit, lane, 1);
  kb.isetpi(p, Cmp::EQ, bit, 0);
  auto odd = kb.label();
  auto even = kb.label();
  kb.bra(even, p, false);
  kb.place(odd);
  kb.iaddi(v, bit, 0);
  kb.bra(odd);
  kb.place(even);
  kb.ldg(v, lane);
  kb.lnot(v, v);
  kb.stg(lane, 0, v);
  kb.bra(even);
  return kb.build();
}

TEST(Machine, PeriodicLivelockCutMatchesWatchdog) {
  obs::Counter& cuts = obs::counter("arch.livelocks_cut");
  obs::Counter& skipped = obs::counter("arch.cycles_skipped");
  obs::Counter& instructions = obs::counter("arch.instructions");
  obs::Counter& cycles = obs::counter("arch.cycles");
  const isa::Program prog = periodic_spin();
  for (const std::uint64_t budget : {49'999ull, 50'000ull, 50'001ull, 123'457ull}) {
    Gpu cut_gpu, plain_gpu;
    cut_gpu.reserve_global(0, 64);
    plain_gpu.reserve_global(0, 64);
    PlainHooks plain;
    plain_gpu.set_hooks(&plain);

    const std::uint64_t cuts0 = cuts.value(), skipped0 = skipped.value();
    const std::uint64_t instr0 = instructions.value(), cycles0 = cycles.value();
    const LaunchResult got = cut_gpu.launch(prog, {1, 1, 1}, {64, 1, 1}, budget);
    EXPECT_EQ(cuts.value(), cuts0 + 1) << budget;
    EXPECT_GT(skipped.value(), skipped0 + budget / 2) << budget;
    // A cut launch counts the totals it extrapolated.
    EXPECT_EQ(instructions.value() - instr0, got.instructions) << budget;
    EXPECT_EQ(cycles.value() - cycles0, got.cycles) << budget;

    const std::uint64_t plain0 = cuts.value();
    const LaunchResult want = plain_gpu.launch(prog, {1, 1, 1}, {64, 1, 1}, budget);
    EXPECT_EQ(cuts.value(), plain0) << budget;

    EXPECT_EQ(want.trap, TrapKind::Watchdog);
    EXPECT_EQ(want.cycles, budget + 1);
    expect_same_result(got, want);
    EXPECT_EQ(cut_gpu.global(), plain_gpu.global()) << budget;
  }
}

TEST(Machine, BarrierDeadlockWithSegmentsIsCutExactly) {
  // Warp 1 waits at a barrier warp 0 never reaches: the state is constant.
  KernelBuilder kb("deadlock");
  auto tid = kb.reg();
  auto wid = kb.reg();
  auto p = kb.pred();
  kb.s2r(tid, SpecialReg::TID_X);
  kb.shr(wid, tid, 5);
  kb.isetpi(p, Cmp::EQ, wid, 0);
  kb.on(p, true).bar();
  const isa::Program prog = kb.build();
  Gpu cut_gpu, plain_gpu;
  cut_gpu.reserve_global(0, 4);
  plain_gpu.reserve_global(0, 4);
  PlainHooks plain;
  plain_gpu.set_hooks(&plain);
  const LaunchResult got = cut_gpu.launch(prog, {3, 1, 1}, {64, 1, 1}, 30'000);
  const LaunchResult want = plain_gpu.launch(prog, {3, 1, 1}, {64, 1, 1}, 30'000);
  EXPECT_EQ(want.trap, TrapKind::Watchdog);
  expect_same_result(got, want);
}

TEST(Machine, NonPeriodicSpinRunsToWatchdog) {
  // A counter kept only in memory (the register is cleared every trip, so
  // warps and registers repeat) never repeats: no cut, plain verdict. One
  // kernel per memory space the launch state must cover.
  obs::Counter& cuts = obs::counter("arch.livelocks_cut");
  for (const MemSpace space : {MemSpace::Global, MemSpace::Shared, MemSpace::Local}) {
    KernelBuilder kb("counter");
    kb.set_shared_words(4);
    auto v = kb.reg();
    auto head = kb.label();
    kb.place(head);
    kb.ld(v, space, KernelBuilder::RZ, 1);
    kb.iaddi(v, v, 1);
    kb.st(space, KernelBuilder::RZ, 1, v);
    kb.movi(v, 0);
    kb.bra(head);
    const isa::Program prog = kb.build();

    const std::uint64_t cuts0 = cuts.value();
    const std::uint64_t budget = 8 * Gpu::kLivelockStart;
    Gpu gpu, plain_gpu;
    gpu.reserve_global(0, 2);
    plain_gpu.reserve_global(0, 2);
    PlainHooks plain;
    plain_gpu.set_hooks(&plain);
    const LaunchResult got = gpu.launch(prog, {1, 1, 1}, {32, 1, 1}, budget);
    EXPECT_EQ(cuts.value(), cuts0) << static_cast<int>(space);
    const LaunchResult want = plain_gpu.launch(prog, {1, 1, 1}, {32, 1, 1}, budget);
    EXPECT_EQ(got.trap, TrapKind::Watchdog);
    EXPECT_EQ(got.cycles, budget + 1);
    expect_same_result(got, want);
    EXPECT_EQ(gpu.global()[1], plain_gpu.global()[1]);
  }
}

// ---------------------------------------------------------------------------
// Trap order of one issue. The expected values follow the lane-by-lane
// semantics: lanes in order, and the first lane that fails traps.
// ---------------------------------------------------------------------------

/// Sets the exec mask of the issue at `pc`.
class MaskAt final : public MachineHooks {
 public:
  MaskAt(std::uint32_t pc, std::uint32_t mask) : pc_(pc), mask_(mask) {}
  void pre_execute(ExecCtx& ctx) override {
    if (ctx.pc == pc_) ctx.exec_mask = mask_;
  }

 private:
  std::uint32_t pc_, mask_;
};

/// The builder's program with `in` placed just before its final EXIT.
isa::Program with_last(KernelBuilder& kb, const isa::Instruction& in) {
  isa::Program prog = kb.build();
  prog.words.insert(prog.words.end() - 1, isa::encode(in));
  return prog;
}

std::uint32_t last_pc(const isa::Program& prog) {
  return static_cast<std::uint32_t>(prog.words.size() - 2);
}

/// Register `reg` of every lane of warp slot 0.
std::vector<std::uint32_t> reg_row(Gpu& gpu, unsigned reg) {
  std::vector<std::uint32_t> row(kWarpSize);
  for (unsigned lane = 0; lane < kWarpSize; ++lane) row[lane] = gpu.reg_at(0, 0, 0, lane, reg);
  return row;
}

std::vector<std::uint32_t> lane_ids(std::uint32_t plus = 0) {
  std::vector<std::uint32_t> v(kWarpSize);
  std::iota(v.begin(), v.end(), plus);
  return v;
}

TEST(TrapOrder, StoreStoresTheLanesBelowTheFirstIllegalAddress) {
  KernelBuilder kb("st_partial");
  auto lane = kb.reg();
  auto addr = kb.reg();
  auto data = kb.reg();
  auto p = kb.pred();
  kb.s2r(lane, SpecialReg::LANEID);
  kb.iaddi(addr, lane, 100);
  kb.iaddi(data, lane, 1);
  kb.isetpi(p, Cmp::EQ, lane, 5);
  kb.on(p).movi(addr, 0x7FFFFFFF);  // only lane 5 is out of bounds
  kb.stg(addr, 0, data);
  const isa::Program prog = kb.build();
  Gpu gpu;
  gpu.reserve_global(100, kWarpSize);
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {32, 1, 1});
  EXPECT_EQ(res.trap, TrapKind::IllegalAddress);
  EXPECT_EQ(res.trap_pc, prog.words.size() - 2);
  for (unsigned l = 0; l < kWarpSize; ++l)
    EXPECT_EQ(gpu.global()[100 + l], l < 5 ? l + 1 : 0u) << l;
}

TEST(TrapOrder, LoadTrapKindAndNoRegisterWrite) {
  // A bad source reads 0 and still forms an address; a bad destination is
  // reached only once the load succeeded.
  const std::uint32_t kIllegal = 0x7FFFFFFF;
  struct Case {
    std::uint32_t base;  // value of register 0
    std::uint8_t rs1;    // 0, or 50: a bad register
    std::uint8_t rd;     // 1, or 40: a bad register
    std::uint32_t imm;   // offset added to the base
    TrapKind want;
  };
  for (const Case c : {Case{kIllegal, 0, 40, 0, TrapKind::IllegalAddress},
                       Case{0, 0, 40, 3, TrapKind::InvalidRegister},
                       Case{kIllegal, 50, 1, 3, TrapKind::InvalidRegister},
                       Case{0, 50, 1, kIllegal, TrapKind::IllegalAddress}}) {
    KernelBuilder kb("ld_trap");
    auto base = kb.reg();
    auto dst = kb.reg();
    kb.movi(base, c.base);
    kb.movi(dst, 0xD00D);
    const isa::Instruction ld{.op = isa::Op::LD, .rd = c.rd, .rs1 = c.rs1, .use_imm = true,
                              .imm = c.imm};
    const isa::Program prog = with_last(kb, ld);
    Gpu gpu;
    gpu.reserve_global(0, 8);
    const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {32, 1, 1});
    const std::string where = "rs1=" + std::to_string(c.rs1) + " rd=" +
                              std::to_string(c.rd) + " imm=" + std::to_string(c.imm);
    EXPECT_EQ(res.trap, c.want) << where;
    EXPECT_EQ(reg_row(gpu, base.idx), std::vector<std::uint32_t>(kWarpSize, c.base)) << where;
    EXPECT_EQ(reg_row(gpu, dst.idx), std::vector<std::uint32_t>(kWarpSize, 0xD00D)) << where;
    EXPECT_EQ(reg_row(gpu, 40), std::vector<std::uint32_t>(kWarpSize, 0)) << where;
  }
}

TEST(TrapOrder, BadSourceTrapsBeforeAnyLaneWrites) {
  KernelBuilder kb("bad_rs2");
  auto dst = kb.reg();
  auto x = kb.reg();
  kb.movi(dst, 0x1234);
  kb.movi(x, 5);
  const isa::Instruction add{.op = isa::Op::IADD, .rd = dst.idx, .rs1 = x.idx, .rs2 = 50};
  const isa::Program prog = with_last(kb, add);
  Gpu gpu;
  MaskAt first_lane_7(last_pc(prog), 0xFFFFFF80u);
  gpu.set_hooks(&first_lane_7);
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {32, 1, 1});
  EXPECT_EQ(res.trap, TrapKind::InvalidRegister);
  EXPECT_EQ(res.trap_pc, last_pc(prog));
  EXPECT_EQ(reg_row(gpu, dst.idx), std::vector<std::uint32_t>(kWarpSize, 0x1234));
}

TEST(TrapOrder, BadDestinationWritesNothing) {
  KernelBuilder kb("bad_rd");
  auto lane = kb.reg();
  auto x = kb.reg();
  kb.s2r(lane, SpecialReg::LANEID);
  kb.movi(x, 5);
  const isa::Instruction add{.op = isa::Op::IADD, .rd = 50, .rs1 = lane.idx, .rs2 = x.idx};
  const isa::Program prog = with_last(kb, add);
  Gpu gpu;
  const LaunchResult res = gpu.launch(prog, {1, 1, 1}, {32, 1, 1});
  EXPECT_EQ(res.trap, TrapKind::InvalidRegister);
  EXPECT_EQ(reg_row(gpu, lane.idx), lane_ids());
  EXPECT_EQ(reg_row(gpu, x.idx), std::vector<std::uint32_t>(kWarpSize, 5));
  EXPECT_EQ(reg_row(gpu, 50), std::vector<std::uint32_t>(kWarpSize, 0));
}

TEST(TrapOrder, HookExecMaskDecidesTheWrittenLanes) {
  KernelBuilder kb("widen");
  auto r = kb.reg();
  kb.movi(r, 42);
  const isa::Program prog = kb.build();
  // Eight threads: the active mask is 0xFF.
  for (const std::uint32_t mask : {0xFFFFu, 0u}) {
    Gpu gpu;
    MaskAt hook(0, mask);
    gpu.set_hooks(&hook);
    ASSERT_TRUE(gpu.launch(prog, {1, 1, 1}, {8, 1, 1}).ok);
    for (unsigned l = 0; l < kWarpSize; ++l)
      EXPECT_EQ(gpu.reg_at(0, 0, 0, l, r.idx), (mask >> l) & 1 ? 42u : 0u) << mask << " " << l;
  }
  // A SETP writes the predicate of the exec-mask lanes only.
  KernelBuilder setp("setp");
  auto v = setp.reg();
  auto p = setp.pred();
  setp.isetpi(p, Cmp::EQ, v, 0);  // v is 0 in every lane
  setp.on(p).movi(v, 42);
  const isa::Program setp_prog = setp.build();
  Gpu gpu;
  MaskAt hook(0, 0xFF00u);
  gpu.set_hooks(&hook);
  ASSERT_TRUE(gpu.launch(setp_prog, {1, 1, 1}, {32, 1, 1}).ok);
  for (unsigned l = 0; l < kWarpSize; ++l)
    EXPECT_EQ(gpu.reg_at(0, 0, 0, l, v.idx), l >= 8 && l < 16 ? 42u : 0u) << l;
}

TEST(TrapOrder, SoftExecLaneFaultDiffersFromFastExecInThatLaneOnly) {
  KernelBuilder kb("lane_fault");
  auto lane = kb.reg();
  auto v = kb.reg();
  kb.s2r(lane, SpecialReg::LANEID);
  kb.iaddi(v, lane, 1);
  kb.iadd(v, v, v);
  kb.stg(lane, 0, v);
  const isa::Program prog = kb.build();
  auto run = [&](ExecUnit* unit) {
    Gpu gpu;
    gpu.reserve_global(0, kWarpSize);
    gpu.set_exec(unit);
    EXPECT_TRUE(gpu.launch(prog, {1, 1, 1}, {32, 1, 1}).ok);
    return std::vector<std::uint32_t>(gpu.global().begin(), gpu.global().begin() + kWarpSize);
  };
  const sf::BusFaultSet stuck(sf::BusFault{sf::Bus::Result, 20, true});
  SoftExec soft;
  soft.set_lane_fault(5, &stuck);
  FastExec fast;
  const std::vector<std::uint32_t> want = run(&fast), got = run(&soft);
  EXPECT_EQ(want, run(nullptr));
  for (unsigned l = 0; l < kWarpSize; ++l) {
    EXPECT_EQ(want[l], 2 * (l + 1)) << l;
    if (l == 5)
      EXPECT_NE(got[l], want[l]);
    else
      EXPECT_EQ(got[l], want[l]) << l;
  }
}

}  // namespace
}  // namespace gpf::arch
