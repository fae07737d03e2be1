#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "plain_forward.hpp"
#include "rtl/campaign.hpp"
#include "rtl/microbench.hpp"
#include "syndrome/pattern.hpp"

namespace gpf::rtl {
namespace {

TEST(MicroBench, AllOpsRunCleanly) {
  for (unsigned o = 0; o < static_cast<unsigned>(MicroOp::COUNT); ++o) {
    const MicroBench mb = make_micro_bench(static_cast<MicroOp>(o),
                                           InputRange::Medium, 1);
    arch::Gpu gpu;
    setup_micro(gpu, mb);
    const auto res = gpu.launch(mb.prog, {1, 1, 1}, {64, 1, 1});
    ASSERT_TRUE(res.ok) << micro_op_name(static_cast<MicroOp>(o));
  }
}

TEST(MicroBench, DistinctDrawsProduceDistinctInputs) {
  const MicroBench a = make_micro_bench(MicroOp::FMUL, InputRange::Small, 1);
  const MicroBench b = make_micro_bench(MicroOp::FMUL, InputRange::Small, 2);
  EXPECT_NE(a.input_a, b.input_a);
}

TEST(Injector, GoldenReproducible) {
  const MicroBench mb = make_micro_bench(MicroOp::FADD, InputRange::Medium, 3);
  Injector i1(target_from_micro(mb, true));
  Injector i2(target_from_micro(mb, true));
  EXPECT_EQ(i1.golden(), i2.golden());
}

TEST(Injector, FuFaultCorruptsOneLane) {
  const MicroBench mb = make_micro_bench(MicroOp::FMUL, InputRange::Medium, 3);
  Injector inj(target_from_micro(mb, true));
  FaultSpec f;
  f.site = Site::FuLane;
  f.lane = 5;
  f.bus = sf::BusFault{sf::Bus::MulProduct, 45, true};
  const InjectionResult r = inj.inject(f);
  // A high product bit stuck on a per-lane FU corrupts exactly that lane in
  // both warps (threads 5 and 37) unless the bit was already set.
  ASSERT_NE(r.outcome, Outcome::Due);
  for (std::uint32_t idx : r.corrupted_idx) EXPECT_EQ(idx % 32, 5u);
  EXPECT_LE(r.corrupted, 2u);
}

TEST(Injector, SfuFaultHitsSharedLanes) {
  const MicroBench mb = make_micro_bench(MicroOp::FSIN, InputRange::Medium, 3);
  Injector inj(target_from_micro(mb, true));
  FaultSpec f;
  f.site = Site::Sfu;
  f.lane = 0;  // SFU 0 serves lanes 0..15
  f.bus = sf::BusFault{sf::Bus::SfuPolyT2, 20, true};
  const InjectionResult r = inj.inject(f);
  ASSERT_NE(r.outcome, Outcome::Due);
  for (std::uint32_t idx : r.corrupted_idx) EXPECT_LT(idx % 32, 16u);
  EXPECT_GT(r.corrupted, 2u);  // many threads share the faulty SFU
}

TEST(Injector, SchedulerMaskFaultDisablesThread) {
  const MicroBench mb = make_micro_bench(MicroOp::IADD, InputRange::Medium, 3);
  Injector inj(target_from_micro(mb, false));
  FaultSpec f;
  f.site = Site::Scheduler;
  f.sched = SchedulerFault{SchedulerFault::Field::ActiveMask, 0, 7, false};
  const InjectionResult r = inj.inject(f);
  // Thread 7 of warp slot 0 never executes -> its output stays zero (SDC).
  ASSERT_TRUE(r.outcome == Outcome::SdcSingle || r.outcome == Outcome::SdcMultiple);
  bool has7 = false;
  for (std::uint32_t idx : r.corrupted_idx)
    if (idx == 7) has7 = true;
  EXPECT_TRUE(has7);
}

TEST(Injector, SchedulerPcFaultCausesDue) {
  const MicroBench mb = make_micro_bench(MicroOp::IADD, InputRange::Medium, 3);
  Injector inj(target_from_micro(mb, false));
  FaultSpec f;
  f.site = Site::Scheduler;
  f.sched = SchedulerFault{SchedulerFault::Field::StoredPc, 0, 9, true};
  const InjectionResult r = inj.inject(f);
  EXPECT_EQ(r.outcome, Outcome::Due);  // PC forced past the program
}

TEST(Injector, PipelineInstrWordFault) {
  const MicroBench mb = make_micro_bench(MicroOp::FADD, InputRange::Medium, 3);
  Injector inj(target_from_micro(mb, false));
  FaultSpec f;
  f.site = Site::Pipeline;
  f.pipe = PipelineFault{PipelineFault::Field::InstrWord, 0, 57, true};
  const InjectionResult r = inj.inject(f);
  // Corrupting opcode bits of every instruction either DUEs or corrupts data.
  EXPECT_NE(r.outcome, Outcome::Masked);
}

TEST(Injector, InjectionDoesNotPerturbNextRun) {
  const MicroBench mb = make_micro_bench(MicroOp::FMUL, InputRange::Medium, 4);
  Injector inj(target_from_micro(mb, true));
  FaultSpec f;
  f.site = Site::FuLane;
  f.lane = 0;
  f.bus = sf::BusFault{sf::Bus::MulProduct, 46, false};
  (void)inj.inject(f);
  // A null-ish fault afterwards must be fully masked (state fully reset).
  FaultSpec benign;
  benign.site = Site::FuLane;
  benign.lane = 1;
  benign.bus = sf::BusFault{sf::Bus::AddExpDiff, 7, false};  // unused by FMUL
  const InjectionResult r = inj.inject(benign);
  EXPECT_EQ(r.outcome, Outcome::Masked);
}

TEST(Injector, PermanentRtlHooksCutLivelocksExactly) {
  // The first 300 ids of a t-MxM pipeline and a scheduler campaign (the
  // fault stream of TmxmUnitRunner) run once with the hook itself, which may
  // cut a periodic hang short, and once through PlainForward. The launch
  // verdict and every output word must agree; they are all an
  // InjectionResult is made of.
  constexpr auto kType = workloads::TileType::Random;
  constexpr std::uint64_t kSeed = 3, kIds = 300, kBudget = 400'000;
  obs::Counter& cuts = obs::counter("arch.livelocks_cut");
  const std::uint64_t cuts0 = cuts.value();
  std::vector<FaultSpec> cut_hangs;
  for (const Site site : {Site::Pipeline, Site::Scheduler}) {
    Rng base(kSeed ^ (static_cast<std::uint64_t>(kType) << 8) ^
             (static_cast<std::uint64_t>(site) << 16));
    for (std::uint64_t draw = 0; draw < 4; ++draw) {
      const Target t = target_from_tmxm(kType, kSeed * 16 + draw);
      arch::Gpu cut_gpu, plain_gpu;
      t.setup(cut_gpu);
      t.setup(plain_gpu);
      const arch::Gpu::MemoryImage image = cut_gpu.save_memory();
      auto run = [&](arch::Gpu& gpu, arch::MachineHooks& hooks) {
        gpu.restore_memory(image);
        gpu.set_hooks(&hooks);
        const bool ok = t.run(gpu, kBudget);
        gpu.set_hooks(nullptr);
        return std::pair(ok, std::vector<std::uint32_t>(
                                 gpu.global().begin() + static_cast<std::ptrdiff_t>(t.out_addr),
                                 gpu.global().begin() +
                                     static_cast<std::ptrdiff_t>(t.out_addr + t.out_words)));
      };
      for (std::uint64_t id = draw; id < kIds; id += 4) {
        Rng rng = base.fork(id);
        const FaultSpec f = random_fault(site, true, rng);
        PipelineFaultHook pipe(f.pipe, f.timing);
        SchedulerFaultHook sched(f.sched, f.timing);
        arch::MachineHooks& hook =
            site == Site::Pipeline ? static_cast<arch::MachineHooks&>(pipe) : sched;
        ASSERT_TRUE(hook.cycle_invariant());
        arch::PlainForward plain(hook);
        const std::uint64_t before = cuts.value();
        const auto got = run(cut_gpu, hook);
        if (cuts.value() > before) cut_hangs.push_back(f);
        const auto want = run(plain_gpu, plain);
        EXPECT_EQ(got, want) << site_name(site) << " id " << id;
      }
    }
  }
  ASSERT_GT(cuts.value(), cuts0);
  ASSERT_FALSE(cut_hangs.empty());

  // The same periodic hang under Transient timing (active over the whole
  // budget, so the same hang) runs the plain watchdog: no cut.
  FaultSpec f = cut_hangs.front();
  f.timing.mode = FaultTiming::Mode::Transient;
  f.timing.onset = 0;
  f.timing.duration = 2 * kBudget;
  PipelineFaultHook pipe(f.pipe, f.timing);
  SchedulerFaultHook sched(f.sched, f.timing);
  arch::MachineHooks& hook =
      f.site == Site::Pipeline ? static_cast<arch::MachineHooks&>(pipe) : sched;
  EXPECT_FALSE(hook.cycle_invariant());
  const Target t = target_from_tmxm(kType, kSeed * 16);
  arch::Gpu gpu;
  t.setup(gpu);
  gpu.set_hooks(&hook);
  const std::uint64_t before = cuts.value();
  EXPECT_FALSE(t.run(gpu, kBudget));
  EXPECT_EQ(cuts.value(), before);
}

/// One rtl cell through the store driver, in a temporary store.
AvfSummary run_cell(const store::CampaignMeta& meta,
                    std::vector<InjectionResult>* details = nullptr) {
  store::ScratchStore scratch(meta);
  return run_tmxm_campaign_store(scratch.ckpt(), details);
}

TEST(Campaign, MicroCampaignProducesMixedOutcomes) {
  const AvfSummary s = run_cell(
      micro_campaign_meta(MicroOp::FMUL, InputRange::Medium, Site::FuLane, 60, 11));
  EXPECT_EQ(s.injections, 60u);
  EXPECT_GT(s.masked, 0u);
  EXPECT_GT(s.sdc_single + s.sdc_multi, 0u);
  EXPECT_FALSE(s.rel_errors.empty());
}

TEST(Campaign, SchedulerCorruptsMoreThreadsThanFu) {
  const AvfSummary fu = run_cell(
      micro_campaign_meta(MicroOp::IADD, InputRange::Medium, Site::FuLane, 120, 21));
  const AvfSummary sched = run_cell(micro_campaign_meta(
      MicroOp::IADD, InputRange::Medium, Site::Scheduler, 200, 22));
  ASSERT_GT(fu.sdc_single + fu.sdc_multi, 0u);
  ASSERT_GT(sched.sdc_single + sched.sdc_multi, 0u);
  // Paper Fig. 4 discussion: ~1 corrupted thread/warp for INT FUs vs ~28 for
  // the scheduler; we only require the ordering and a clear gap.
  EXPECT_LT(fu.avg_corrupted_per_warp(), 1.5);
  EXPECT_GT(sched.avg_corrupted_per_warp(), fu.avg_corrupted_per_warp());
}

TEST(Campaign, TmxmCampaignRuns) {
  std::vector<InjectionResult> details;
  const AvfSummary s = run_cell(
      tmxm_campaign_meta(workloads::TileType::Random, Site::Scheduler, 40, 31),
      &details);
  EXPECT_EQ(s.injections, 40u);
  EXPECT_EQ(details.size(), 40u);
}

TEST(RandomFault, CoversSites) {
  Rng rng(5);
  for (Site site : {Site::FuLane, Site::Sfu, Site::Pipeline, Site::Scheduler}) {
    for (int i = 0; i < 200; ++i) {
      const FaultSpec f = random_fault(site, true, rng);
      EXPECT_EQ(f.site, site);
      if (site == Site::Sfu) {
        EXPECT_LT(f.lane, 2u);
      }
      if (site == Site::FuLane) {
        EXPECT_LT(f.lane, 32u);
      }
    }
  }
}

}  // namespace
}  // namespace gpf::rtl

namespace gpf::syndrome {
namespace {

std::vector<std::uint32_t> idx_of(std::initializer_list<std::pair<unsigned, unsigned>> rc,
                                  unsigned n) {
  std::vector<std::uint32_t> v;
  for (auto [r, c] : rc) v.push_back(r * n + c);
  return v;
}

TEST(Spatial, BasicPatterns) {
  const unsigned n = 16;
  EXPECT_EQ(classify_spatial({}, n), SpatialPattern::None);
  EXPECT_EQ(classify_spatial(idx_of({{3, 4}}, n), n),
            SpatialPattern::Single);
  EXPECT_EQ(classify_spatial(idx_of({{5, 0}, {5, 3}, {5, 9}, {5, 15}}, n), n),
            SpatialPattern::Row);
  EXPECT_EQ(classify_spatial(idx_of({{0, 7}, {4, 7}, {11, 7}}, n), n),
            SpatialPattern::Col);
  EXPECT_EQ(classify_spatial(
                idx_of({{2, 0}, {2, 5}, {2, 9}, {0, 6}, {7, 6}, {13, 6}}, n), n),
            SpatialPattern::RowCol);
  EXPECT_EQ(classify_spatial(
                idx_of({{4, 4}, {4, 5}, {5, 4}, {5, 5}, {4, 6}, {5, 6}}, n), n),
            SpatialPattern::Block);
  std::vector<std::uint32_t> all;
  for (unsigned i = 0; i < 256; ++i) all.push_back(i);
  EXPECT_EQ(classify_spatial(all, n), SpatialPattern::All);
  EXPECT_EQ(classify_spatial(idx_of({{0, 0}, {3, 9}, {12, 2}, {15, 15}}, n), n),
            SpatialPattern::Random);
}

TEST(Spatial, NamesDefined) {
  for (int p = 0; p <= static_cast<int>(SpatialPattern::All); ++p)
    EXPECT_NE(pattern_name(static_cast<SpatialPattern>(p)), "?");
}

}  // namespace
}  // namespace gpf::syndrome
