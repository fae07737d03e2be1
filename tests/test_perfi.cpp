// Directed tests for the 13 software error functions plus EPR-campaign
// integration: each model must produce its architecturally-specified effect.
#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "perfi/campaign.hpp"
#include "perfi/injector.hpp"
#include "plain_forward.hpp"
#include "workloads/workload.hpp"

namespace gpf::perfi {
namespace {

using errmodel::ErrorDescriptor;
using errmodel::ErrorModel;

ErrorDescriptor base_descriptor(ErrorModel m) {
  ErrorDescriptor d;
  d.model = m;
  d.sm_id = 0;
  d.ppb_id = 0;
  d.warp_mask = 0xFF;        // all resident warps
  d.thread_mask = 0x1;       // lane 0
  d.bit_err_mask = 0x1;
  return d;
}

const workloads::Workload& app(const char* name) {
  const workloads::Workload* w = workloads::find(name);
  if (!w) throw std::runtime_error("missing app");
  return *w;
}

/// One EPR cell through the store driver, in a temporary store.
EprCell epr_cell(const char* name, ErrorModel model, std::size_t n,
                 std::uint64_t seed) {
  store::ScratchStore scratch(epr_campaign_meta(app(name), model, n, seed));
  return run_epr_cell_store(app(name), scratch.ckpt());
}

TEST(ErrorFunctions, NullModelOutcomeEquivalence) {
  // An injector whose warp mask matches nothing behaves as uninstrumented.
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IOC);
  d.warp_mask = 0;  // never matches
  EXPECT_EQ(runner.inject(d), store::PerfiOutcome::Masked);
}

TEST(ErrorFunctions, IvocAlwaysDue) {
  AppInjectionRunner runner(app("vectoradd"));
  const ErrorDescriptor d = base_descriptor(ErrorModel::IVOC);
  EXPECT_TRUE(store::perfi_is_due(runner.inject(d)));
  EXPECT_EQ(runner.last_trap(), arch::TrapKind::InvalidOpcode);
}

TEST(ErrorFunctions, IvraRaisesInvalidRegister) {
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IVRA);
  d.err_oper_loc = 1;  // corrupt the first source operand
  EXPECT_TRUE(store::perfi_is_due(runner.inject(d)));
  EXPECT_EQ(runner.last_trap(), arch::TrapKind::InvalidRegister);
}

TEST(ErrorFunctions, IraProducesSdcOrDue) {
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IRA);
  d.err_oper_loc = 0;
  d.bit_err_mask = 0x3;
  // Redirected destinations either corrupt data (SDC) or derail addressing.
  EXPECT_NE(runner.inject(d), store::PerfiOutcome::Masked);
}

TEST(ErrorFunctions, IatCorruptsOutput) {
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IAT);
  d.thread_mask = 0x2;  // thread 1's index register flips
  d.bit_err_mask = 0x4;
  const store::PerfiOutcome out = runner.inject(d);
  EXPECT_NE(out, store::PerfiOutcome::Masked);
}

TEST(ErrorFunctions, WvOnlyAffectsTargetPredicate) {
  // vectoradd uses one predicate (P0) for its bounds check; flipping P3
  // must be fully masked.
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::WV);
  d.target_pred = 3;
  EXPECT_EQ(runner.inject(d), store::PerfiOutcome::Masked);
  d.target_pred = 0;
  EXPECT_NE(runner.inject(d), store::PerfiOutcome::Masked);
}

TEST(ErrorFunctions, ImdMaskedWithoutSharedMemory) {
  // The paper: codes that do not use shared memory mask 100% of IMD.
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IMD);
  d.thread_mask = 0xFFFFFFFF;
  d.bit_err_mask = 0xFF;
  EXPECT_EQ(runner.inject(d), store::PerfiOutcome::Masked);
}

TEST(ErrorFunctions, ImdAffectsSharedMemoryApp) {
  // t-MxM stores tiles to shared memory every iteration.
  AppInjectionRunner runner(app("tmxm"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IMD);
  d.thread_mask = 0xFFFFFFFF;
  d.err_oper_loc = 0;  // corrupt the stored data register
  d.bit_err_mask = 1u << 20;
  EXPECT_NE(runner.inject(d), store::PerfiOutcome::Masked);
}

TEST(ErrorFunctions, ImsMaskedWithoutSharedOrConst) {
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IMS);
  d.thread_mask = 0xFFFFFFFF;
  d.bit_err_mask = 0xFFFF;
  EXPECT_EQ(runner.inject(d), store::PerfiOutcome::Masked);
}

TEST(ErrorFunctions, IalDisableDropsResults) {
  AppInjectionRunner runner(app("vectoradd"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IAL);
  d.enable_lane = false;
  d.thread_mask = 0x1;  // lane 0 results discarded
  EXPECT_NE(runner.inject(d), store::PerfiOutcome::Masked);
}

TEST(ErrorFunctions, IocChangesComputation) {
  AppInjectionRunner runner(app("mxm"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IOC);
  d.replacement_op = 0;  // IADD substitution
  EXPECT_NE(runner.inject(d), store::PerfiOutcome::Masked);
}

TEST(ErrorFunctions, DeterministicOutcome) {
  AppInjectionRunner runner(app("gemm"));
  ErrorDescriptor d = base_descriptor(ErrorModel::IAT);
  d.bit_err_mask = 0x8;
  const store::PerfiOutcome a = runner.inject(d);
  const store::PerfiOutcome b = runner.inject(d);
  EXPECT_EQ(a, b);
}

TEST(Campaign, EprCellAccounting) {
  const EprCell cell = epr_cell("vectoradd", ErrorModel::IAT, 20, 77);
  EXPECT_EQ(cell.injections, 20u);
  EXPECT_EQ(cell.masked + cell.sdc + cell.due, 20u);
  EXPECT_NEAR(cell.epr_sdc() + cell.epr_due() + cell.epr_masked(), 1.0, 1e-9);
}

TEST(Campaign, OperationErrorsSkewToDue) {
  // Paper Fig. 13: IRA/IVRA injections overwhelmingly DUE.
  const EprCell ivra = epr_cell("mxm", ErrorModel::IVRA, 15, 78);
  EXPECT_GT(ivra.epr_due(), 0.9);
}

TEST(Campaign, ParallelManagementErrorsProduceSdc) {
  // Paper: IAT on low-interdependence codes mostly SDC.
  const EprCell iat = epr_cell("vectoradd", ErrorModel::IAT, 25, 79);
  EXPECT_GT(iat.epr_sdc(), 0.3);
}

TEST(Campaign, SoftwareModelListMatchesPaper) {
  const auto models = software_models();
  EXPECT_EQ(models.size(), 11u);  // 13 minus IPP and IVOC
  for (auto m : models) {
    EXPECT_NE(m, ErrorModel::IPP);
    EXPECT_NE(m, ErrorModel::IVOC);
  }
}

TEST(Descriptor, RandomDescriptorsRespectModelShape) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const auto d = random_descriptor(ErrorModel::IRA, rng);
    EXPECT_EQ(d.thread_mask, 0xFFFFFFFFu);  // warp-wide model
    EXPECT_EQ(d.warp_mask, 0xFFu);          // shared decode-path hardware
  }
  for (int i = 0; i < 100; ++i) {
    const auto d = random_descriptor(ErrorModel::IAT, rng);
    EXPECT_NE(d.thread_mask, 0u);
    EXPECT_LE(std::popcount(d.thread_mask), 4);
  }
}

TEST(Campaign, FastInjectionEqualsFreshPlainRun) {
  // The memory image and the livelock cut must not change any outcome: for
  // every app and software model, AppInjectionRunner agrees with a fresh
  // clear_memories() + setup() run on the plain watchdog path, down to the
  // launch counts of hangs.
  obs::Counter& cuts = obs::counter("arch.livelocks_cut");
  const std::uint64_t cuts0 = cuts.value();
  std::size_t hangs = 0;
  for (const workloads::Workload* w : workloads::evaluation_set()) {
    AppInjectionRunner runner(*w);
    arch::Gpu gpu;
    const std::vector<std::uint32_t> golden = workloads::golden_output(*w, gpu);
    const workloads::OutputSpec spec = w->output();
    for (const ErrorModel model : software_models()) {
      Rng rng(0x5EED ^ static_cast<std::uint64_t>(model));
      for (int k = 0; k < 3; ++k) {
        const ErrorDescriptor d = random_descriptor(model, rng);
        const store::PerfiOutcome got = runner.inject(d);

        ErrorInjector injector(d);
        arch::PlainForward plain(injector);
        gpu.clear_memories();
        w->setup(gpu);
        gpu.set_hooks(&plain);
        const workloads::RunStats want = w->run(gpu, runner.budget());
        gpu.set_hooks(nullptr);
        const bool want_masked =
            want.ok &&
            std::equal(golden.begin(), golden.end(),
                       gpu.global().begin() + static_cast<std::ptrdiff_t>(spec.addr));

        const std::string where = std::string(w->name()) + " x " +
                                  std::string(errmodel::name_of(model)) + " #" +
                                  std::to_string(k);
        const workloads::RunStats& have = runner.last_stats();
        EXPECT_EQ(store::perfi_is_due(got), !want.ok) << where;
        EXPECT_EQ(got == store::PerfiOutcome::Masked, want_masked) << where;
        EXPECT_EQ(runner.last_trap(), want.trap) << where;
        EXPECT_EQ(have.ok, want.ok) << where;
        EXPECT_EQ(have.cycles, want.cycles) << where;
        EXPECT_EQ(have.instructions, want.instructions) << where;
        EXPECT_EQ(have.launches, want.launches) << where;
        EXPECT_EQ(have.unit_issues, want.unit_issues) << where;
        hangs += want.trap == arch::TrapKind::Watchdog;
      }
    }
  }
  EXPECT_GT(hangs, 0u);
  EXPECT_GT(cuts.value(), cuts0);
}

TEST(Campaign, GoldenRunCountsItsLaunches) {
  // arch.* totals are added once per launch from its LaunchResult, so a run
  // raises them by exactly its RunStats.
  obs::Counter& launches = obs::counter("arch.launches");
  obs::Counter& instructions = obs::counter("arch.instructions");
  obs::Counter& cycles = obs::counter("arch.cycles");
  for (const char* name : {"nw", "bfs"}) {
    const workloads::Workload& w = app(name);
    arch::Gpu gpu;
    w.setup(gpu);
    const std::uint64_t l0 = launches.value(), i0 = instructions.value(), c0 = cycles.value();
    const workloads::RunStats stats = w.run(gpu);
    ASSERT_TRUE(stats.ok) << name;
    EXPECT_GT(stats.launches, 1u) << name;
    EXPECT_EQ(launches.value() - l0, stats.launches) << name;
    EXPECT_EQ(instructions.value() - i0, stats.instructions) << name;
    EXPECT_EQ(cycles.value() - c0, stats.cycles) << name;
  }
}

TEST(Campaign, BfsIalHangsAreCut) {
  obs::Counter& cuts = obs::counter("arch.livelocks_cut");
  obs::Counter& skipped = obs::counter("arch.cycles_skipped");
  const std::uint64_t cuts0 = cuts.value(), skipped0 = skipped.value();
  const EprCell cell = epr_cell("bfs", ErrorModel::IAL, 10, 12648430);
  EXPECT_GT(cell.due_hang, 0u);
  EXPECT_GT(cuts.value(), cuts0);
  EXPECT_GT(skipped.value(), skipped0);
}

}  // namespace
}  // namespace gpf::perfi
