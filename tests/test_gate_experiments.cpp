// Campaign-driver tests for src/report/gate_experiments (previously only
// exercised via benches): per-unit class counts stable across engines and
// across a kill/resume cycle through the persistent store, and a 4-shard
// merged store reproducing the single-store run exactly. Also the CLI's
// --engine and numeric flag parsers shared by gpfctl and gpfd.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign_flags.hpp"
#include "gate/batchsim.hpp"
#include "gate/replay.hpp"
#include "report/gate_experiments.hpp"
#include "store/export.hpp"
#include "store/merge.hpp"
#include "store/records.hpp"

using namespace gpf;

namespace {

constexpr std::size_t kMaxIssues = 40;
constexpr std::size_t kFaults = 96;
constexpr std::uint64_t kSeed = 7;

class GateExperimentsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    traces_ = new std::vector<gate::UnitTraces>(
        report::collect_profiling_traces(kMaxIssues));
  }
  static void TearDownTestSuite() {
    delete traces_;
    traces_ = nullptr;
  }
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gpf-gatexp-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static std::array<std::size_t, 4> class_counts(
      const gate::UnitCampaignResult& r) {
    return {r.count_class(gate::FaultClass::Uncontrollable),
            r.count_class(gate::FaultClass::Masked),
            r.count_class(gate::FaultClass::Hang),
            r.count_class(gate::FaultClass::SwError)};
  }

  static std::string export_as(const std::string& store_path,
                               store::ExportFormat format) {
    std::ostringstream os;
    store::export_store(store::load_store(store_path), format, os);
    return os.str();
  }
  static std::string export_json(const std::string& store_path) {
    return export_as(store_path, store::ExportFormat::Json);
  }

  static const std::vector<gate::UnitTraces>& traces() { return *traces_; }

 protected:
  std::filesystem::path dir_;

 private:
  static std::vector<gate::UnitTraces>* traces_;
};

std::vector<gate::UnitTraces>* GateExperimentsTest::traces_ = nullptr;

TEST_F(GateExperimentsTest, ProfilingTracesCoverAllWorkloads) {
  ASSERT_EQ(traces().size(), 14u);
  for (const auto& t : traces()) {
    EXPECT_FALSE(t.workload.empty());
    EXPECT_GT(t.issues, 0u);
  }
}

// Satellite requirement: per-unit class counts are stable across engines at
// the campaign-driver level.
TEST_F(GateExperimentsTest, ClassCountsStableAcrossEngines) {
  const auto batch =
      report::run_gate_campaigns(traces(), kFaults, kSeed, EngineKind::Batch);
  const auto brute =
      report::run_gate_campaigns(traces(), kFaults, kSeed, EngineKind::Brute);
  ASSERT_EQ(batch.units.size(), brute.units.size());
  for (unsigned u = 0; u < 3; ++u) {
    SCOPED_TRACE(gate::unit_name(batch.units[u].unit));
    EXPECT_EQ(class_counts(batch.units[u]), class_counts(brute.units[u]));
  }
  EXPECT_GT(batch.total_dynamic_instructions, 0u);
}

// The checkpointed driver produces the same classifications as the in-memory
// campaign, and the store's class names match the gate library's.
TEST_F(GateExperimentsTest, StoreDriverMatchesInMemoryCampaign) {
  const auto unit = gate::UnitKind::Decoder;
  const auto plain = gate::run_unit_campaign(unit, traces(), kFaults, kSeed,
                                             nullptr, EngineKind::Batch);
  store::CampaignCheckpoint ckpt(
      path("a.gpfs"), report::gate_campaign_meta(unit, kFaults, kMaxIssues, kSeed,
                                                 EngineKind::Batch));
  const auto stored = report::run_unit_campaign_store(traces(), ckpt);
  ASSERT_EQ(stored.faults.size(), plain.faults.size());
  for (std::size_t i = 0; i < plain.faults.size(); ++i) {
    EXPECT_EQ(stored.faults[i].fault.net, plain.faults[i].fault.net);
    EXPECT_EQ(stored.faults[i].activated, plain.faults[i].activated);
    EXPECT_EQ(stored.faults[i].hang, plain.faults[i].hang);
    EXPECT_EQ(stored.faults[i].error_counts, plain.faults[i].error_counts);
    // Store-side class naming agrees with the gate library.
    store::GateRecord rec;
    rec.activated = stored.faults[i].activated;
    rec.hang = stored.faults[i].hang;
    rec.error_counts = stored.faults[i].error_counts;
    EXPECT_STREQ(rec.class_name(),
                 gate::fault_class_name(plain.faults[i].cls()));
  }
}

// Acceptance: killing a campaign mid-run and resuming yields an export
// byte-identical to an uninterrupted run. The kill is simulated two ways:
// a record limit (clean pause) plus a torn half-written record at the tail
// (what a SIGKILL mid-append leaves behind).
TEST_F(GateExperimentsTest, KillAndResumeExportIsByteIdentical) {
  const auto unit = gate::UnitKind::Decoder;
  const auto meta = report::gate_campaign_meta(unit, kFaults, kMaxIssues, kSeed,
                                               EngineKind::Batch);
  // Uninterrupted reference run.
  {
    store::CampaignCheckpoint ckpt(path("full.gpfs"), meta);
    report::run_unit_campaign_store(traces(), ckpt);
    EXPECT_FALSE(ckpt.paused());
  }
  const std::string full_json = export_json(path("full.gpfs"));

  // Interrupted run at 64 lanes: pause after one 64-fault batch (a wider
  // dispatched width could retire the whole campaign in one batch, leaving
  // nothing to resume). The reference above ran at the dispatched width, so
  // this test also asserts byte-identity across lane widths.
  struct LaneGuard {
    ~LaneGuard() { gate::set_batch_lanes_override(0); }
  } lane_guard;
  gate::set_batch_lanes_override(64);
  {
    store::CampaignCheckpoint ckpt(path("killed.gpfs"), meta);
    ckpt.set_record_limit(1);
    report::run_unit_campaign_store(traces(), ckpt);
    EXPECT_TRUE(ckpt.paused());
    EXPECT_LT(ckpt.done_count(), kFaults);
  }
  // ...and SIGKILL debris: a half-written record at the tail.
  {
    std::ofstream f(path("killed.gpfs"), std::ios::binary | std::ios::app);
    const char torn[] = {42, 0, 0, 0, 0, 0, 0, 0, 99, 0, 0, 0, 7};
    f.write(torn, sizeof(torn));
  }
  // Resume to completion.
  {
    store::CampaignCheckpoint ckpt(path("killed.gpfs"), meta);
    EXPECT_GT(ckpt.torn_bytes_dropped(), 0u);
    const auto resumed = report::run_unit_campaign_store(traces(), ckpt);
    EXPECT_FALSE(ckpt.paused());
    EXPECT_EQ(resumed.faults.size(), kFaults);
  }
  EXPECT_EQ(export_json(path("killed.gpfs")), full_json);
}

// Acceptance: merging 4 disjoint shard stores reproduces the single-store
// campaign exactly (counts and export bytes).
TEST_F(GateExperimentsTest, FourShardMergeMatchesSingleStore) {
  const auto unit = gate::UnitKind::Fetch;
  {
    store::CampaignCheckpoint ckpt(
        path("single.gpfs"), report::gate_campaign_meta(unit, kFaults, kMaxIssues,
                                                        kSeed, EngineKind::Batch));
    report::run_unit_campaign_store(traces(), ckpt);
  }
  std::vector<std::string> shard_paths;
  std::size_t sharded_total = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    shard_paths.push_back(path("shard" + std::to_string(s) + ".gpfs"));
    store::CampaignCheckpoint ckpt(
        shard_paths.back(),
        report::gate_campaign_meta(unit, kFaults, kMaxIssues, kSeed,
                                   EngineKind::Batch, s, 4));
    const auto r = report::run_unit_campaign_store(traces(), ckpt);
    sharded_total += r.faults.size();
  }
  EXPECT_EQ(sharded_total, kFaults);

  store::MergeStats st = store::merge_store_files(shard_paths, path("merged.gpfs"));
  EXPECT_EQ(st.records, kFaults);
  EXPECT_EQ(export_json(path("merged.gpfs")), export_json(path("single.gpfs")));
}

// Acceptance: a collapsed + cone-pruned campaign's store export is
// byte-identical to a knobs-off run of the same campaign — collapsing is an
// expansion-exact optimization, not an approximation. Also checks the
// status-level representative accounting.
TEST_F(GateExperimentsTest, CollapsedStoreExportIsByteIdentical) {
  const auto unit = gate::UnitKind::Decoder;
  const auto meta = report::gate_campaign_meta(unit, kFaults, kMaxIssues, kSeed,
                                               EngineKind::Batch);
  struct KnobGuard {
    ~KnobGuard() {
      gpf::set_collapse_override(-1);
      gpf::set_cone_override(-1);
    }
  } guard;

  gpf::set_collapse_override(0);
  gpf::set_cone_override(0);
  {
    store::CampaignCheckpoint ckpt(path("plain.gpfs"), meta);
    report::run_unit_campaign_store(traces(), ckpt);
  }
  EXPECT_EQ(report::gate_campaign_representatives(meta), kFaults);

  gpf::set_collapse_override(1);
  gpf::set_cone_override(1);
  {
    store::CampaignCheckpoint ckpt(path("collapsed.gpfs"), meta);
    report::run_unit_campaign_store(traces(), ckpt);
  }
  const std::size_t reps = report::gate_campaign_representatives(meta);
  EXPECT_LE(reps, kFaults);

  EXPECT_EQ(export_json(path("collapsed.gpfs")), export_json(path("plain.gpfs")));

  // The runner itself reports the same representative accounting.
  const report::GateUnitRunner runner(traces(), meta);
  EXPECT_TRUE(runner.collapsed());
  EXPECT_EQ(runner.representative_count(), reps);
}

// Acceptance: campaign store exports are byte-identical across SIMD lane
// widths — the 64-lane scalar baseline and every wider path this build/CPU
// supports produce exactly the same bytes, because each fault's record is
// independent of which batch carried it. This is what lets a fleet mix
// AVX-512, AVX2 and scalar workers in one campaign.
TEST_F(GateExperimentsTest, StoreExportIsByteIdenticalAcrossLaneWidths) {
  const auto unit = gate::UnitKind::WSC;
  const auto meta = report::gate_campaign_meta(unit, kFaults, kMaxIssues, kSeed,
                                               EngineKind::Batch);
  struct LaneGuard {
    ~LaneGuard() { gate::set_batch_lanes_override(0); }
  } guard;

  gate::set_batch_lanes_override(64);
  {
    store::CampaignCheckpoint ckpt(path("w64.gpfs"), meta);
    report::run_unit_campaign_store(traces(), ckpt);
  }
  const std::string base_json = export_json(path("w64.gpfs"));

  for (const std::size_t w : {std::size_t{256}, std::size_t{512}}) {
    if (!gate::batch_width_supported(w)) continue;
    SCOPED_TRACE(w);
    gate::set_batch_lanes_override(w);
    const std::string p = path("w" + std::to_string(w) + ".gpfs");
    store::CampaignCheckpoint ckpt(p, meta);
    report::run_unit_campaign_store(traces(), ckpt);
    EXPECT_EQ(export_json(p), base_json);
  }
}

// Acceptance: the batch engine's store retires exactly the records of the
// brute-force reference. The per-record CSV export is byte-identical; the
// JSON export differs only in the campaign's engine label.
TEST_F(GateExperimentsTest, StoreExportMatchesBruteReference) {
  const auto unit = gate::UnitKind::Fetch;
  for (const EngineKind e : {EngineKind::Brute, EngineKind::Batch}) {
    store::CampaignCheckpoint ckpt(
        path(std::string(engine_name(e)) + ".gpfs"),
        report::gate_campaign_meta(unit, kFaults, kMaxIssues, kSeed, e));
    report::run_unit_campaign_store(traces(), ckpt);
  }
  EXPECT_EQ(export_as(path("batch.gpfs"), store::ExportFormat::Csv),
            export_as(path("brute.gpfs"), store::ExportFormat::Csv));

  std::string brute_json = export_json(path("brute.gpfs"));
  const std::string label = "\"engine\": \"brute\"";
  const std::size_t at = brute_json.find(label);
  ASSERT_NE(at, std::string::npos);
  brute_json.replace(at, label.size(), "\"engine\": \"batch\"");
  EXPECT_EQ(export_json(path("batch.gpfs")), brute_json);
}

// Regression: a campaign stored into a directory that does not exist yet
// creates it and exports the same bytes as a run into an existing one.
TEST_F(GateExperimentsTest, StoreIntoMissingDirectoryExportsIdentically) {
  const auto meta = report::gate_campaign_meta(
      gate::UnitKind::Decoder, kFaults, kMaxIssues, kSeed, EngineKind::Batch);
  const std::string fresh = path("not/yet/there/gate-decoder.gpfs");
  ASSERT_FALSE(std::filesystem::exists(path("not")));
  for (const std::string& p : {path("gate-decoder.gpfs"), fresh}) {
    store::CampaignCheckpoint ckpt(p, meta);
    report::run_unit_campaign_store(traces(), ckpt);
  }
  EXPECT_EQ(export_json(fresh), export_json(path("gate-decoder.gpfs")));
}

// A store written for one unit refuses to resume a different campaign.
TEST_F(GateExperimentsTest, StoreMismatchIsRejected) {
  const auto meta = report::gate_campaign_meta(gate::UnitKind::Decoder, kFaults,
                                               kMaxIssues, kSeed, EngineKind::Batch);
  { store::CampaignCheckpoint ckpt(path("d.gpfs"), meta); }
  const auto other = report::gate_campaign_meta(gate::UnitKind::WSC, kFaults,
                                                kMaxIssues, kSeed, EngineKind::Batch);
  EXPECT_THROW(store::CampaignCheckpoint(path("d.gpfs"), other),
               std::runtime_error);
}

// The --engine flag accepts exactly the two engines; the retired event
// engine is a usage error that names the valid choices.
TEST(CampaignFlags, ParseEngineAcceptsBruteAndBatchOnly) {
  EXPECT_EQ(gpfcli::parse_engine("brute"), EngineKind::Brute);
  EXPECT_EQ(gpfcli::parse_engine("batch"), EngineKind::Batch);
  for (const char* bad : {"event", "Batch", ""}) {
    SCOPED_TRACE(bad);
    try {
      gpfcli::parse_engine(bad);
      ADD_FAILURE() << "expected UsageError";
    } catch (const gpfcli::UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("brute|batch"), std::string::npos)
          << e.what();
    }
  }
}

// Numeric flags use the GPF_* knob grammar: decimal or 0x/0 prefixed,
// surrounding whitespace allowed, nothing else.
TEST(CampaignFlags, NumericFlagsParseStrictly) {
  gpfcli::Args a;
  a.flags = {{"injections", "5"}, {"seed", "0x10"}, {"faults", " 7 "}};
  EXPECT_EQ(a.get_u64("injections", 0), 5u);
  EXPECT_EQ(a.get_u64("seed", 0), 16u);
  EXPECT_EQ(a.get_u64("faults", 0), 7u);
  EXPECT_EQ(a.get_u64("lease-ms", 1234), 1234u);  // absent: the default
}

// A malformed number is a usage error naming the flag — never a silent
// prefix ("5x" -> 5), a wrapped negative ("-1" -> 2^64-1), or a bare
// "stoull" from the standard library.
TEST(CampaignFlags, MalformedNumericFlagIsUsageErrorNamingTheFlag) {
  for (const char* bad : {"5x", "-1", "abc", "", "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    gpfcli::Args a;
    a.flags = {{"injections", bad}};
    try {
      a.get_u64("injections", 0);
      ADD_FAILURE() << "expected UsageError";
    } catch (const gpfcli::UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("--injections"), std::string::npos)
          << e.what();
    }
  }
  // The same rejection reaches the campaign builders gpfctl run and gpfd use.
  gpfcli::Args perfi;
  perfi.flags = {{"campaign", "perfi"}, {"app", "vectoradd"},
                 {"model", "IOC"}, {"injections", "5x"}};
  EXPECT_THROW(gpfcli::metas_from_flags(perfi), gpfcli::UsageError);
  perfi.flags["injections"] = "5";
  perfi.flags["seed"] = "-1";
  EXPECT_THROW(gpfcli::metas_from_flags(perfi), gpfcli::UsageError);
  perfi.flags["seed"] = "3";
  EXPECT_EQ(gpfcli::metas_from_flags(perfi).front().total, 5u);
}

}  // namespace
