// Store-layer tests: log round-trip, CRC torn-tail recovery, meta
// validation, record codecs, merge semantics, and export determinism.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/env.hpp"
#include "store/checkpoint.hpp"
#include "store/export.hpp"
#include "store/merge.hpp"
#include "store/records.hpp"
#include "store/result_log.hpp"

using namespace gpf;

namespace {

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gpfstore-test-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static store::CampaignMeta gate_meta(std::uint32_t shard_index = 0,
                                       std::uint32_t shard_count = 1) {
    store::CampaignMeta m;
    m.kind = store::CampaignKind::Gate;
    m.target = 0;
    m.engine = 2;
    m.seed = 42;
    m.total = 100;
    m.shard_index = shard_index;
    m.shard_count = shard_count;
    m.param0 = 100;
    m.param1 = 50;
    return m;
  }

  static std::vector<std::uint8_t> gate_payload(std::uint32_t net, bool hang) {
    store::GateRecord r;
    r.net = net;
    r.stuck_high = (net & 1) != 0;
    r.activated = true;
    r.hang = hang;
    r.error_counts[2] = net;
    return store::encode(r);
  }

  std::filesystem::path dir_;
};

TEST_F(StoreTest, MetaHeaderRoundTrip) {
  store::CampaignMeta m = gate_meta(2, 8);
  m.app = "vectoradd";
  const auto bytes = store::ResultLog::encode_meta(m);
  ASSERT_EQ(bytes.size(), store::ResultLog::kHeaderSize);
  const store::CampaignMeta back = store::ResultLog::decode_meta(bytes);
  EXPECT_TRUE(back == m);
  EXPECT_EQ(back.app, "vectoradd");

  // The shard size helper agrees with owns() when the slices are uneven
  // (100 ids over 8 shards: 13 for shards 0-3, 12 for shards 4-7).
  ASSERT_NE(m.total % m.shard_count, 0u);
  for (std::uint32_t i = 0; i < m.shard_count; ++i) {
    m.shard_index = i;
    std::uint64_t owned = 0;
    for (std::uint64_t id = 0; id < m.total; ++id) owned += m.owns(id);
    EXPECT_EQ(m.owned_count(), owned) << "shard " << i;
  }
}

TEST_F(StoreTest, AppendAndRecover) {
  const std::string p = path("a.gpfs");
  {
    store::ResultLog log(p, gate_meta());
    log.append(3, gate_payload(3, false));
    log.append(7, gate_payload(7, true));
  }
  store::ResultLog log(p, gate_meta());
  ASSERT_EQ(log.recovered().size(), 2u);
  EXPECT_EQ(log.recovered()[0].id, 3u);
  EXPECT_EQ(log.recovered()[1].id, 7u);
  EXPECT_EQ(log.torn_bytes_dropped(), 0u);
  const store::GateRecord r = store::decode_gate(log.recovered()[1].payload);
  EXPECT_EQ(r.net, 7u);
  EXPECT_TRUE(r.hang);
  EXPECT_EQ(r.error_counts[2], 7u);
}

TEST_F(StoreTest, TornTailIsTruncatedOnOpen) {
  const std::string p = path("torn.gpfs");
  {
    store::ResultLog log(p, gate_meta());
    log.append(1, gate_payload(1, false));
    log.append(2, gate_payload(2, false));
  }
  // Simulate a SIGKILL mid-append: a record prefix plus half a payload.
  {
    std::ofstream f(p, std::ios::binary | std::ios::app);
    const char garbage[] = {9, 0, 0, 0, 0, 0, 0, 0, 40, 0, 0, 0, 1, 2, 3};
    f.write(garbage, sizeof(garbage));
  }
  store::ResultLog log(p, gate_meta());
  EXPECT_EQ(log.recovered().size(), 2u);
  EXPECT_GT(log.torn_bytes_dropped(), 0u);
  // The torn bytes are gone from disk: appending then reopening yields 3
  // clean records.
  log.append(9, gate_payload(9, false));
  store::ResultLog log2(p, gate_meta());
  EXPECT_EQ(log2.recovered().size(), 3u);
  EXPECT_EQ(log2.torn_bytes_dropped(), 0u);
}

TEST_F(StoreTest, StaleRecoveryTmpFromCrashedRecoveryIsIgnored) {
  // A crash *during* a previous torn-tail recovery leaves `<store>.recover.tmp`
  // behind — possibly a partial copy. The original must stay authoritative
  // (rename is atomic, so the original was never modified) and the leftover
  // must be deleted, not renamed over the good data.
  const std::string p = path("crashrec.gpfs");
  {
    store::ResultLog log(p, gate_meta());
    log.append(1, gate_payload(1, false));
    log.append(2, gate_payload(2, true));
  }
  {
    std::ofstream f(p, std::ios::binary | std::ios::app);
    const char garbage[] = {9, 0, 0, 0, 0, 0, 0, 0, 40, 0, 0, 0, 1, 2, 3};
    f.write(garbage, sizeof(garbage));
  }
  // The stale tmp is a truncated copy missing record 2 — exactly what a
  // recovery killed mid-write would leave.
  std::ofstream(p + ".recover.tmp", std::ios::binary) << "partial copy";

  store::ResultLog log(p, gate_meta());
  ASSERT_EQ(log.recovered().size(), 2u);
  EXPECT_EQ(log.recovered()[1].id, 2u);
  EXPECT_GT(log.torn_bytes_dropped(), 0u);
  EXPECT_FALSE(std::filesystem::exists(p + ".recover.tmp"));
}

TEST_F(StoreTest, RecoveryRewritesAtomicallyAndIsIdempotent) {
  const std::string p = path("atomicrec.gpfs");
  {
    store::ResultLog log(p, gate_meta());
    log.append(4, gate_payload(4, false));
  }
  {
    std::ofstream f(p, std::ios::binary | std::ios::app);
    f.write("\x07\x00", 2);  // torn: half a record header
  }
  {
    store::ResultLog log(p, gate_meta());
    EXPECT_EQ(log.recovered().size(), 1u);
    EXPECT_EQ(log.torn_bytes_dropped(), 2u);
    // The temp file the recovery wrote through must be gone after the rename.
    EXPECT_FALSE(std::filesystem::exists(p + ".recover.tmp"));
  }
  // Second open: the tail was truly dropped on disk, nothing left to recover.
  store::ResultLog log(p, gate_meta());
  EXPECT_EQ(log.recovered().size(), 1u);
  EXPECT_EQ(log.torn_bytes_dropped(), 0u);
}

TEST_F(StoreTest, SyncIsDurableBoundaryUnderBothFsyncSettings) {
  const std::string p = path("sync.gpfs");
  for (const int fsync_on : {0, 1}) {
    std::filesystem::remove(p);
    set_fsync_override(fsync_on);
    {
      store::CampaignCheckpoint ckpt(p, gate_meta());
      ckpt.record(1, gate_payload(1, false));
      ckpt.sync();  // must be callable mid-campaign with either setting
      ckpt.record(2, gate_payload(2, false));
      // Destructor syncs too (graceful close is always durable).
    }
    store::CampaignCheckpoint back(p, gate_meta());
    EXPECT_EQ(back.done().size(), 2u) << "fsync=" << fsync_on;
  }
  set_fsync_override(-1);
}

TEST_F(StoreTest, CorruptedRecordCrcStopsScan) {
  const std::string p = path("crc.gpfs");
  {
    store::ResultLog log(p, gate_meta());
    log.append(1, gate_payload(1, false));
    log.append(2, gate_payload(2, false));
  }
  // Flip one payload byte of the *last* record.
  {
    std::fstream f(p, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }
  store::ResultLog log(p, gate_meta());
  EXPECT_EQ(log.recovered().size(), 1u);
  EXPECT_GT(log.torn_bytes_dropped(), 0u);
}

TEST_F(StoreTest, MismatchedMetaRefusesResume) {
  const std::string p = path("meta.gpfs");
  { store::ResultLog log(p, gate_meta()); }
  store::CampaignMeta other = gate_meta();
  other.seed = 43;
  EXPECT_THROW(store::ResultLog(p, other), std::runtime_error);
  other = gate_meta(1, 4);
  EXPECT_THROW(store::ResultLog(p, other), std::runtime_error);
}

TEST_F(StoreTest, NotAStoreFile) {
  const std::string p = path("junk.gpfs");
  std::ofstream(p) << "this is not a store";
  EXPECT_THROW(store::load_store(p), std::runtime_error);
}

TEST_F(StoreTest, CheckpointSkipAndLimit) {
  const std::string p = path("ckpt.gpfs");
  {
    store::CampaignCheckpoint ckpt(p, gate_meta());
    EXPECT_FALSE(ckpt.is_done(5));
    EXPECT_TRUE(ckpt.record(5, gate_payload(5, false)));
    ckpt.set_record_limit(2);
    EXPECT_FALSE(ckpt.record(6, gate_payload(6, false)));  // 2nd reaches limit
    EXPECT_TRUE(ckpt.should_stop());
    EXPECT_FALSE(ckpt.record(7, gate_payload(7, false)));  // still recorded
  }
  store::CampaignCheckpoint ckpt(p, gate_meta());
  EXPECT_EQ(ckpt.done().size(), 3u);
  EXPECT_TRUE(ckpt.is_done(5));
  EXPECT_TRUE(ckpt.is_done(7));
  EXPECT_FALSE(ckpt.should_stop());
}

// A scratch store is an ordinary store in its own temporary directory, and
// the directory goes with the object.
TEST_F(StoreTest, ScratchStoreIsRemovedWithTheObject) {
  std::filesystem::path dir;
  {
    store::ScratchStore scratch(gate_meta());
    scratch.ckpt().record(3, gate_payload(3, false));
    const std::string p = scratch.ckpt().path();
    dir = std::filesystem::path(p).parent_path();
    EXPECT_EQ(dir.filename().string().rfind("gpf-scratch-", 0), 0u) << dir;
    scratch.ckpt().sync();
    EXPECT_EQ(store::load_store(p).records.size(), 1u);
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST_F(StoreTest, MergeDisjointShardsAndConflicts) {
  std::vector<store::LoadedStore> shards(2);
  shards[0].meta = gate_meta(0, 2);
  shards[1].meta = gate_meta(1, 2);
  shards[0].records[0] = gate_payload(0, false);
  shards[0].records[2] = gate_payload(2, false);
  shards[1].records[1] = gate_payload(1, true);

  store::MergeStats st;
  const store::LoadedStore merged = store::merge_stores(shards, &st);
  EXPECT_EQ(merged.records.size(), 3u);
  EXPECT_EQ(merged.meta.shard_count, 1u);
  EXPECT_EQ(st.duplicate_identical, 0u);

  // Identical overlap dedupes; differing overlap is a conflict.
  shards[1].records[0] = gate_payload(0, false);
  EXPECT_NO_THROW(store::merge_stores(shards, &st));
  EXPECT_EQ(st.duplicate_identical, 1u);
  shards[1].records[0] = gate_payload(0, true);
  EXPECT_THROW(store::merge_stores(shards, nullptr), std::runtime_error);

  // Different campaign entirely.
  shards[1].meta.seed = 99;
  EXPECT_THROW(store::merge_stores(shards, nullptr), std::runtime_error);
}

TEST_F(StoreTest, RecordCodecsRoundTrip) {
  store::RtlRecord r;
  r.outcome = store::RtlOutcome::SdcMultiple;
  r.corrupted = 12;
  r.per_warp_corrupted = 3.25;
  r.rel_errors = {1e-3, 0.5};
  r.corrupted_idx = {4, 9, 31};
  const store::RtlRecord rb = store::decode_rtl(store::encode(r));
  EXPECT_EQ(rb.outcome, r.outcome);
  EXPECT_EQ(rb.corrupted, r.corrupted);
  EXPECT_EQ(rb.per_warp_corrupted, r.per_warp_corrupted);
  EXPECT_EQ(rb.rel_errors, r.rel_errors);
  EXPECT_EQ(rb.corrupted_idx, r.corrupted_idx);

  store::PerfiRecord p;
  p.outcome = store::PerfiOutcome::DueHang;
  EXPECT_EQ(store::decode_perfi(store::encode(p)).outcome, p.outcome);

  EXPECT_THROW(store::decode_gate(store::encode(p)), std::runtime_error);
}

TEST_F(StoreTest, ScanRecordsIsReadOnlyAndResumable) {
  const std::string p = path("scan.gpfs");
  {
    store::ResultLog log(p, gate_meta());
    log.append(1, gate_payload(1, false));
    log.append(2, gate_payload(2, false));
  }
  const auto before = std::filesystem::file_size(p);

  store::ScannedTail t1 = store::scan_records(p, store::ResultLog::kHeaderSize);
  ASSERT_EQ(t1.records.size(), 2u);
  EXPECT_EQ(t1.records[0].id, 1u);
  EXPECT_EQ(t1.end_offset, before);

  // Resuming from the watermark sees only what was appended after it.
  {
    store::ResultLog log(p, gate_meta());
    log.append(3, gate_payload(3, true));
  }
  const store::ScannedTail t2 = store::scan_records(p, t1.end_offset);
  ASSERT_EQ(t2.records.size(), 1u);
  EXPECT_EQ(t2.records[0].id, 3u);
  EXPECT_EQ(t2.end_offset, std::filesystem::file_size(p));

  // A torn tail ends the scan without touching the file (unlike ResultLog's
  // open-time recovery, which rewrites it).
  {
    std::ofstream out(p, std::ios::binary | std::ios::app);
    out.write("torn!", 5);
  }
  const auto torn_size = std::filesystem::file_size(p);
  const store::ScannedTail t3 =
      store::scan_records(p, store::ResultLog::kHeaderSize);
  EXPECT_EQ(t3.records.size(), 3u);
  EXPECT_EQ(t3.end_offset, torn_size - 5);
  EXPECT_EQ(std::filesystem::file_size(p), torn_size);

  // Offsets inside the header or beyond EOF are caller bugs (a stale
  // watermark against a truncated log) and throw instead of misparsing.
  EXPECT_THROW(store::scan_records(p, 0), std::runtime_error);
  EXPECT_THROW(store::scan_records(p, torn_size + 1), std::runtime_error);
}

TEST_F(StoreTest, MergeCreatesMissingOutputDirectories) {
  const std::string a = path("in-a.gpfs");
  const std::string b = path("in-b.gpfs");
  {
    store::ResultLog la(a, gate_meta(0, 2));
    la.append(0, gate_payload(0, false));
    store::ResultLog lb(b, gate_meta(1, 2));
    lb.append(1, gate_payload(1, false));
  }
  const std::string out = path("fresh/nested/dir/merged.gpfs");
  const store::MergeStats st = store::merge_store_files({a, b}, out);
  EXPECT_EQ(st.records, 2u);
  const store::LoadedStore merged = store::load_store(out);
  EXPECT_EQ(merged.records.size(), 2u);
  EXPECT_EQ(merged.meta.shard_count, 1u);
}

TEST_F(StoreTest, ExportIsDeterministicAndSorted) {
  const std::string p = path("exp.gpfs");
  {
    store::CampaignCheckpoint ckpt(p, gate_meta());
    // Out-of-order appends: export must come back id-sorted.
    ckpt.record(9, gate_payload(9, false));
    ckpt.record(1, gate_payload(1, true));
    ckpt.record(4, gate_payload(4, false));
  }
  std::ostringstream a, b, csv;
  store::export_store(store::load_store(p), store::ExportFormat::Json, a);
  store::export_store(store::load_store(p), store::ExportFormat::Json, b);
  store::export_store(store::load_store(p), store::ExportFormat::Csv, csv);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"id\": 1"), std::string::npos);
  EXPECT_LT(a.str().find("\"id\": 1"), a.str().find("\"id\": 4"));
  EXPECT_LT(a.str().find("\"id\": 4"), a.str().find("\"id\": 9"));
  // CSV: header line then one id-sorted row per record.
  std::istringstream lines(csv.str());
  std::string line;
  std::vector<std::string> first_fields;
  while (std::getline(lines, line))
    first_fields.push_back(line.substr(0, line.find(',')));
  ASSERT_EQ(first_fields.size(), 4u);
  EXPECT_EQ(first_fields[0], "id");
  EXPECT_EQ(first_fields[1], "1");
  EXPECT_EQ(first_fields[2], "4");
  EXPECT_EQ(first_fields[3], "9");
}

}  // namespace
