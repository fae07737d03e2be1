// Append-only binary result log for fault-injection campaigns.
//
// A campaign store is a single file: a fixed-size header identifying the
// campaign (kind, target, engine, seed, id-space size, shard slice) followed
// by a stream of variable-length records, one per retired fault/injection.
// Every record carries a CRC32 over its id and payload, so a process killed
// mid-write leaves at most one torn record at the tail, which open() detects
// and truncates away (atomically: the trimmed copy is written to a temp file
// and renamed over the original, so a crash mid-recovery never destroys
// valid records). Appends are flushed record-by-record into the OS page
// cache — safe against a process kill — and sync() (fdatasync, GPF_FSYNC)
// extends that to host crash / power loss at checkpoint boundaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace gpf::store {

enum class CampaignKind : std::uint8_t {
  Gate = 0,   ///< gate-level stuck-at sweep (Tables 4-5, Fig. 10)
  Rtl = 1,    ///< RTL t-MxM AVF injections (Figs. 7-9, Table 2)
  Perfi = 2,  ///< instruction-level EPR injections (Figs. 12-13)
};
const char* campaign_kind_name(CampaignKind k);

/// Campaign identity, persisted in the store header. Two stores are shards
/// of the same campaign iff everything but (shard_index, shard_count)
/// matches; a resume must match everything including the shard slice.
struct CampaignMeta {
  CampaignKind kind = CampaignKind::Gate;
  std::uint8_t target = 0;   ///< gate: UnitKind; rtl: TileType; perfi: unused
  std::uint8_t model = 0xFF; ///< perfi: ErrorModel; others: 0xFF
  std::uint8_t engine = 0xFF;///< gate: EngineKind; others: 0xFF
  std::uint64_t seed = 0;
  std::uint64_t total = 0;   ///< campaign id space: ids are [0, total)
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  std::uint64_t param0 = 0;  ///< gate: requested faults/unit; rtl: Site
  std::uint64_t param1 = 0;  ///< gate: profiling max_issues
  std::string app;           ///< perfi: workload name (<= 19 chars)

  /// True when `id` belongs to this shard's slice of the id space.
  bool owns(std::uint64_t id) const { return id % shard_count == shard_index; }
  /// Everything-but-shard equality (merge compatibility).
  bool same_campaign(const CampaignMeta& o) const;
  bool operator==(const CampaignMeta& o) const;
};

/// One retired result: campaign-local id plus an opaque payload (see
/// records.hpp for the per-campaign codecs).
struct Record {
  std::uint64_t id = 0;
  std::vector<std::uint8_t> payload;
};

/// The append-only log file. Not thread-safe; CampaignCheckpoint adds the
/// campaign-facing locking and dedup on top.
class ResultLog {
 public:
  /// Opens `path`, creating it (and any missing parent directories) with
  /// `meta` when absent. When the file exists, its header must match `meta`
  /// exactly (a mismatched resume is an error, not silent corruption); valid
  /// records are loaded and a torn tail (truncated or CRC-failing bytes) is
  /// truncated off before appending.
  ResultLog(const std::string& path, const CampaignMeta& meta);

  /// Opens an existing store read-only-ish (meta comes from the file).
  explicit ResultLog(const std::string& path);

  ~ResultLog();
  ResultLog(const ResultLog&) = delete;
  ResultLog& operator=(const ResultLog&) = delete;

  const CampaignMeta& meta() const { return meta_; }
  const std::string& path() const { return path_; }
  /// Records recovered at open time (insertion order = file order).
  const std::vector<Record>& recovered() const { return recovered_; }
  /// Records the tail truncation (if any) performed at open time, in bytes.
  std::size_t torn_bytes_dropped() const { return torn_bytes_; }

  /// Appends one record and flushes it to the OS page cache (fwrite +
  /// fflush). Exact guarantee: once append() returns, the record survives
  /// any crash of *this process* (SIGKILL included); it does NOT survive a
  /// host crash or power loss until the next sync(). Callers that
  /// acknowledge work to a coordinator should sync() first.
  void append(std::uint64_t id, std::span<const std::uint8_t> payload);

  /// Pushes every record appended so far onto stable storage (fdatasync).
  /// Gated by GPF_FSYNC (default on): with GPF_FSYNC=0 this is a no-op and
  /// a host crash can lose records appended since the last sync — process
  /// crashes still lose nothing either way. Called by CampaignCheckpoint at
  /// checkpoint/lease-retire boundaries, not per append.
  void sync();

  static std::vector<std::uint8_t> encode_meta(const CampaignMeta& meta);
  static CampaignMeta decode_meta(std::span<const std::uint8_t> header);
  static constexpr std::size_t kHeaderSize = 80;
  static constexpr std::uint64_t kMagic = 0x31524F5453465047ULL;  // "GPFSTOR1"
  static constexpr std::uint32_t kVersion = 1;

 private:
  void open_existing(const CampaignMeta* expect);
  void create_new(const CampaignMeta& meta);

  std::string path_;
  CampaignMeta meta_;
  std::FILE* f_ = nullptr;
  std::vector<Record> recovered_;
  std::size_t torn_bytes_ = 0;
  std::size_t unsynced_bytes_ = 0;
};

/// Result of a pure read-only record scan (see scan_records).
struct ScannedTail {
  std::vector<Record> records;   ///< valid records found, in file order
  std::size_t end_offset = 0;    ///< one past the last valid record's bytes
};

/// Scans the records of a store file starting at byte `from_offset`
/// (ResultLog::kHeaderSize for the first record), stopping at the first torn
/// or CRC-failing record. Unlike opening a ResultLog, this never truncates
/// or rewrites the file, so it is safe on a store another process is
/// actively appending to — a mid-append torn tail just ends the scan. The
/// returned end_offset is the warehouse's incremental-compaction watermark.
/// Throws when the file cannot be opened or `from_offset` lies beyond it
/// (e.g. the log was truncated by a torn-tail recovery since the caller's
/// watermark was taken).
ScannedTail scan_records(const std::string& path, std::size_t from_offset);

/// Reads and validates only the 80-byte header of a store file.
CampaignMeta read_store_meta(const std::string& path);

/// Creates the missing parent directories of `path` (no-op when they already
/// exist). Every file writer calls this — a new store log, a warehouse
/// segment, an export — so writing into a fresh directory works instead of
/// failing with a bare errno string. Throws a descriptive error when
/// creation fails.
void create_parent_dirs(const std::string& path);

/// Loads a whole store into memory (for merge / export / status).
struct LoadedStore {
  CampaignMeta meta;
  std::map<std::uint64_t, std::vector<std::uint8_t>> records;  ///< id-sorted
  std::size_t torn_bytes_dropped = 0;
  std::size_t duplicate_records = 0;  ///< same id re-appended (last wins)
};
LoadedStore load_store(const std::string& path);

}  // namespace gpf::store
