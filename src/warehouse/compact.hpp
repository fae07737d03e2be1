// Compaction: rolling one campaign's store file(s) — a single store or the
// shard set of a fleet run — into one columnar warehouse segment.
//
// The Compactor is incremental and watermark-based: the segment footer
// records, per source store, the log byte offset already consumed, so a
// refresh on a live fleet only scans each log's fresh tail (via
// store::scan_records, which never truncates and is safe against concurrent
// appenders). Records are held id-sorted in memory between refreshes and the
// rollups are always rebuilt from that full map, so an incremental refresh
// produces byte-identical segments to a from-scratch compaction of the same
// logs — the invariant test_warehouse asserts. Any inconsistency (torn or
// missing segment, a log truncated below its watermark by torn-tail
// recovery) silently degrades to a full rebuild; correctness never depends
// on the segment being intact.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "store/result_log.hpp"
#include "warehouse/segment.hpp"

namespace gpf::warehouse {

/// Conventional segment path for a store file: `foo.gpfs` -> `foo.gpfw`
/// (appends ".gpfw" when the store name has no .gpfs suffix).
std::string warehouse_path_for(const std::string& store_path);

/// What one refresh() did.
struct CompactStats {
  std::size_t sources = 0;         ///< source store files scanned
  std::uint64_t rows = 0;          ///< deduped rows now in the segment
  std::uint64_t fresh_records = 0; ///< raw log records consumed this refresh
  bool incremental = false;        ///< resumed from segment watermarks
  bool wrote = false;              ///< segment file (re)written
};

/// Rolls a fixed set of source stores (shards of one campaign) into one
/// segment file. Thread-safe: refresh() and the accessors may be called from
/// different threads (one Compactor can serve a refresher and readers of
/// footer() at once).
class Compactor {
 public:
  /// Validates that every path is a store of the same campaign with a
  /// distinct shard slice. Throws on mismatch; does not scan records yet —
  /// the first refresh() does (seeding from an existing valid segment at
  /// `segment_path` when its sources match).
  Compactor(std::vector<std::string> store_paths, std::string segment_path);

  /// Scans fresh log tails, folds them in, and rewrites the segment (the
  /// write is skipped when nothing changed and the segment is known good).
  CompactStats refresh();

  const std::string& segment_path() const { return segment_path_; }
  const store::CampaignMeta& meta() const { return meta_; }

  /// Snapshot of the current query view (meta + rollups + watermarks).
  /// Valid after the first refresh().
  Footer footer() const;

 private:
  void full_rebuild_locked();

  std::vector<std::string> paths_;
  std::string segment_path_;
  store::CampaignMeta meta_;                ///< merged view (shard 0 of 1)
  std::vector<store::CampaignMeta> metas_;  ///< per source, parallel to paths_

  mutable std::mutex mu_;
  bool seeded_ = false;         ///< first refresh happened
  bool segment_valid_ = false;  ///< on-disk segment matches `records_`
  std::map<std::uint64_t, std::vector<std::uint8_t>> records_;
  std::vector<SourceTally> tallies_;  ///< parallel to paths_
  Rollups rollups_;
};

/// One-shot compaction: build (or incrementally refresh) the segment at
/// `out_path` from `store_paths` and return what happened.
CompactStats compact_stores(const std::vector<std::string>& store_paths,
                            const std::string& out_path);

/// Brings one campaign's segment up to date with its source store(s) before
/// anything reads it: the one refresh path behind `gpfctl run`/`resume`'s
/// and gpfd's exit compaction, gpfd's /v1/query and `gpfctl query`. It is
/// compact_stores — incremental, scanning only fresh log tails. With
/// `only_if_stale`, a segment whose mtime is later than every source's is
/// trusted without being opened (`gpfctl query`'s cheap check for stores at
/// rest; a live store's append can share the segment's mtime tick, so gpfd
/// always refreshes). Returns nullopt when the segment was trusted.
std::optional<CompactStats> refresh_segment(
    const std::vector<std::string>& store_paths,
    const std::string& segment_path, bool only_if_stale = false);

}  // namespace gpf::warehouse
