// CampaignCheckpoint: the campaign-facing durability API on top of the
// append-only ResultLog. Drivers ask which fault ids are already classified
// (skip-on-resume), record each result as it retires (thread-safe), and poll
// a cooperative stop flag that implements `gpfctl run --limit` (pause after N
// fresh records — the deterministic stand-in for a mid-campaign kill).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "store/result_log.hpp"

namespace gpf::store {

class CampaignCheckpoint {
 public:
  /// Opens (or creates) the store at `path` for campaign `meta`; loads the
  /// already-retired records so drivers can skip them.
  CampaignCheckpoint(const std::string& path, const CampaignMeta& meta);

  const CampaignMeta& meta() const { return log_.meta(); }
  const std::string& path() const { return log_.path(); }

  /// Records present when the store was opened (id -> payload).
  const std::map<std::uint64_t, std::vector<std::uint8_t>>& done() const {
    return done_;
  }
  bool is_done(std::uint64_t id) const { return done_.count(id) != 0; }
  /// Already-retired + newly recorded this run.
  std::size_t done_count() const;

  /// Durably appends one retired result. Thread-safe. Returns false once the
  /// record limit has been reached (the result is still recorded; callers
  /// should stop scheduling new work).
  bool record(std::uint64_t id, std::span<const std::uint8_t> payload);

  /// Pushes everything recorded so far onto stable storage (see
  /// ResultLog::sync). Thread-safe. Campaign drivers call this at
  /// checkpoint boundaries (unit retire, lease retire, campaign end); the
  /// destructor also syncs, so a graceful exit is always durable.
  void sync();

  /// Stop scheduling new work after `n` fresh records this run (0 = no
  /// limit). Used to pause a campaign deterministically.
  void set_record_limit(std::size_t n) { record_limit_ = n; }
  bool should_stop() const;
  /// True when the campaign paused on the record limit (vs running to
  /// completion of its shard slice).
  bool paused() const { return should_stop(); }

  std::size_t torn_bytes_dropped() const { return log_.torn_bytes_dropped(); }

 private:
  ResultLog log_;
  std::map<std::uint64_t, std::vector<std::uint8_t>> done_;
  mutable std::mutex mu_;
  std::size_t fresh_records_ = 0;
  std::size_t record_limit_ = 0;
};

/// A campaign store in a fresh temporary directory, removed with the object:
/// the figure benches, examples and tests run cells through the same store
/// drivers as gpfctl without leaving files behind.
class ScratchStore {
 public:
  explicit ScratchStore(const CampaignMeta& meta);
  ~ScratchStore();
  CampaignCheckpoint& ckpt() { return *ckpt_; }

 private:
  std::string dir_;
  std::unique_ptr<CampaignCheckpoint> ckpt_;
};

}  // namespace gpf::store
