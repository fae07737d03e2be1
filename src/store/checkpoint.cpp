#include "store/checkpoint.hpp"

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>

namespace gpf::store {

CampaignCheckpoint::CampaignCheckpoint(const std::string& path,
                                       const CampaignMeta& meta)
    : log_(path, meta) {
  for (const Record& r : log_.recovered()) done_[r.id] = r.payload;
}

std::size_t CampaignCheckpoint::done_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_.size() + fresh_records_;
}

bool CampaignCheckpoint::record(std::uint64_t id,
                                std::span<const std::uint8_t> payload) {
  std::lock_guard<std::mutex> lock(mu_);
  log_.append(id, payload);
  ++fresh_records_;
  return record_limit_ == 0 || fresh_records_ < record_limit_;
}

void CampaignCheckpoint::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  log_.sync();
}

bool CampaignCheckpoint::should_stop() const {
  std::lock_guard<std::mutex> lock(mu_);
  return record_limit_ != 0 && fresh_records_ >= record_limit_;
}

ScratchStore::ScratchStore(const CampaignMeta& meta)
    : dir_((std::filesystem::temp_directory_path() / "gpf-scratch-XXXXXX")
               .string()) {
  if (!::mkdtemp(dir_.data()))
    throw std::runtime_error("store: cannot create a directory like " + dir_);
  ckpt_ = std::make_unique<CampaignCheckpoint>(dir_ + "/campaign.gpfs", meta);
}

ScratchStore::~ScratchStore() {
  ckpt_.reset();  // close the log before its directory goes
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

}  // namespace gpf::store
