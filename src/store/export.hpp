// Deterministic JSON/CSV exporters for campaign stores. Output is sorted by
// fault id and carries no timestamps or absolute paths, so two stores with
// identical results export byte-identically — the property the kill/resume
// and shard/merge acceptance tests assert.
#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "store/result_log.hpp"

namespace gpf::store {

enum class ExportFormat : std::uint8_t { Json, Csv };

void export_store(const LoadedStore& s, ExportFormat format, std::ostream& os);

/// Human-readable target of a campaign ("decoder", "max/fu", "FADD/M/fu",
/// "mxm/IOC", ...) — the same label export/status print, shared with the
/// warehouse query layer.
std::string target_label(const CampaignMeta& m);

/// Human-readable one-store status block (meta, progress, summary counts).
void print_status(const LoadedStore& s, std::ostream& os);

/// Fleet/shard overview for `gpfctl status` over a whole store directory:
/// stores are grouped into campaigns by same_campaign(), each group lists
/// per-shard progress (retired / owned ids), and campaign totals report
/// retired vs remaining across all present shards. Stores whose shard is
/// missing from the directory count as 0 retired in the campaign total.
void print_aggregate_status(
    const std::vector<std::pair<std::string, LoadedStore>>& stores,
    std::ostream& os);

}  // namespace gpf::store
