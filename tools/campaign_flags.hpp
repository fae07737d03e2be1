// Flag parsing and campaign construction shared by the gpfctl and gpfd
// command-line tools: --key value parsing, the campaign-flag -> CampaignMeta
// builders, the canonical store-file naming scheme, and end-of-campaign
// warehouse compaction.
#pragma once

#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "errmodel/models.hpp"
#include "gate/trace.hpp"
#include "perfi/campaign.hpp"
#include "report/gate_experiments.hpp"
#include "rtl/campaign.hpp"
#include "store/result_log.hpp"
#include "warehouse/compact.hpp"
#include "workloads/workload.hpp"

namespace gpfcli {

/// A malformed invocation: callers print their usage text with this message.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Flag parser: --key value pairs plus positional arguments. Flags listed in
/// `boolean` take no value (present = "1").
struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  static Args parse(int argc, char** argv, int from,
                    const std::set<std::string>& boolean = {}) {
    Args a;
    for (int i = from; i < argc; ++i) {
      const std::string s = argv[i];
      if (s.rfind("--", 0) == 0) {
        const std::string key = s.substr(2);
        if (boolean.count(key)) {
          a.flags[key] = "1";
          continue;
        }
        if (i + 1 >= argc) throw UsageError("missing value for " + s);
        a.flags[key] = argv[++i];
      } else if (s == "-o") {
        if (i + 1 >= argc) throw UsageError("missing value for -o");
        a.flags["out"] = argv[++i];
      } else {
        a.positional.push_back(s);
      }
    }
    return a;
  }
  std::string get(const std::string& key, const std::string& def = "") const {
    const auto it = flags.find(key);
    return it == flags.end() ? def : it->second;
  }
  /// The flag's value as an unsigned integer (GPF_* knob grammar, see
  /// gpf::parse_u64), or `def` when absent. Throws UsageError naming the
  /// flag on anything else ("5x", "-1", "abc", "").
  std::uint64_t get_u64(const std::string& key, std::uint64_t def) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return def;
    unsigned long long v = 0;
    if (!gpf::parse_u64(it->second.c_str(), v))
      throw UsageError("--" + key + " needs an unsigned integer, got '" +
                       it->second + "'");
    return v;
  }
  bool has(const std::string& key) const { return flags.count(key) != 0; }
};

inline gpf::EngineKind parse_engine(const std::string& s) {
  if (s == "brute") return gpf::EngineKind::Brute;
  if (s == "batch") return gpf::EngineKind::Batch;
  throw UsageError("unknown engine: " + s + " (brute|batch)");
}

inline gpf::gate::UnitKind parse_unit(const std::string& s) {
  if (s == "decoder") return gpf::gate::UnitKind::Decoder;
  if (s == "fetch") return gpf::gate::UnitKind::Fetch;
  if (s == "wsc") return gpf::gate::UnitKind::WSC;
  throw UsageError("unknown unit: " + s + " (decoder|fetch|wsc|all)");
}

inline gpf::workloads::TileType parse_tile(const std::string& s) {
  if (s == "max") return gpf::workloads::TileType::Max;
  if (s == "zero") return gpf::workloads::TileType::Zero;
  if (s == "random") return gpf::workloads::TileType::Random;
  throw UsageError("unknown tile: " + s + " (max|zero|random)");
}

inline gpf::rtl::Site parse_site(const std::string& s) {
  if (s == "fu") return gpf::rtl::Site::FuLane;
  if (s == "sfu") return gpf::rtl::Site::Sfu;
  if (s == "pipeline") return gpf::rtl::Site::Pipeline;
  if (s == "scheduler") return gpf::rtl::Site::Scheduler;
  throw UsageError("unknown site: " + s + " (fu|sfu|pipeline|scheduler)");
}

inline gpf::rtl::MicroOp parse_micro_op(const std::string& s) {
  for (unsigned o = 0; o < static_cast<unsigned>(gpf::rtl::MicroOp::COUNT); ++o)
    if (s == gpf::rtl::micro_op_name(static_cast<gpf::rtl::MicroOp>(o)))
      return static_cast<gpf::rtl::MicroOp>(o);
  throw UsageError("unknown micro-benchmark op: " + s +
                   " (FADD|FMUL|FFMA|IADD|IMUL|IMAD|FSIN|FEXP|GLD|GST|BRA|ISET)");
}

inline gpf::rtl::InputRange parse_range(const std::string& s) {
  if (s == "small") return gpf::rtl::InputRange::Small;
  if (s == "medium") return gpf::rtl::InputRange::Medium;
  if (s == "large") return gpf::rtl::InputRange::Large;
  throw UsageError("unknown range: " + s + " (small|medium|large)");
}

inline gpf::errmodel::ErrorModel parse_model(const std::string& s) {
  for (unsigned m = 0; m < gpf::errmodel::kNumErrorModels; ++m)
    if (s == gpf::errmodel::name_of(static_cast<gpf::errmodel::ErrorModel>(m)))
      return static_cast<gpf::errmodel::ErrorModel>(m);
  throw UsageError("unknown error model: " + s);
}

inline const char* unit_slug(gpf::gate::UnitKind u) {
  switch (u) {
    case gpf::gate::UnitKind::Decoder: return "decoder";
    case gpf::gate::UnitKind::Fetch: return "fetch";
    case gpf::gate::UnitKind::WSC: return "wsc";
  }
  return "unit";
}

inline std::string shard_suffix(const gpf::store::CampaignMeta& m) {
  if (m.shard_count == 1) return "";
  return "-s" + std::to_string(m.shard_index) + "of" +
         std::to_string(m.shard_count);
}

/// Canonical campaign name for a meta: the store filename stem, which is
/// also the registry name a multi-campaign coordinator serves it under
/// (gpfd derives it back from the path, so submit/resume/export all agree).
inline std::string campaign_name_for(const gpf::store::CampaignMeta& m) {
  using gpf::store::CampaignKind;
  std::string name;
  switch (m.kind) {
    case CampaignKind::Gate:
      name = std::string("gate-") +
             unit_slug(static_cast<gpf::gate::UnitKind>(m.target));
      break;
    case CampaignKind::Rtl:
      if (const auto cell = gpf::rtl::micro_cell_of(m))
        name = "rtl-micro-" + std::string(gpf::rtl::micro_op_name(cell->op)) +
               "-" + std::string(gpf::rtl::range_name(cell->range));
      else
        name = "rtl-tmxm-" + std::to_string(static_cast<unsigned>(m.target));
      name += "-site" + std::to_string(static_cast<unsigned>(m.param0));
      break;
    case CampaignKind::Perfi:
      name = "perfi-" + m.app + "-" +
             std::string(gpf::errmodel::name_of(
                 static_cast<gpf::errmodel::ErrorModel>(m.model)));
      break;
  }
  return name + shard_suffix(m);
}

inline std::string store_path_for(const gpf::store::CampaignMeta& m,
                                  const std::string& dir) {
  return dir + "/" + campaign_name_for(m) + ".gpfs";
}

/// Builds the campaign metas described by `run`-style flags (--campaign,
/// --unit/--tile/--micro/--range/--site/--app/--model, --faults/--injections,
/// --seed, --shard-index/count). A gate campaign with --unit all yields three
/// metas. Throws UsageError on a malformed combination.
inline std::vector<gpf::store::CampaignMeta> metas_from_flags(const Args& a) {
  namespace gpf_ = gpf;
  const std::string campaign = a.get("campaign");
  const std::uint64_t seed = a.get_u64("seed", gpf_::campaign_seed());
  const auto shard_index =
      static_cast<std::uint32_t>(a.get_u64("shard-index", 0));
  const auto shard_count =
      static_cast<std::uint32_t>(a.get_u64("shard-count", 1));
  if (shard_count == 0 || shard_index >= shard_count)
    throw UsageError("invalid shard slice");

  std::vector<gpf_::store::CampaignMeta> metas;
  if (campaign == "gate") {
    const std::size_t faults = a.get_u64("faults", 0);
    const std::size_t max_issues =
        a.get_u64("max-issues", gpf_::scaled(400, 100));
    const gpf_::EngineKind engine =
        parse_engine(a.get("engine", engine_name(gpf_::campaign_engine())));
    const std::string unit_arg = a.get("unit", "all");
    std::vector<gpf_::gate::UnitKind> units;
    if (unit_arg == "all")
      units = {gpf_::gate::UnitKind::Decoder, gpf_::gate::UnitKind::Fetch,
               gpf_::gate::UnitKind::WSC};
    else
      units = {parse_unit(unit_arg)};
    for (const auto u : units)
      metas.push_back(gpf_::report::gate_campaign_meta(
          u, faults, max_issues, seed, engine, shard_index, shard_count));
  } else if (campaign == "rtl") {
    if (!a.has("injections")) throw UsageError("rtl: --injections required");
    if (a.has("tile") == a.has("micro") || a.has("range") != a.has("micro"))
      throw UsageError("rtl: give either --tile max|zero|random or "
                       "--micro OP --range small|medium|large");
    const gpf_::rtl::Site site = parse_site(a.get("site", "fu"));
    const std::uint64_t n = a.get_u64("injections", 0);
    metas.push_back(
        a.has("tile")
            ? gpf_::rtl::tmxm_campaign_meta(parse_tile(a.get("tile")), site, n,
                                            seed, shard_index, shard_count)
            : gpf_::rtl::micro_campaign_meta(
                  parse_micro_op(a.get("micro")), parse_range(a.get("range")),
                  site, n, seed, shard_index, shard_count));
  } else if (campaign == "perfi") {
    if (!a.has("app") || !a.has("model") || !a.has("injections"))
      throw UsageError("perfi: --app, --model, --injections required");
    const gpf_::workloads::Workload* w = gpf_::workloads::find(a.get("app"));
    if (!w) throw UsageError("unknown workload: " + a.get("app"));
    metas.push_back(gpf_::perfi::epr_campaign_meta(
        *w, parse_model(a.get("model")), a.get_u64("injections", 0), seed,
        shard_index, shard_count));
  } else {
    throw UsageError("--campaign must be gate|rtl|perfi");
  }
  return metas;
}

/// Applies --jobs N (process-wide GPF_THREADS override) when present.
inline void apply_jobs_flag(const Args& a) {
  if (a.has("jobs"))
    gpf::set_campaign_threads_override(
        static_cast<std::size_t>(a.get_u64("jobs", 0)));
}

/// End-of-campaign warehouse compaction for `gpfctl run`/`resume` and gpfd's
/// exit: brings the .gpfw segment beside the store up to date
/// (warehouse::refresh_segment) so queries answer without a log scan.
/// Gated by GPF_WAREHOUSE; a failure warns instead of failing the campaign
/// (the log is the source of truth, the segment is derived). `tool` tags
/// the log lines ("gpfctl", "gpfd").
inline void compact_campaign_store(const std::string& store_path,
                                   const char* tool) {
  if (!gpf::warehouse_enabled()) return;
  try {
    const std::string seg = gpf::warehouse::warehouse_path_for(store_path);
    const auto st = gpf::warehouse::refresh_segment({store_path}, seg);
    std::cout << "[" << tool << "] warehouse: " << st->rows << " rows -> "
              << seg << (st->incremental ? " (incremental)" : "") << "\n";
  } catch (const std::exception& e) {
    std::cerr << "[" << tool << "] warehouse compaction failed: " << e.what()
              << "\n";
  }
}

}  // namespace gpfcli
