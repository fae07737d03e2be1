#include "store/export.hpp"

#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "common/env.hpp"
#include "store/records.hpp"

namespace gpf::store {

namespace {

std::string fmt(const char* f, ...) {
  char buf[64];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

std::string dbl(double v) { return fmt("%.17g", v); }

const char* gate_target_name(std::uint8_t t) {
  switch (t) {
    case 0: return "decoder";
    case 1: return "fetch";
    case 2: return "wsc";
  }
  return "?";
}

const char* rtl_target_name(std::uint8_t t) {
  switch (t) {
    case 0: return "max";
    case 1: return "zero";
    case 2: return "random";
  }
  return "?";
}

/// Micro-benchmark cell label "OP/range" of an rtl param1 (see CampaignMeta).
std::string rtl_micro_name(std::uint64_t p) {
  static const char* const ops[] = {"FADD", "FMUL", "FFMA", "IADD", "IMUL", "IMAD",
                                    "FSIN", "FEXP", "GLD", "GST", "BRA", "ISET"};
  const std::uint64_t op = (p & 0xFF) - 1, range = p >> 8;
  return std::string(op < std::size(ops) ? ops[op] : "?") + "/" +
         (range < 3 ? "SML"[range] : '?');
}

const char* rtl_site_name(std::uint64_t s) {
  switch (s) {
    case 0: return "fu";
    case 1: return "sfu";
    case 2: return "pipeline";
    case 3: return "scheduler";
  }
  return "?";
}

void json_meta(const LoadedStore& s, std::ostream& os) {
  const CampaignMeta& m = s.meta;
  os << "  \"campaign\": {\"kind\": \"" << campaign_kind_name(m.kind)
     << "\", \"target\": \"" << target_label(m) << "\", \"seed\": " << m.seed
     << ", \"total\": " << m.total << ", \"shard_index\": " << m.shard_index
     << ", \"shard_count\": " << m.shard_count;
  if (m.kind == CampaignKind::Gate) {
    os << ", \"requested_faults\": " << m.param0
       << ", \"max_issues\": " << m.param1;
    if (m.engine != 0xFF)
      os << ", \"engine\": \"" << engine_name(static_cast<EngineKind>(m.engine))
         << "\"";
  }
  os << "},\n";
  os << "  \"progress\": {\"done\": " << s.records.size()
     << ", \"total\": " << m.total << "},\n";
}

// --- gate ------------------------------------------------------------------

struct GateSummary {
  std::size_t by_class[4]{};  // uncontrollable, hw-masked, hw-hang, sw-error
  std::size_t faults_with_model[errmodel::kNumErrorModels]{};
  std::uint64_t occurrences[errmodel::kNumErrorModels]{};

  void add(const GateRecord& r) {
    if (r.any_error())
      ++by_class[3];
    else if (r.hang)
      ++by_class[2];
    else if (r.activated)
      ++by_class[1];
    else
      ++by_class[0];
    for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m)
      if (r.error_counts[m]) {
        ++faults_with_model[m];
        occurrences[m] += r.error_counts[m];
      }
  }
};

void export_gate(const LoadedStore& s, ExportFormat format, std::ostream& os) {
  GateSummary sum;
  for (const auto& [id, payload] : s.records) sum.add(decode_gate(payload));

  if (format == ExportFormat::Csv) {
    os << "id,net,stuck,activated,hang,class";
    for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m)
      os << "," << errmodel::name_of(static_cast<errmodel::ErrorModel>(m));
    os << "\n";
    for (const auto& [id, payload] : s.records) {
      const GateRecord r = decode_gate(payload);
      os << id << "," << r.net << "," << (r.stuck_high ? 1 : 0) << ","
         << (r.activated ? 1 : 0) << "," << (r.hang ? 1 : 0) << ","
         << r.class_name();
      for (const std::uint32_t c : r.error_counts) os << "," << c;
      os << "\n";
    }
    return;
  }

  os << "{\n  \"format\": \"gpfstore-export-v1\",\n";
  json_meta(s, os);
  os << "  \"summary\": {\"uncontrollable\": " << sum.by_class[0]
     << ", \"hw_masked\": " << sum.by_class[1]
     << ", \"hw_hang\": " << sum.by_class[2]
     << ", \"sw_error\": " << sum.by_class[3] << ",\n    \"models\": {";
  for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m) {
    if (m) os << ", ";
    os << "\"" << errmodel::name_of(static_cast<errmodel::ErrorModel>(m))
       << "\": {\"faults\": " << sum.faults_with_model[m]
       << ", \"occurrences\": " << sum.occurrences[m] << "}";
  }
  os << "}},\n  \"records\": [\n";
  bool first = true;
  for (const auto& [id, payload] : s.records) {
    const GateRecord r = decode_gate(payload);
    os << (first ? "" : ",\n") << "    {\"id\": " << id << ", \"net\": " << r.net
       << ", \"stuck\": " << (r.stuck_high ? 1 : 0)
       << ", \"activated\": " << (r.activated ? "true" : "false")
       << ", \"hang\": " << (r.hang ? "true" : "false") << ", \"class\": \""
       << r.class_name() << "\", \"counts\": [";
    for (unsigned m = 0; m < errmodel::kNumErrorModels; ++m)
      os << (m ? "," : "") << r.error_counts[m];
    os << "]}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

// --- rtl -------------------------------------------------------------------

struct RtlSummary {
  std::size_t n = 0, masked = 0, sdc_single = 0, sdc_multi = 0, due = 0;
  std::uint64_t corrupted_total = 0;
  double per_warp_sum = 0.0;

  void add(const RtlRecord& r) {
    ++n;
    switch (r.outcome) {
      case RtlOutcome::Masked: ++masked; break;
      case RtlOutcome::SdcSingle: ++sdc_single; break;
      case RtlOutcome::SdcMultiple: ++sdc_multi; break;
      case RtlOutcome::Due: ++due; break;
    }
    corrupted_total += r.corrupted;
    per_warp_sum += r.per_warp_corrupted;
  }
  double ratio(std::size_t k) const {
    return n ? static_cast<double>(k) / static_cast<double>(n) : 0.0;
  }
};

void export_rtl(const LoadedStore& s, ExportFormat format, std::ostream& os) {
  RtlSummary sum;
  for (const auto& [id, payload] : s.records) sum.add(decode_rtl(payload));

  if (format == ExportFormat::Csv) {
    os << "id,outcome,corrupted,per_warp_corrupted,rel_error_count\n";
    for (const auto& [id, payload] : s.records) {
      const RtlRecord r = decode_rtl(payload);
      os << id << "," << rtl_outcome_name(r.outcome) << "," << r.corrupted << ","
         << dbl(r.per_warp_corrupted) << "," << r.rel_errors.size() << "\n";
    }
    return;
  }

  os << "{\n  \"format\": \"gpfstore-export-v1\",\n";
  json_meta(s, os);
  const std::size_t sdc = sum.sdc_single + sum.sdc_multi;
  os << "  \"summary\": {\"injections\": " << sum.n << ", \"masked\": " << sum.masked
     << ", \"sdc_single\": " << sum.sdc_single
     << ", \"sdc_multiple\": " << sum.sdc_multi << ", \"due\": " << sum.due
     << ", \"avf_sdc\": " << dbl(sum.ratio(sdc))
     << ", \"avf_due\": " << dbl(sum.ratio(sum.due))
     << ", \"corrupted_total\": " << sum.corrupted_total << "},\n";
  os << "  \"records\": [\n";
  bool first = true;
  for (const auto& [id, payload] : s.records) {
    const RtlRecord r = decode_rtl(payload);
    os << (first ? "" : ",\n") << "    {\"id\": " << id << ", \"outcome\": \""
       << rtl_outcome_name(r.outcome) << "\", \"corrupted\": " << r.corrupted
       << ", \"per_warp\": " << dbl(r.per_warp_corrupted) << ", \"rel_errors\": [";
    for (std::size_t i = 0; i < r.rel_errors.size(); ++i)
      os << (i ? "," : "") << dbl(r.rel_errors[i]);
    os << "], \"corrupted_idx\": [";
    for (std::size_t i = 0; i < r.corrupted_idx.size(); ++i)
      os << (i ? "," : "") << r.corrupted_idx[i];
    os << "]}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

// --- perfi -----------------------------------------------------------------

struct PerfiSummary {
  std::size_t n = 0;
  std::size_t by_outcome[7]{};

  void add(const PerfiRecord& r) {
    ++n;
    ++by_outcome[static_cast<unsigned>(r.outcome)];
  }
  std::size_t due() const {
    return by_outcome[2] + by_outcome[3] + by_outcome[4] + by_outcome[5] +
           by_outcome[6];
  }
  double ratio(std::size_t k) const {
    return n ? static_cast<double>(k) / static_cast<double>(n) : 0.0;
  }
};

void export_perfi(const LoadedStore& s, ExportFormat format, std::ostream& os) {
  PerfiSummary sum;
  for (const auto& [id, payload] : s.records) sum.add(decode_perfi(payload));

  if (format == ExportFormat::Csv) {
    os << "id,outcome\n";
    for (const auto& [id, payload] : s.records)
      os << id << "," << perfi_outcome_name(decode_perfi(payload).outcome)
         << "\n";
    return;
  }

  os << "{\n  \"format\": \"gpfstore-export-v1\",\n";
  json_meta(s, os);
  os << "  \"summary\": {\"injections\": " << sum.n
     << ", \"masked\": " << sum.by_outcome[0] << ", \"sdc\": " << sum.by_outcome[1]
     << ", \"due\": " << sum.due()
     << ", \"due_illegal_address\": " << sum.by_outcome[2]
     << ", \"due_invalid_register\": " << sum.by_outcome[3]
     << ", \"due_invalid_opcode\": " << sum.by_outcome[4]
     << ", \"due_hang\": " << sum.by_outcome[5]
     << ", \"due_other\": " << sum.by_outcome[6]
     << ", \"epr_sdc\": " << dbl(sum.ratio(sum.by_outcome[1]))
     << ", \"epr_due\": " << dbl(sum.ratio(sum.due())) << "},\n";
  os << "  \"records\": [\n";
  bool first = true;
  for (const auto& [id, payload] : s.records) {
    os << (first ? "" : ",\n") << "    {\"id\": " << id << ", \"outcome\": \""
       << perfi_outcome_name(decode_perfi(payload).outcome) << "\"}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

}  // namespace

std::string target_label(const CampaignMeta& m) {
  switch (m.kind) {
    case CampaignKind::Gate: return gate_target_name(m.target);
    case CampaignKind::Rtl:
      return (m.param1 ? rtl_micro_name(m.param1) : rtl_target_name(m.target)) +
             "/" + rtl_site_name(m.param0);
    case CampaignKind::Perfi:
      return m.app + "/" +
             std::string(errmodel::name_of(
                 static_cast<errmodel::ErrorModel>(m.model)));
  }
  return "?";
}

void export_store(const LoadedStore& s, ExportFormat format, std::ostream& os) {
  switch (s.meta.kind) {
    case CampaignKind::Gate: export_gate(s, format, os); return;
    case CampaignKind::Rtl: export_rtl(s, format, os); return;
    case CampaignKind::Perfi: export_perfi(s, format, os); return;
  }
  throw std::runtime_error("export: unknown campaign kind");
}

void print_status(const LoadedStore& s, std::ostream& os) {
  const CampaignMeta& m = s.meta;
  os << "campaign: " << campaign_kind_name(m.kind) << " " << target_label(m)
     << "\n";
  os << "seed:     " << m.seed << "\n";
  os << "shard:    " << m.shard_index << " of " << m.shard_count << "\n";
  const std::uint64_t owned = m.owned_count();
  os << "progress: " << s.records.size() << " / " << owned
     << " owned ids retired (id space " << m.total << ")\n";
  if (s.torn_bytes_dropped)
    os << "recovery: dropped " << s.torn_bytes_dropped
       << " torn tail bytes on open\n";
  if (s.duplicate_records)
    os << "recovery: " << s.duplicate_records << " re-recorded ids (last wins)\n";

  switch (m.kind) {
    case CampaignKind::Gate: {
      GateSummary sum;
      for (const auto& [id, payload] : s.records) sum.add(decode_gate(payload));
      os << "classes:  uncontrollable=" << sum.by_class[0]
         << " hw-masked=" << sum.by_class[1] << " hw-hang=" << sum.by_class[2]
         << " sw-error=" << sum.by_class[3] << "\n";
      break;
    }
    case CampaignKind::Rtl: {
      RtlSummary sum;
      for (const auto& [id, payload] : s.records) sum.add(decode_rtl(payload));
      os << "outcomes: masked=" << sum.masked << " sdc-single=" << sum.sdc_single
         << " sdc-multiple=" << sum.sdc_multi << " due=" << sum.due << "\n";
      break;
    }
    case CampaignKind::Perfi: {
      PerfiSummary sum;
      for (const auto& [id, payload] : s.records) sum.add(decode_perfi(payload));
      os << "outcomes: masked=" << sum.by_outcome[0]
         << " sdc=" << sum.by_outcome[1] << " due=" << sum.due() << "\n";
      break;
    }
  }
}

void print_aggregate_status(
    const std::vector<std::pair<std::string, LoadedStore>>& stores,
    std::ostream& os) {
  // Group store indices into campaigns (same_campaign = everything but the
  // shard slice matches).
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < stores.size(); ++i) {
    bool placed = false;
    for (auto& g : groups) {
      if (stores[g.front()].second.meta.same_campaign(stores[i].second.meta)) {
        g.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({i});
  }

  os << "== aggregate: " << stores.size() << " store(s), " << groups.size()
     << " campaign(s)\n";
  for (const auto& g : groups) {
    const CampaignMeta& m0 = stores[g.front()].second.meta;
    os << "campaign " << campaign_kind_name(m0.kind) << " " << target_label(m0)
       << " seed=" << m0.seed << " (id space " << m0.total << ")\n";
    std::uint64_t retired = 0;
    std::uint64_t owned_present = 0;
    for (const std::size_t i : g) {
      const CampaignMeta& m = stores[i].second.meta;
      const std::uint64_t owned = m.owned_count();
      const std::uint64_t done = stores[i].second.records.size();
      retired += done;
      owned_present += owned;
      os << "  shard " << m.shard_index << "/" << m.shard_count << " "
         << stores[i].first << ": " << done << "/" << owned
         << (done == owned ? " (complete)" : "") << "\n";
    }
    const std::uint64_t missing = m0.total - owned_present;
    if (missing)
      os << "  (" << missing << " ids belong to shards not present here)\n";
    os << "  total: " << retired << "/" << m0.total << " retired, "
       << (m0.total - retired) << " remaining ("
       << fmt("%.1f%%",
              m0.total ? 100.0 * static_cast<double>(retired) /
                             static_cast<double>(m0.total)
                       : 100.0)
       << ")\n";
  }
}

}  // namespace gpf::store
