// Fig. 12 reproduction: Error Propagation Rate (SDC / DUE / Masked) of each
// error model propagated through the 15 applications with the NVBitPERfi-
// equivalent injector.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/table.hpp"
#include "perfi/campaign.hpp"

using namespace gpf;
using errmodel::ErrorModel;
using Clock = std::chrono::steady_clock;

namespace {

struct JsonRow {
  std::string app, model;
  std::size_t injections = 0;
  double wall_seconds = 0.0;
  double epr_sdc = 0.0, epr_due = 0.0, epr_masked = 0.0;
};

// Machine-readable EPR + throughput record so injection-rate and outcome
// drift is tracked across PRs instead of living only in stdout. Written
// next to the binary (or into GPF_BENCH_JSON_DIR).
void write_bench_json(const std::vector<JsonRow>& rows) {
  const char* dir = std::getenv("GPF_BENCH_JSON_DIR");
  const std::string path =
      std::string(dir && *dir ? dir : ".") + "/BENCH_epr_apps.json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  os << "{\n  \"bench\": \"epr_apps\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    char buf[64];
    os << "    {\"app\": \"" << rows[i].app << "\", \"model\": \""
       << rows[i].model << "\", \"injections\": " << rows[i].injections;
    std::snprintf(buf, sizeof(buf), "%.6f", rows[i].wall_seconds);
    os << ", \"wall_seconds\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.4f", rows[i].epr_sdc);
    os << ", \"epr_sdc\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.4f", rows[i].epr_due);
    os << ", \"epr_due\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.4f", rows[i].epr_masked);
    os << ", \"epr_masked\": " << buf << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace

int main() {
  const std::size_t n = scaled(40, 10);  // injections per (app, model)
  const std::uint64_t seed = campaign_seed();
  const auto apps = workloads::evaluation_set();
  const auto models = perfi::software_models();
  std::vector<JsonRow> json_rows;

  for (ErrorModel model : models) {
    Table t(std::string("Fig. 12 — EPR of ") +
            std::string(errmodel::name_of(model)) + " (" +
            std::string(errmodel::name_of(errmodel::group_of(model))) +
            " error) per application");
    t.header({"app", "SDC", "DUE", "Masked", "dominant DUE cause"});
    for (const workloads::Workload* w : apps) {
      const auto t0 = Clock::now();
      store::ScratchStore scratch(perfi::epr_campaign_meta(*w, model, n, seed));
      const perfi::EprCell c = perfi::run_epr_cell_store(*w, scratch.ckpt());
      const double secs =
          std::chrono::duration<double>(Clock::now() - t0).count();
      std::string cause = "-";
      if (c.due) {
        std::size_t best = c.due_illegal_address;
        cause = "illegal address";
        if (c.due_invalid_register > best) {
          best = c.due_invalid_register;
          cause = "invalid register";
        }
        if (c.due_invalid_opcode > best) {
          best = c.due_invalid_opcode;
          cause = "invalid opcode";
        }
        if (c.due_hang > best) cause = "hang";
      }
      t.row({std::string(w->name()), Table::pct(c.epr_sdc()),
             Table::pct(c.epr_due()), Table::pct(c.epr_masked()), cause});
      json_rows.push_back({std::string(w->name()),
                           std::string(errmodel::name_of(model)), n, secs,
                           c.epr_sdc(), c.epr_due(), c.epr_masked()});
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "(IPP is representable by the other models and IVOC always\n"
               " DUEs, so both are omitted — as in the paper. Injections per\n"
               " cell: " << n << "; scale with GPF_SCALE.)\n";
  write_bench_json(json_rows);
  return 0;
}
