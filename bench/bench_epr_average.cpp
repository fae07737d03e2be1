// Fig. 13 reproduction: average Error Propagation Rate among the 15
// applications, per error model, grouped by the four error groups.
#include <iostream>

#include "common/env.hpp"
#include "common/table.hpp"
#include "perfi/campaign.hpp"

using namespace gpf;
using errmodel::ErrorModel;

int main() {
  const std::size_t n = scaled(25, 8);
  const std::uint64_t seed = campaign_seed() + 1;
  const auto apps = workloads::evaluation_set();

  Table t("Fig. 13 — average EPR among the 15 applications");
  t.header({"group", "error", "SDC", "DUE", "Masked",
            "addr/op DUE share"});

  double all_epr_sum = 0.0;
  std::size_t cells = 0;
  for (ErrorModel model : perfi::software_models()) {
    perfi::EprCell sum;
    for (const workloads::Workload* w : apps) {
      store::ScratchStore scratch(perfi::epr_campaign_meta(*w, model, n, seed));
      sum.merge(perfi::run_epr_cell_store(*w, scratch.ckpt()));
    }
    const double addr_share =
        sum.due ? static_cast<double>(sum.due_illegal_address +
                                      sum.due_invalid_register +
                                      sum.due_invalid_opcode) /
                      static_cast<double>(sum.due)
                : 0.0;
    t.row({std::string(errmodel::name_of(errmodel::group_of(model))),
           std::string(errmodel::name_of(model)), Table::pct(sum.epr_sdc()),
           Table::pct(sum.epr_due()), Table::pct(sum.epr_masked()),
           sum.due ? Table::pct(addr_share) : "-"});
    all_epr_sum += sum.epr_sdc() + sum.epr_due();
    ++cells;
  }
  t.print(std::cout);
  std::cout << "\nAverage EPR (SDC+DUE) across models: "
            << Table::pct(all_epr_sum / static_cast<double>(cells))
            << " (paper: 84.2% — permanent errors are rarely masked).\n"
            << "Paper shape checks: operation errors (IOC/IRA/IVRA/IIO) are\n"
            << ">~90% DUE, dominated by illegal addresses / invalid\n"
            << "instructions; control-flow and parallel-management errors\n"
            << "(WV/IAT/IAW) produce the most SDCs; IAC leans DUE; IMD is\n"
            << "fully masked for codes that never touch shared memory.\n";
  return 0;
}
