// Fig. 4 reproduction: AVF of RTL injections in the functional units
// (FP32/INT/SFU), the scheduler, and the pipeline registers, per instruction.
// SDCs are split into single- and multi-thread; results average the paper's
// S/M/L input ranges (4 random value draws each).
#include <iostream>

#include "common/env.hpp"
#include "common/table.hpp"
#include "rtl/campaign.hpp"

using namespace gpf;
using rtl::InputRange;
using rtl::MicroOp;
using rtl::Site;

int main() {
  const std::size_t n = scaled(120, 24);  // per (instr, range, site) cell
  const std::uint64_t seed = campaign_seed();

  const MicroOp ops[] = {MicroOp::FADD, MicroOp::FMUL, MicroOp::FFMA,
                         MicroOp::IADD, MicroOp::IMUL, MicroOp::IMAD,
                         MicroOp::FSIN, MicroOp::FEXP, MicroOp::GLD,
                         MicroOp::GST,  MicroOp::BRA,  MicroOp::ISET};
  const InputRange ranges[] = {InputRange::Small, InputRange::Medium,
                               InputRange::Large};

  for (Site site : {Site::FuLane, Site::Scheduler, Site::Pipeline}) {
    Table t(std::string("Fig. 4 — AVF per instruction, injections in ") +
            std::string(rtl::site_name(site)));
    t.header({"instr", "SDC single", "SDC multiple", "DUE", "masked",
              "corrupted thr/warp"});
    for (MicroOp op : ops) {
      // The paper skips FU injections for GLD/GST/BRA/ISET (FUs idle).
      if (site == Site::FuLane && !rtl::micro_op_uses_fu(op)) continue;
      const Site effective =
          site == Site::FuLane && (op == MicroOp::FSIN || op == MicroOp::FEXP)
              ? Site::Sfu
              : site;
      std::vector<rtl::InjectionResult> d;
      for (InputRange r : ranges) {
        store::ScratchStore scratch(
            rtl::micro_campaign_meta(op, r, effective, n, seed));
        rtl::run_tmxm_campaign_store(scratch.ckpt(), &d);
      }
      rtl::AvfSummary avg;
      for (const rtl::InjectionResult& r : d) avg.add(r);
      t.row({std::string(rtl::micro_op_name(op)), Table::pct(avg.avf_sdc_single()),
             Table::pct(avg.avf_sdc_multi()), Table::pct(avg.avf_due()),
             Table::pct(static_cast<double>(avg.masked) /
                        static_cast<double>(avg.injections)),
             Table::num(avg.avg_corrupted_per_warp(), 1)});
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "(injections per cell: " << n * 3
            << " across S/M/L; scale with GPF_SCALE)\n";
  return 0;
}
