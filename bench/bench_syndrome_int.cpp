// Fig. 6 reproduction: relative-error syndrome distribution for the integer
// instructions (IADD, IMUL, IMAD) per injection site and input range.
#include <cmath>
#include <iostream>

#include "common/env.hpp"
#include "common/table.hpp"
#include "rtl/campaign.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"

using namespace gpf;
using rtl::InputRange;
using rtl::MicroOp;
using rtl::Site;

int main() {
  const std::size_t n = scaled(300, 60);
  const std::uint64_t seed = campaign_seed();
  const MicroOp ops[] = {MicroOp::IADD, MicroOp::IMUL, MicroOp::IMAD};
  const InputRange ranges[] = {InputRange::Small, InputRange::Medium,
                               InputRange::Large};

  for (Site site : {Site::FuLane, Site::Pipeline, Site::Scheduler}) {
    Table t(std::string("Fig. 6 — INT relative-error syndrome, injections in ") +
            std::string(rtl::site_name(site)));
    std::vector<std::string> hdr{"instr/range"};
    stats::DecadeHistogram proto;
    for (std::size_t b = 0; b < proto.bin_count(); ++b) hdr.push_back(proto.label(b));
    hdr.push_back("median");
    t.header(hdr);

    for (MicroOp op : ops) {
      for (InputRange r : ranges) {
        store::ScratchStore scratch(rtl::micro_campaign_meta(op, r, site, n, seed));
        const rtl::AvfSummary s = rtl::run_tmxm_campaign_store(scratch.ckpt());
        stats::DecadeHistogram h;
        h.add_all(s.rel_errors);
        std::vector<std::string> row{std::string(rtl::micro_op_name(op)) + "/" +
                                     std::string(rtl::range_name(r))};
        for (std::size_t b = 0; b < h.bin_count(); ++b)
          row.push_back(Table::pct(h.fraction(b), 1));
        row.push_back(Table::num(stats::median(s.rel_errors), 6));
        t.row(row);
      }
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "(injections per cell: " << n << "; scale with GPF_SCALE)\n";
  return 0;
}
