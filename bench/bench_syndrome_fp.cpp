// Figs. 5 + Eq. 1 reproduction: distribution of the fault syndrome (relative
// error) for the floating-point instructions, per injection site and input
// range; power-law fit (Clauset) and Shapiro-Wilk normality rejection.
#include <iostream>

#include "common/env.hpp"
#include "common/table.hpp"
#include "rtl/campaign.hpp"
#include "stats/histogram.hpp"
#include "stats/descriptive.hpp"
#include "stats/powerlaw.hpp"
#include "stats/shapiro.hpp"

using namespace gpf;
using rtl::InputRange;
using rtl::MicroOp;
using rtl::Site;

int main() {
  const std::size_t n = scaled(300, 60);
  const std::uint64_t seed = campaign_seed();
  const MicroOp ops[] = {MicroOp::FADD, MicroOp::FMUL, MicroOp::FFMA};
  const InputRange ranges[] = {InputRange::Small, InputRange::Medium,
                               InputRange::Large};
  const Site sites[] = {Site::FuLane, Site::Pipeline, Site::Scheduler};

  for (Site site : sites) {
    Table t(std::string("Fig. 5 — FP relative-error syndrome, injections in ") +
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

  // Statistical claims: non-Gaussian (Shapiro-Wilk p < 0.05), power-law fit.
  Table fit("Eq. 1 — power-law fit of the FP syndrome + normality test");
  fit.header({"instr", "site", "alpha", "x_min", "KS", "tail n", "SW p-value",
              "non-Gaussian"});
  for (MicroOp op : ops) {
    for (Site site : {Site::FuLane, Site::Pipeline}) {
      rtl::AvfSummary all;
      for (InputRange r : ranges) {
        store::ScratchStore scratch(
            rtl::micro_campaign_meta(op, r, site, n, seed + 1));
        const rtl::AvfSummary s = rtl::run_tmxm_campaign_store(scratch.ckpt());
        all.rel_errors.insert(all.rel_errors.end(), s.rel_errors.begin(),
                              s.rel_errors.end());
      }
      if (all.rel_errors.size() < 30) continue;
      const stats::PowerLawFit pl = stats::fit_power_law(all.rel_errors);
      // Shapiro-Wilk caps at n = 5000.
      std::vector<double> sample = all.rel_errors;
      if (sample.size() > 4000) sample.resize(4000);
      const auto sw = stats::shapiro_wilk(sample);
      fit.row({std::string(rtl::micro_op_name(op)), std::string(rtl::site_name(site)),
               Table::num(pl.alpha, 3), Table::num(pl.x_min, 8),
               Table::num(pl.ks, 3), std::to_string(pl.n_tail),
               sw.valid ? Table::num(sw.p_value, 4) : "n/a",
               sw.valid && sw.p_value < 0.05 ? "yes" : "no"});
    }
  }
  fit.print(std::cout);
  std::cout << "\nPaper: syndromes are narrow, peaked, non-Gaussian, and follow\n"
               "a power law; software injection samples Eq. 1:\n"
               "  relative_error = x_min * (1 - r)^(-1/(alpha-1)).\n";
  return 0;
}
