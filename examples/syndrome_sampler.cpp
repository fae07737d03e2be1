// Fault-syndrome modelling (Eq. 1): measure the relative-error distribution
// of real FU faults, fit the Clauset power law, reject normality with
// Shapiro-Wilk, and show that Eq. 1 samples reproduce the measured
// distribution — the statistical machinery behind software syndrome
// injection.
//
//   $ ./examples/syndrome_sampler
#include <iostream>

#include "common/table.hpp"
#include "rtl/campaign.hpp"
#include "stats/histogram.hpp"
#include "stats/powerlaw.hpp"
#include "stats/shapiro.hpp"

using namespace gpf;

int main() {
  // Measure FMUL FU syndromes over the three input ranges.
  std::vector<double> measured;
  for (auto range : {rtl::InputRange::Small, rtl::InputRange::Medium,
                     rtl::InputRange::Large}) {
    store::ScratchStore scratch(rtl::micro_campaign_meta(
        rtl::MicroOp::FMUL, range, rtl::Site::FuLane, 400, 99));
    const rtl::AvfSummary s = rtl::run_tmxm_campaign_store(scratch.ckpt());
    measured.insert(measured.end(), s.rel_errors.begin(), s.rel_errors.end());
  }
  std::cout << "measured " << measured.size()
            << " relative-error syndromes from FMUL FU injections\n";

  // Normality is rejected (the paper: all p-values < 0.05).
  std::vector<double> sample = measured;
  if (sample.size() > 4000) sample.resize(4000);
  const auto sw = stats::shapiro_wilk(sample);
  std::cout << "Shapiro-Wilk: W=" << sw.w << " p=" << sw.p_value
            << (sw.p_value < 0.05 ? "  -> non-Gaussian\n" : "\n");

  // Fit the power law and sample Eq. 1.
  const stats::PowerLawFit fit = stats::fit_power_law(measured);
  std::cout << "power-law fit: alpha=" << fit.alpha << " x_min=" << fit.x_min
            << " KS=" << fit.ks << " over " << fit.n_tail << " tail samples\n\n";

  stats::PowerLawSampler sampler(fit.x_min, fit.alpha);
  Rng rng(123);
  std::vector<double> synthetic(measured.size());
  for (double& x : synthetic) x = sampler.sample(rng);

  // Side-by-side decade histograms: measured vs Eq. 1 samples.
  stats::DecadeHistogram hm, hs;
  for (double x : measured)
    if (x >= fit.x_min) hm.add(x);
  hs.add_all(synthetic);

  Table t("measured tail vs Eq. 1 samples (fractions per decade)");
  t.header({"bin", "measured", "Eq. 1 sample"});
  for (std::size_t b = 0; b < hm.bin_count(); ++b) {
    if (hm.count(b) == 0 && hs.count(b) == 0) continue;
    t.row({hm.label(b), Table::pct(hm.fraction(b), 1), Table::pct(hs.fraction(b), 1)});
  }
  t.print(std::cout);
  std::cout << "\nThis sampler is what a software-level syndrome injector uses\n"
               "to corrupt instruction outputs realistically instead of with\n"
               "uniform random bit flips.\n";
  return 0;
}
