// Figs. 7-9 + Table 2 reproduction: RTL injections into the scheduler and
// pipeline while the t-MxM mini-app runs with Max / Zero / Random tiles:
// AVF split (DUE / single / multiple SDC), the spatial distribution of
// multiple corrupted elements, and per-element relative-error spreads for
// example row and block patterns.
#include <algorithm>
#include <iostream>

#include "common/env.hpp"
#include "common/table.hpp"
#include "rtl/campaign.hpp"
#include "stats/descriptive.hpp"
#include "syndrome/pattern.hpp"

using namespace gpf;
using rtl::Site;
using syndrome::SpatialPattern;
using workloads::TileType;

int main() {
  const std::size_t n = scaled(300, 60);
  const std::uint64_t seed = campaign_seed();
  const TileType tiles[] = {TileType::Max, TileType::Zero, TileType::Random};
  const Site sites[] = {Site::Scheduler, Site::Pipeline};

  // ---- Fig. 7: AVF per tile type ------------------------------------------
  Table avf("Fig. 7 — t-MxM AVF for scheduler (left) and pipeline (right)");
  avf.header({"site", "tile", "DUE", "SDC single", "SDC multiple",
              "multi share of SDCs"});

  // Collected per-injection details for Fig. 8 / Table 2 / Fig. 9.
  std::vector<std::pair<Site, rtl::InjectionResult>> details;

  for (Site site : sites) {
    for (TileType tile : tiles) {
      std::vector<rtl::InjectionResult> d;
      store::ScratchStore scratch(rtl::tmxm_campaign_meta(tile, site, n, seed));
      const rtl::AvfSummary s = rtl::run_tmxm_campaign_store(scratch.ckpt(), &d);
      for (auto& r : d) details.emplace_back(site, std::move(r));
      const double sdcs = static_cast<double>(s.sdc_single + s.sdc_multi);
      avf.row({std::string(rtl::site_name(site)),
               workloads::tile_type_name(tile), Table::pct(s.avf_due()),
               Table::pct(s.avf_sdc_single()), Table::pct(s.avf_sdc_multi()),
               sdcs > 0 ? Table::pct(static_cast<double>(s.sdc_multi) / sdcs) : "-"});
    }
  }
  avf.print(std::cout);
  std::cout << "\n";

  // ---- Fig. 8 / Table 2: spatial patterns of multiple corruptions ----------
  Table pat("Table 2 — distribution of multiple corrupted-element patterns");
  pat.header({"inj. site", "row", "col.", "row+col.", "block", "rand.", "all"});
  for (Site site : sites) {
    std::size_t counts[8] = {};
    std::size_t multi = 0;
    for (const auto& [s, r] : details) {
      if (s != site || r.corrupted < 2) continue;
      ++multi;
      ++counts[static_cast<unsigned>(syndrome::classify_spatial(r.corrupted_idx, 16))];
    }
    auto cell = [&](SpatialPattern p) {
      return multi ? Table::pct(static_cast<double>(
                                    counts[static_cast<unsigned>(p)]) /
                                static_cast<double>(multi))
                   : std::string("-");
    };
    pat.row({std::string(rtl::site_name(site)), cell(SpatialPattern::Row),
             cell(SpatialPattern::Col), cell(SpatialPattern::RowCol),
             cell(SpatialPattern::Block), cell(SpatialPattern::Random),
             cell(SpatialPattern::All)});
  }
  pat.print(std::cout);
  std::cout << "\n";

  // ---- Fig. 9: per-element relative-error spread for example patterns ------
  Table spread("Fig. 9 — per-element relative-error spread (example patterns)");
  spread.header({"pattern", "elements", "min rel-err", "median", "max"});
  for (SpatialPattern want : {SpatialPattern::Row, SpatialPattern::Block}) {
    for (const auto& [s, r] : details) {
      if (r.corrupted < 3 || r.rel_errors.empty()) continue;
      if (syndrome::classify_spatial(r.corrupted_idx, 16) != want) continue;
      std::vector<double> e = r.rel_errors;
      std::sort(e.begin(), e.end());
      spread.row({std::string(syndrome::pattern_name(want)),
                  std::to_string(r.corrupted), Table::num(e.front(), 6),
                  Table::num(stats::median(e), 6), Table::num(e.back(), 4)});
      break;  // one example per pattern, as in the paper's figure
    }
  }
  spread.print(std::cout);
  std::cout << "\nPaper shape checks: scheduler AVF exceeds the pipeline's on\n"
               "t-MxM; >=70%/50% of scheduler/pipeline SDCs corrupt multiple\n"
               "elements; whole-column corruption is rare (row-major kernel);\n"
               "the Zero tile shows the lowest pipeline SDC AVF (multiply-by-\n"
               "zero masking).\n";
  return 0;
}
