// The benchmark's workloads and the passes that run them.
//
// A workload is a fixed list of campaigns ("cells"), each the CampaignMeta
// that `gpfctl run` builds from the same flags. One pass runs every cell
// end to end into fresh stores: campaign, warehouse compaction, a footer
// query and a JSON export. Three pass kinds exist:
//
//  * Gpfctl — the calls `gpfctl run` makes (report::collect_profiling_traces
//    + report::run_unit_campaign_store, perfi::run_epr_cell_store,
//    rtl::run_tmxm_campaign_store), each timed from outside. The timed runs
//    use these.
//  * Traced — the same campaigns composed from the layer calls underneath
//    (runner construction, runner run() or per-injection calls, an emit
//    that calls CampaignCheckpoint::record), with a span around each call.
//    Its exports must equal the Gpfctl pass's, which shows the
//    decomposition is faithful.
//  * Fleet — the workload's campaigns served by an in-process
//    net::Coordinator on loopback to net::run_worker threads. For the fleet
//    workload, Gpfctl passes run the same campaigns single-process (the
//    solo reference) and Traced passes are fleet passes with spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "store/result_log.hpp"

namespace perfbench {

struct Cell {
  gpf::store::CampaignMeta meta;
  std::string name;  ///< gpfcli::campaign_name_for(meta): the store stem
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  bool fleet = false;
  /// Campaign seeds one run covers (see campaign_seeds). Workloads whose
  /// timing depends on which injections hang use several, so that a run
  /// measures the hang mix rather than one seed's draw of it.
  unsigned seeds_per_run = 1;
};

/// The named workload at full size, or at the reduced size the benchmark's
/// own tests use. Every cell takes `seed` as its campaign seed. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool small);

/// The campaign seeds of one run: `seed` itself, then seeds at a fixed odd
/// stride from it, `count` in all.
std::vector<std::uint64_t> campaign_seeds(std::uint64_t seed, unsigned count);

enum class PassKind { Gpfctl, Traced, Fleet };

struct PassEnv {
  std::string store_dir;      ///< emptied at the start of every pass
  unsigned fleet_workers = 2; ///< worker threads of a fleet pass
  int tamper_cell = -1;       ///< >= 0: export a copy of this cell's store
                              ///< with one outcome flipped (test hook)
};

struct PassOutcome {
  double wall_s = 0;
  std::uint64_t results = 0;          ///< records retired by the pass
  std::vector<std::string> exports;   ///< per-cell export JSON, cell order
  std::map<std::string, double> values;  ///< per-pass layer figures
  std::string error;                  ///< non-empty: the pass failed
};

/// Runs one pass. Exceptions from the layers are caught into `error`.
PassOutcome run_pass(const Workload& w, PassKind kind, PassLog& log,
                     const PassEnv& env);

/// One set-up trial: opens a fresh store under `dir` for every cell and
/// builds what the cell needs before its first injection can start — the
/// profiling traces and GateUnitRunner (gate), the golden run in
/// perfi::EprUnitRunner (PERfi), or a worker's net::make_unit_fn (fleet).
/// An RTL cell's runner builds its first input draw's golden run inside the
/// first injection, so its trial runs that injection too. Returns the
/// trial's wall time in seconds.
double setup_trial(const Workload& w, const std::string& dir);

/// Exact simulated counts read back from the stores a pass left in
/// `store_dir`: per-cell outcome tallies plus workload sums under the
/// per-layer metric names (gate.faults, perfi.sdc, rtl.due, ...). Also
/// runs each PERfi cell's golden run once for arch.golden_instr/_cycles and
/// resolves gate.representatives.
std::map<std::string, double> exact_counts(const Workload& w,
                                           const std::string& store_dir);

/// FNV-1a 64 of `s` as 16 hex digits.
std::string digest(const std::string& s);

}  // namespace perfbench
