// Software-level error-propagation campaigns (Figs. 12-13): inject each
// error model into full applications and classify the outcome as
// Masked / SDC / DUE, measuring the Error Propagation Rate (EPR).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "arch/machine.hpp"
#include "common/rng.hpp"
#include "errmodel/models.hpp"
#include "perfi/injector.hpp"
#include "store/checkpoint.hpp"
#include "store/records.hpp"
#include "workloads/workload.hpp"

namespace gpf::perfi {

/// EPR numbers for one (application, error model) cell.
struct EprCell {
  std::size_t injections = 0, masked = 0, sdc = 0, due = 0;
  // DUE cause breakdown (the paper reports illegal addresses and invalid
  // instructions dominating operation-error DUEs).
  std::size_t due_illegal_address = 0, due_invalid_register = 0,
              due_invalid_opcode = 0, due_hang = 0, due_other = 0;

  double epr_sdc() const { return ratio(sdc); }
  double epr_due() const { return ratio(due); }
  double epr_masked() const { return ratio(masked); }

  void merge(const EprCell& other);

 private:
  double ratio(std::size_t n) const {
    return injections ? static_cast<double>(n) / static_cast<double>(injections)
                      : 0.0;
  }
};

/// Prepares an application for repeated instrumented runs (golden output,
/// cycle budget and the post-setup memory image computed once).
class AppInjectionRunner {
 public:
  explicit AppInjectionRunner(const workloads::Workload& w);

  /// Masked, SDC, or the DUE cause of the trap that ended the run.
  store::PerfiOutcome inject(const errmodel::ErrorDescriptor& desc);
  arch::TrapKind last_trap() const { return last_stats_.trap; }
  /// Launch totals of the last injection's run.
  const workloads::RunStats& last_stats() const { return last_stats_; }
  /// Per-launch hang budget of every injection.
  std::uint64_t budget() const { return budget_; }

 private:
  const workloads::Workload& w_;
  arch::Gpu gpu_;
  arch::Gpu::MemoryImage image_;  ///< memory right after setup()
  std::vector<std::uint32_t> golden_;
  std::uint64_t budget_ = 0;
  workloads::RunStats last_stats_;
};

/// Store header for one (application, error model) EPR cell.
store::CampaignMeta epr_campaign_meta(const workloads::Workload& w,
                                      errmodel::ErrorModel model, std::size_t n,
                                      std::uint64_t seed,
                                      std::uint32_t shard_index = 0,
                                      std::uint32_t shard_count = 1);

/// The EPR cell driver: injection i's error descriptor is drawn from an RNG
/// stream forked on i (shard- and resume-stable), each outcome is appended to
/// `ckpt` as it retires, and done ids are restored instead of re-run. The
/// returned cell covers this shard's retired injections.
EprCell run_epr_cell_store(const workloads::Workload& w,
                           store::CampaignCheckpoint& ckpt);

/// Work-unit adapter for lease-based dispatch: evaluates arbitrary
/// injection ids of one (app, model) EPR campaign. Descriptor i comes from
/// an RNG stream forked on i, so any process evaluating id i produces the
/// identical record. The golden run is paid once at construction and
/// reused across run() calls.
class EprUnitRunner {
 public:
  using Emit = std::function<void(std::uint64_t, const store::PerfiRecord&)>;

  EprUnitRunner(const workloads::Workload& w, const store::CampaignMeta& meta);

  /// Evaluates `ids` in order; emit(id, record) per retired injection.
  /// `stop`, when set, is polled before each injection.
  void run(std::span<const std::uint64_t> ids, const Emit& emit,
           const std::function<bool()>& stop = {});

 private:
  store::CampaignMeta meta_;
  AppInjectionRunner runner_;
  Rng base_;
};

/// The 11 models evaluated in software (IPP is representable by the others,
/// IVOC always DUEs at the low level — both excluded, as in the paper).
std::vector<errmodel::ErrorModel> software_models();

}  // namespace gpf::perfi
