#include "perfi/campaign.hpp"

#include <algorithm>
#include <stdexcept>

#include "store/records.hpp"

namespace gpf::perfi {

using errmodel::ErrorModel;

void EprCell::merge(const EprCell& other) {
  injections += other.injections;
  masked += other.masked;
  sdc += other.sdc;
  due += other.due;
  due_illegal_address += other.due_illegal_address;
  due_invalid_register += other.due_invalid_register;
  due_invalid_opcode += other.due_invalid_opcode;
  due_hang += other.due_hang;
  due_other += other.due_other;
}

AppInjectionRunner::AppInjectionRunner(const workloads::Workload& w) : w_(w) {
  gpu_.clear_memories();
  w_.setup(gpu_);
  image_ = gpu_.save_memory();
  const workloads::RunStats stats = w_.run(gpu_);
  if (!stats.ok)
    throw std::runtime_error("golden run failed for " + std::string(w.name()));
  const workloads::OutputSpec spec = w_.output();
  golden_.assign(
      gpu_.global().begin() + static_cast<std::ptrdiff_t>(spec.addr),
      gpu_.global().begin() + static_cast<std::ptrdiff_t>(spec.addr + spec.words));
  // Per-launch hang budget: generous multiple of the whole golden run.
  budget_ = std::max<std::uint64_t>(stats.cycles * 30, 100'000);
}

store::PerfiOutcome AppInjectionRunner::inject(
    const errmodel::ErrorDescriptor& desc) {
  ErrorInjector injector(desc);
  if (image_.segments.empty()) {  // bare-metal app: kernels may write anywhere
    gpu_.clear_memories();
    w_.setup(gpu_);
  } else {
    gpu_.restore_memory(image_);
  }
  gpu_.set_hooks(&injector);
  last_stats_ = w_.run(gpu_, budget_);
  gpu_.set_hooks(nullptr);

  if (!last_stats_.ok) {
    switch (last_stats_.trap) {
      case arch::TrapKind::IllegalAddress:
      case arch::TrapKind::InvalidPC:
        return store::PerfiOutcome::DueIllegalAddress;
      case arch::TrapKind::InvalidRegister:
        return store::PerfiOutcome::DueInvalidRegister;
      case arch::TrapKind::InvalidOpcode:
        return store::PerfiOutcome::DueInvalidOpcode;
      case arch::TrapKind::Watchdog: return store::PerfiOutcome::DueHang;
      default: return store::PerfiOutcome::DueOther;
    }
  }
  const workloads::OutputSpec spec = w_.output();
  const bool equal = std::equal(
      golden_.begin(), golden_.end(),
      gpu_.global().begin() + static_cast<std::ptrdiff_t>(spec.addr));
  return equal ? store::PerfiOutcome::Masked : store::PerfiOutcome::Sdc;
}

namespace {

void add_outcome(EprCell& cell, store::PerfiOutcome o) {
  ++cell.injections;
  switch (o) {
    case store::PerfiOutcome::Masked: ++cell.masked; return;
    case store::PerfiOutcome::Sdc: ++cell.sdc; return;
    case store::PerfiOutcome::DueIllegalAddress: ++cell.due_illegal_address; break;
    case store::PerfiOutcome::DueInvalidRegister: ++cell.due_invalid_register; break;
    case store::PerfiOutcome::DueInvalidOpcode: ++cell.due_invalid_opcode; break;
    case store::PerfiOutcome::DueHang: ++cell.due_hang; break;
    case store::PerfiOutcome::DueOther: ++cell.due_other; break;
  }
  ++cell.due;
}

}  // namespace

store::CampaignMeta epr_campaign_meta(const workloads::Workload& w,
                                      ErrorModel model, std::size_t n,
                                      std::uint64_t seed,
                                      std::uint32_t shard_index,
                                      std::uint32_t shard_count) {
  store::CampaignMeta meta;
  meta.kind = store::CampaignKind::Perfi;
  meta.target = 0xFF;
  meta.model = static_cast<std::uint8_t>(model);
  meta.seed = seed;
  meta.total = n;
  meta.shard_index = shard_index;
  meta.shard_count = shard_count;
  meta.app = std::string(w.name());
  return meta;
}

EprUnitRunner::EprUnitRunner(const workloads::Workload& w,
                             const store::CampaignMeta& meta)
    : meta_(meta),
      runner_(w),
      base_(meta.seed ^
            (static_cast<std::uint64_t>(static_cast<ErrorModel>(meta.model)) *
             0x9E3779B9u)) {
  if (meta.kind != store::CampaignKind::Perfi)
    throw std::runtime_error("epr campaign: meta is not a perfi campaign");
  if (meta.app != w.name())
    throw std::runtime_error("epr campaign: store belongs to app '" + meta.app +
                             "', not '" + std::string(w.name()) + "'");
}

void EprUnitRunner::run(std::span<const std::uint64_t> ids, const Emit& emit,
                        const std::function<bool()>& stop) {
  const auto model = static_cast<ErrorModel>(meta_.model);
  for (const std::uint64_t i : ids) {
    if (stop && stop()) return;
    Rng rng = base_.fork(i);
    store::PerfiRecord rec;
    rec.outcome = runner_.inject(random_descriptor(model, rng));
    emit(i, rec);
  }
}

EprCell run_epr_cell_store(const workloads::Workload& w,
                           store::CampaignCheckpoint& ckpt) {
  const store::CampaignMeta& meta = ckpt.meta();
  EprUnitRunner runner(w, meta);

  EprCell cell;
  for (std::uint64_t i = 0; i < meta.total; ++i) {
    if (!meta.owns(i)) continue;
    if (const auto it = ckpt.done().find(i); it != ckpt.done().end()) {
      add_outcome(cell, store::decode_perfi(it->second).outcome);
      continue;
    }
    if (ckpt.should_stop()) break;
    const std::uint64_t id[] = {i};
    runner.run(id, [&](std::uint64_t, const store::PerfiRecord& rec) {
      ckpt.record(i, store::encode(rec));
      add_outcome(cell, rec.outcome);
    });
  }
  ckpt.sync();  // campaign boundary: all recorded results are now durable
  return cell;
}

std::vector<ErrorModel> software_models() {
  return {ErrorModel::IOC, ErrorModel::IRA, ErrorModel::IVRA, ErrorModel::IIO,
          ErrorModel::WV,  ErrorModel::IAT, ErrorModel::IAW,  ErrorModel::IAC,
          ErrorModel::IAL, ErrorModel::IMS, ErrorModel::IMD};
}

}  // namespace gpf::perfi
