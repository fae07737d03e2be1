#include "passes.hpp"

#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "campaign_flags.hpp"
#include "common/threadpool.hpp"
#include "gate/replay.hpp"
#include "net/coordinator.hpp"
#include "net/service.hpp"
#include "net/worker.hpp"
#include "obs/metrics.hpp"
#include "perfi/campaign.hpp"
#include "report/gate_experiments.hpp"
#include "rtl/campaign.hpp"
#include "store/checkpoint.hpp"
#include "store/export.hpp"
#include "store/records.hpp"
#include "warehouse/compact.hpp"
#include "warehouse/query.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using namespace gpf;
namespace fs = std::filesystem;

namespace {

// Fleet dispatch: 64-id units (the coordinator default) and a lease short
// enough that an idle worker's NoWork back-off (lease/4) stays small.
constexpr std::uint32_t kFleetLeaseMs = 400;

std::vector<Cell> cells_from_flags(std::map<std::string, std::string> flags,
                                   std::uint64_t seed) {
  gpfcli::Args a;
  a.flags = std::move(flags);
  a.flags["seed"] = std::to_string(seed);
  std::vector<Cell> cells;
  for (const store::CampaignMeta& m : gpfcli::metas_from_flags(a))
    cells.push_back({m, gpfcli::campaign_name_for(m)});
  return cells;
}

std::vector<Cell> perfi_cell(const char* app, const char* model,
                             std::size_t n, std::uint64_t seed) {
  return cells_from_flags({{"campaign", "perfi"},
                           {"app", app},
                           {"model", model},
                           {"injections", std::to_string(n)}},
                          seed);
}

std::vector<Cell> rtl_cell(const char* site, std::size_t n,
                           std::uint64_t seed) {
  return cells_from_flags({{"campaign", "rtl"},
                           {"tile", "random"},
                           {"site", site},
                           {"injections", std::to_string(n)}},
                          seed);
}

/// Gate flags: full collapsed fault lists over the default 400-issue traces,
/// or a sampled slice of short traces at the reduced size.
std::map<std::string, std::string> gate_flags(const char* unit, bool small) {
  std::map<std::string, std::string> f{{"campaign", "gate"}, {"unit", unit}};
  if (small) {
    f["faults"] = "96";
    f["max-issues"] = "40";
  }
  return f;
}

void append(std::vector<Cell>& to, std::vector<Cell> from) {
  for (Cell& c : from) to.push_back(std::move(c));
}

std::string store_path(const std::string& dir, const Cell& c) {
  return gpfcli::store_path_for(c.meta, dir);
}

const workloads::Workload& find_app(const store::CampaignMeta& meta) {
  const workloads::Workload* w = workloads::find(meta.app);
  if (!w) throw std::runtime_error("unknown workload: " + meta.app);
  return *w;
}

std::string export_json(const std::string& path) {
  const store::LoadedStore s = store::load_store(path);
  std::ostringstream os;
  store::export_store(s, store::ExportFormat::Json, os);
  return os.str();
}

/// Copies a store with the first record's outcome flipped and exports the
/// copy: what a silently corrupted campaign would hand its user.
std::string tampered_export(const std::string& path) {
  const store::LoadedStore s = store::load_store(path);
  const std::string copy = path + ".tampered";
  {
    store::ResultLog out(copy, s.meta);
    bool flipped = false;
    for (const auto& [id, payload] : s.records) {
      std::vector<std::uint8_t> p = payload;
      if (!flipped) {
        flipped = true;
        switch (s.meta.kind) {
          case store::CampaignKind::Gate: {
            store::GateRecord r = store::decode_gate(p);
            r.hang = !r.hang;
            p = store::encode(r);
            break;
          }
          case store::CampaignKind::Rtl: {
            store::RtlRecord r = store::decode_rtl(p);
            r.outcome = r.outcome == store::RtlOutcome::Masked
                            ? store::RtlOutcome::Due
                            : store::RtlOutcome::Masked;
            p = store::encode(r);
            break;
          }
          case store::CampaignKind::Perfi: {
            store::PerfiRecord r = store::decode_perfi(p);
            r.outcome = r.outcome == store::PerfiOutcome::Sdc
                            ? store::PerfiOutcome::Masked
                            : store::PerfiOutcome::Sdc;
            p = store::encode(r);
            break;
          }
        }
      }
      out.append(id, p);
    }
  }
  std::string json = export_json(copy);
  fs::remove(copy);
  return json;
}

/// Fleet passes size every worker's gate pool to one thread: workers plus
/// the coordinator loop stay within the cores the timed passes have.
struct OneThreadPerWorker {
  OneThreadPerWorker() { set_campaign_threads_override(1); }
  ~OneThreadPerWorker() { set_campaign_threads_override(0); }
  OneThreadPerWorker(const OneThreadPerWorker&) = delete;
  OneThreadPerWorker& operator=(const OneThreadPerWorker&) = delete;
};

/// The fleet pass's coordinator and worker threads. Normally joined in
/// order by the pass; if the pass throws while they run, the destructor
/// drains the coordinator (so serve() returns even without workers) and
/// joins them all.
struct FleetThreads {
  explicit FleetThreads(net::Coordinator& c) : coord(c) {}
  ~FleetThreads() {
    coord.request_drain();
    for (std::thread& t : all)
      if (t.joinable()) t.join();
  }
  FleetThreads(const FleetThreads&) = delete;
  FleetThreads& operator=(const FleetThreads&) = delete;

  net::Coordinator& coord;
  std::vector<std::thread> all;  ///< the coordinator loop first
};

/// The end of every cell: compaction (while the store is open, as
/// `gpfctl run` does), closing the store, a footer query and the export.
void finish_cell(std::optional<store::CampaignCheckpoint>& ckpt,
                 const std::string& path, PassLog& log, std::uint32_t parent,
                 PassOutcome& out) {
  const std::string seg = warehouse::warehouse_path_for(path);
  {
    SpanScope s(log, "warehouse.compact", parent);
    warehouse::compact_stores({path}, seg);
  }
  {
    SpanScope s(log, "store.close", parent);
    ckpt.reset();
  }
  {
    SpanScope s(log, "warehouse.query", parent);
    const std::string q = warehouse::render_metric(
        warehouse::read_footer(seg), warehouse::Metric::Epr,
        warehouse::QueryFormat::Json);
    if (q.empty()) throw std::runtime_error("empty query answer for " + seg);
  }
  {
    SpanScope s(log, "store.export", parent);
    out.exports.push_back(export_json(path));
  }
  out.values["warehouse.segment_bytes"] += static_cast<double>(fs::file_size(seg));
}

/// One cell through the calls `gpfctl run` makes.
void gpfctl_cell(const Cell& cell, const std::string& path, PassLog& log,
                 std::uint32_t parent, PassOutcome& out) {
  SpanScope cs(log, "bench.cell", parent);
  std::optional<store::CampaignCheckpoint> ckpt;
  {
    SpanScope s(log, "store.open", cs.id());
    ckpt.emplace(path, cell.meta);
  }
  switch (cell.meta.kind) {
    case store::CampaignKind::Gate: {
      std::vector<gate::UnitTraces> traces;
      {
        SpanScope s(log, "gate.trace_capture", cs.id());
        traces = report::collect_profiling_traces(cell.meta.param1);
      }
      ThreadPool pool;
      SpanScope s(log, "gate.campaign", cs.id());
      report::run_unit_campaign_store(traces, *ckpt, &pool);
      break;
    }
    case store::CampaignKind::Rtl: {
      SpanScope s(log, "rtl.campaign", cs.id());
      rtl::run_tmxm_campaign_store(*ckpt);
      break;
    }
    case store::CampaignKind::Perfi: {
      SpanScope s(log, "perfi.campaign", cs.id());
      perfi::run_epr_cell_store(find_app(cell.meta), *ckpt);
      break;
    }
  }
  finish_cell(ckpt, path, log, cs.id(), out);
}

/// One cell composed from the layer calls under run_*_store, with a span
/// around each: what the traced run uses to split a pass into layers. PERfi
/// and RTL runners are called once per id, so each injection has its span.
void traced_cell(const Cell& cell, const std::string& path, PassLog& log,
                 std::uint32_t parent, PassOutcome& out) {
  SpanScope cs(log, "bench.cell", parent);
  const store::CampaignMeta& meta = cell.meta;
  std::optional<store::CampaignCheckpoint> ckpt;
  {
    SpanScope s(log, "store.open", cs.id());
    ckpt.emplace(path, meta);
  }
  std::vector<std::uint64_t> pending;
  for (std::uint64_t id = 0; id < meta.total; ++id)
    if (meta.owns(id) && !ckpt->is_done(id)) pending.push_back(id);

  const auto record = [&](std::uint32_t parent_span, std::uint64_t id,
                          const std::vector<std::uint8_t>& payload) {
    SpanScope s(log, "store.append", parent_span);
    ckpt->record(id, payload);
  };

  switch (meta.kind) {
    case store::CampaignKind::Gate: {
      std::vector<gate::UnitTraces> traces;
      {
        SpanScope s(log, "gate.trace_capture", cs.id());
        traces = report::collect_profiling_traces(meta.param1);
      }
      ThreadPool pool;
      std::optional<report::GateUnitRunner> runner;
      {
        SpanScope s(log, "gate.runner_build", cs.id());
        runner.emplace(traces, meta);
      }
      SpanScope sim(log, "gate.sim", cs.id(), static_cast<std::uint32_t>(pool.size()));
      runner->run(
          pending,
          [&](std::uint64_t id, const gate::FaultCharacterization& fc) {
            record(sim.id(), id, store::encode(report::to_gate_record(fc)));
          },
          &pool, [&] { return ckpt->should_stop(); });
      break;
    }
    case store::CampaignKind::Perfi: {
      std::optional<perfi::EprUnitRunner> runner;
      {
        SpanScope s(log, "arch.golden", cs.id());
        runner.emplace(find_app(meta), meta);
      }
      for (const std::uint64_t id : pending) {
        store::PerfiRecord rec;
        SpanScope inj(log, "perfi.inject", cs.id());
        runner->run(std::span(&id, 1), [&](std::uint64_t, const store::PerfiRecord& r) { rec = r; });
        const double dt = inj.close();
        if (rec.outcome == store::PerfiOutcome::DueHang) log.add("perfi.hang_time", dt);
        record(cs.id(), id, store::encode(rec));
      }
      break;
    }
    case store::CampaignKind::Rtl: {
      // Injection i runs on input draw i % 4, and the runner builds a draw's
      // golden run inside the draw's first injection: those four calls are
      // the rtl.golden spans, the rest rtl.inject.
      rtl::TmxmUnitRunner runner(meta);
      std::array<bool, 4> drawn{};
      for (const std::uint64_t id : pending) {
        rtl::InjectionResult r;
        {
          const bool first = !std::exchange(drawn[id % 4], true);
          SpanScope s(log, first ? "rtl.golden" : "rtl.inject", cs.id());
          runner.run(std::span(&id, 1), [&](std::uint64_t, const rtl::InjectionResult& res) { r = res; });
        }
        record(cs.id(), id, store::encode(rtl::to_rtl_record(r)));
      }
      break;
    }
  }
  {
    SpanScope s(log, "store.sync", cs.id());
    ckpt->sync();
  }
  finish_cell(ckpt, path, log, cs.id(), out);
}

/// The workload's campaigns served by an in-process coordinator to worker
/// threads over loopback.
void fleet_pass(const Workload& w, const std::string& dir, PassLog& log,
                std::uint32_t parent, const PassEnv& env, PassOutcome& out) {
  SpanScope cs(log, "bench.cell", parent);
  const OneThreadPerWorker one_thread;
  std::vector<std::optional<store::CampaignCheckpoint>> ckpts(w.cells.size());
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    SpanScope s(log, "store.open", cs.id());
    ckpts[i].emplace(store_path(dir, w.cells[i]), w.cells[i].meta);
  }

  net::CoordinatorConfig cfg;
  cfg.port = 0;
  cfg.unit_size = 64;
  cfg.lease_ms = kFleetLeaseMs;
  cfg.status_interval_ms = 0;
  std::optional<net::Coordinator> coord;
  {
    SpanScope s(log, "net.listen", cs.id());
    coord.emplace(cfg);
    for (auto& c : ckpts) coord->add_campaign(*c);
  }

  SpanScope serve(log, "net.serve", cs.id());
  const std::uint32_t serve_id = serve.id();
  const net::UnitFnFactory factory = [&](const store::CampaignMeta& m) {
    const bool is_gate = m.kind == store::CampaignKind::Gate;
    net::UnitFn inner;
    {
      SpanScope s(log, is_gate ? "gate.unit_fn_build" : "arch.golden", serve_id);
      inner = net::make_unit_fn(m);
    }
    return net::UnitFn([inner, is_gate, &log, serve_id](
                           std::span<const std::uint64_t> ids,
                           const net::EmitBytes& emit,
                           const std::function<bool()>& stop) {
      SpanScope u(log, is_gate ? "gate.unit" : "perfi.unit", serve_id);
      inner(ids, emit, stop);
      if (!ids.empty())
        log.add(is_gate ? "gate.unit_per_id" : "perfi.unit_per_id",
                u.close() / static_cast<double>(ids.size()));
    });
  };

  net::Coordinator::Stats cstats;
  std::exception_ptr serve_error;
  std::atomic<bool> serving{true};
  std::vector<net::WorkerStats> wstats(env.fleet_workers);
  std::vector<std::exception_ptr> werrors(env.fleet_workers);
  {
    FleetThreads threads(*coord);
    threads.all.emplace_back([&] {
      try {
        cstats = coord->serve();
      } catch (...) {
        serve_error = std::current_exception();
      }
      serve.close();
      serving.store(false);
    });
    for (unsigned i = 0; i < env.fleet_workers; ++i)
      threads.all.emplace_back([&, i] {
        try {
          net::WorkerConfig wc;
          wc.port = coord->port();
          wc.name = "bench-w" + std::to_string(i);
          wc.backoff_ms = 20;
          wstats[i] = net::run_worker(wc, factory);
        } catch (...) {
          werrors[i] = std::current_exception();
        }
      });
    // Traced passes sample the coordinator's live worker table: a connected
    // worker holding no lease is idle.
    std::uint64_t rows = 0, idle_rows = 0;
    while (log.tracer() && serving.load()) {
      for (const net::WorkerRow& r : coord->snapshot_stats().workers) {
        if (!r.connected) continue;
        ++rows;
        if (r.leased_units == 0) ++idle_rows;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (std::size_t i = 1; i < threads.all.size(); ++i) threads.all[i].join();
    threads.all[0].join();
    if (rows) out.values["net.worker_idle_frac"] = static_cast<double>(idle_rows) / static_cast<double>(rows);
  }
  if (serve_error) std::rethrow_exception(serve_error);
  for (const std::exception_ptr& e : werrors)
    if (e) std::rethrow_exception(e);

  double units = 0, lost = 0, busy = 0;
  for (const net::WorkerStats& s : wstats) {
    if (!s.drained) throw std::runtime_error("a fleet worker did not drain");
    units += static_cast<double>(s.units);
    lost += static_cast<double>(s.lost_leases);
    busy += static_cast<double>(s.busy_retries);
  }
  if (cstats.drained) throw std::runtime_error("coordinator stopped before completion");
  out.values["net.units"] = units;
  out.values["net.lost_leases"] = lost;
  out.values["net.busy_retries"] = busy;
  out.values["net.duplicates"] = static_cast<double>(cstats.duplicates);

  for (std::size_t i = 0; i < w.cells.size(); ++i)
    finish_cell(ckpts[i], store_path(dir, w.cells[i]), log, cs.id(), out);
}

double counter_delta(const obs::Snapshot& a, const obs::Snapshot& b,
                     const char* name) {
  return static_cast<double>(b.counter(name) - a.counter(name));
}

const obs::HistogramSnapshot* find_histogram(const obs::Snapshot& s,
                                             const char* name) {
  for (const obs::HistogramSnapshot& h : s.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

/// q-quantile of the samples a registry histogram gained between two
/// snapshots, interpolated linearly inside its power-of-two bucket.
double histogram_delta_quantile(const obs::Snapshot& a, const obs::Snapshot& b,
                                const char* name, double q) {
  const obs::HistogramSnapshot* hb = find_histogram(b, name);
  if (!hb) return 0;
  const obs::HistogramSnapshot* ha = find_histogram(a, name);
  std::array<double, obs::Histogram::kBuckets> d{};
  double n = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = static_cast<double>(hb->buckets[i] - (ha ? ha->buckets[i] : 0));
    n += d[i];
  }
  if (n == 0) return 0;
  const double target = q * n;
  double seen = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (seen + d[i] >= target && d[i] > 0) {
      const double lo = i == 0 ? 0.0 : static_cast<double>(1ull << (i - 1));
      const double hi = i == 0 ? 1.0 : static_cast<double>(obs::Histogram::bucket_limit(i));
      return lo + (hi - lo) * (target - seen) / d[i];
    }
    seen += d[i];
  }
  return 0;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, bool small) {
  Workload w;
  w.name = name;
  if (name == "gate_units") {
    w.cells = cells_from_flags(gate_flags("all", small), seed);
  } else if (name == "perfi_epr") {
    append(w.cells, perfi_cell("gemm", "IAT", small ? 12 : 100, seed));
    append(w.cells, perfi_cell("nw", "IAL", small ? 6 : 40, seed));
    append(w.cells, perfi_cell("bfs", "IAL", small ? 4 : 10, seed));
    w.seeds_per_run = small ? 2 : 24;
  } else if (name == "rtl_tmxm") {
    append(w.cells, rtl_cell("fu", small ? 8 : 150, seed));
    append(w.cells, rtl_cell("pipeline", small ? 4 : 10, seed));
    w.seeds_per_run = small ? 2 : 24;
  } else if (name == "fleet_mixed") {
    w.fleet = true;
    append(w.cells, cells_from_flags(gate_flags("decoder", small), seed));
    append(w.cells, perfi_cell("gemm", "IAT", small ? 24 : 300, seed));
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::vector<std::uint64_t> campaign_seeds(std::uint64_t seed, unsigned count) {
  std::vector<std::uint64_t> seeds;
  for (unsigned j = 0; j < count; ++j)
    seeds.push_back(seed + j * 0x9E3779B97F4A7C15ULL);
  return seeds;
}

PassOutcome run_pass(const Workload& w, PassKind kind, PassLog& log,
                     const PassEnv& env) {
  PassOutcome out;
  std::error_code ec;
  fs::remove_all(env.store_dir, ec);
  fs::create_directories(env.store_dir);
  const obs::Snapshot before = obs::snapshot();
  try {
    SpanScope pass(log, "bench.pass", 0);
    if (w.fleet && kind != PassKind::Gpfctl) {
      fleet_pass(w, env.store_dir, log, pass.id(), env, out);
    } else {
      for (const Cell& c : w.cells) {
        const std::string path = store_path(env.store_dir, c);
        if (kind == PassKind::Traced)
          traced_cell(c, path, log, pass.id(), out);
        else
          gpfctl_cell(c, path, log, pass.id(), out);
      }
    }
    out.wall_s = pass.close();
    for (const Cell& c : w.cells) out.results += c.meta.total;
    if (env.tamper_cell >= 0 &&
        static_cast<std::size_t>(env.tamper_cell) < w.cells.size())
      out.exports[static_cast<std::size_t>(env.tamper_cell)] = tampered_export(
          store_path(env.store_dir, w.cells[static_cast<std::size_t>(env.tamper_cell)]));
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  const obs::Snapshot after = obs::snapshot();
  for (const char* c : {"gate.lane_cycles", "gate.batches", "gate.cone_gates",
                        "gate.cone_total_gates", "gate.jit.compiles",
                        "store.appends", "store.append_bytes"})
    out.values[c] = counter_delta(before, after, c);
  out.values["store.append_us_p50_registry"] =
      histogram_delta_quantile(before, after, "store.append_us", 0.5);
  out.values["store.append_us_p99_registry"] =
      histogram_delta_quantile(before, after, "store.append_us", 0.99);
  return out;
}

double setup_trial(const Workload& w, const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  std::optional<OneThreadPerWorker> fleet_threads;
  if (w.fleet) fleet_threads.emplace();
  const Clock::time_point t0 = Clock::now();
  for (const Cell& c : w.cells) {
    const store::CampaignCheckpoint ckpt(store_path(dir, c), c.meta);
    if (w.fleet) {
      (void)net::make_unit_fn(c.meta);  // what a worker builds per campaign
      continue;
    }
    switch (c.meta.kind) {
      case store::CampaignKind::Gate: {
        const std::vector<gate::UnitTraces> traces =
            report::collect_profiling_traces(c.meta.param1);
        const report::GateUnitRunner runner(traces, c.meta);
        break;
      }
      case store::CampaignKind::Perfi: {
        const perfi::EprUnitRunner runner(find_app(c.meta), c.meta);
        break;
      }
      case store::CampaignKind::Rtl: {
        // The runner builds an input draw's golden run inside the draw's
        // first injection, so the cell's set-up ends with its first result.
        rtl::TmxmUnitRunner runner(c.meta);
        const std::uint64_t first = 0;
        runner.run(std::span(&first, 1), [](std::uint64_t, const rtl::InjectionResult&) {});
        break;
      }
    }
  }
  const double s = seconds_between(t0, Clock::now());
  fs::remove_all(dir, ec);
  return s;
}

std::map<std::string, double> exact_counts(const Workload& w,
                                           const std::string& store_dir) {
  std::map<std::string, double> n;
  for (const Cell& c : w.cells) {
    const store::LoadedStore s = store::load_store(store_path(store_dir, c));
    const std::string cell = c.name + ".";
    n[cell + "records"] = static_cast<double>(s.records.size());
    switch (c.meta.kind) {
      case store::CampaignKind::Gate: {
        n["gate.faults"] += static_cast<double>(s.records.size());
        for (const auto& [id, p] : s.records)
          n[cell + store::decode_gate(p).class_name()] += 1;
        const double reps =
            static_cast<double>(report::gate_campaign_representatives(c.meta));
        n[cell + "representatives"] = reps;
        n["gate.representatives"] += reps;
        break;
      }
      case store::CampaignKind::Perfi: {
        static const std::map<store::PerfiOutcome, const char*> metric{
            {store::PerfiOutcome::Masked, "perfi.masked"},
            {store::PerfiOutcome::Sdc, "perfi.sdc"},
            {store::PerfiOutcome::DueIllegalAddress, "perfi.due_illegal_address"},
            {store::PerfiOutcome::DueInvalidRegister, "perfi.due_invalid_register"},
            {store::PerfiOutcome::DueInvalidOpcode, "perfi.due_invalid_opcode"},
            {store::PerfiOutcome::DueHang, "perfi.due_hang"},
            {store::PerfiOutcome::DueOther, "perfi.due_other"}};
        for (const auto& [o, m] : metric) n[m] += 0;  // every tally printed
        for (const auto& [id, p] : s.records) {
          const store::PerfiOutcome o = store::decode_perfi(p).outcome;
          n[metric.at(o)] += 1;
          n[cell + store::perfi_outcome_name(o)] += 1;
        }
        const workloads::Workload& app = find_app(c.meta);
        arch::Gpu gpu;
        gpu.clear_memories();
        app.setup(gpu);
        const workloads::RunStats g = app.run(gpu);
        n[cell + "golden_instr"] = static_cast<double>(g.instructions);
        n[cell + "golden_cycles"] = static_cast<double>(g.cycles);
        n[cell + "golden_launches"] = static_cast<double>(g.launches);
        n["arch.golden_instr"] += static_cast<double>(g.instructions);
        n["arch.golden_cycles"] += static_cast<double>(g.cycles);
        break;
      }
      case store::CampaignKind::Rtl: {
        static const std::map<store::RtlOutcome, const char*> metric{
            {store::RtlOutcome::Masked, "rtl.masked"},
            {store::RtlOutcome::SdcSingle, "rtl.sdc_single"},
            {store::RtlOutcome::SdcMultiple, "rtl.sdc_multiple"},
            {store::RtlOutcome::Due, "rtl.due"}};
        for (const auto& [o, m] : metric) n[m] += 0;
        for (const auto& [id, p] : s.records) {
          const store::RtlOutcome o = store::decode_rtl(p).outcome;
          n[metric.at(o)] += 1;
          n[cell + store::rtl_outcome_name(o)] += 1;
          n["rtl.record_bytes"] += static_cast<double>(p.size());
          n["rtl.records"] += 1;
        }
        break;
      }
    }
  }
  return n;
}

std::string digest(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

}  // namespace perfbench
