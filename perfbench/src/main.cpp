// perfbench — end-to-end campaign benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|small] [--out DIR] [--jit-cache DIR]
//             [--expect-digest HEX] [--tamper-pass K]
//
// Runs whole campaign passes of one workload (see passes.hpp) and prints
// human-readable lines followed by one JSON result line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// A run makes an untimed reference pass at --seed, then whole rounds of
// passes — one per campaign seed (campaign_seeds) — until S seconds have
// passed, at least two rounds, with nine set-up trials spread over the run.
// The timing figures leave out passes during which the hypervisor stole a
// noticeable share of the host's CPU time (see steady_passes).
// --trace 0 reports the end-to-end metrics from untraced passes; --trace 1
// alternates untraced and traced passes and reports the per-layer metrics,
// writing the spans to DIR/trace_<workload>.json (Chrome / Perfetto) and
// the self-time table to DIR/selftime_<workload>.txt.
//
// A pass fails when it throws, when a fleet worker does not drain, or when
// its export digest differs from the first pass at its campaign seed. With
// --expect-digest the reference pass must also match that pinned digest.
// --tamper-pass K exports a copy of pass K's first store with one outcome
// flipped (passes count from 1, the reference pass); the benchmark's own
// tests use it to show that a corrupted export counts as a failed pass.
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "gate/batchsim.hpp"
#include "gate/jit.hpp"
#include "obs/metrics.hpp"
#include "passes.hpp"
#include "spans.hpp"

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kDefaultSeed = 0xC0FFEE;  // gpfctl's default seed
constexpr std::size_t kSetupTrials = 9;
// A timed pass is steady when the hypervisor stole at most this share of the
// host's CPU time while it ran. On a shared host, steal comes in episodes
// that slow a multi-threaded pass far more than the stolen share itself.
constexpr double kStealMax = 0.02;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string out = ".bench_out";
  std::string jit_cache = ".bench_build/jit-cache";
  std::string expect_digest;
  int tamper_pass = -1;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v, nullptr, 0);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--size") o.small = v == "small";
    else if (k == "--out") o.out = v;
    else if (k == "--jit-cache") o.jit_cache = v;
    else if (k == "--expect-digest") o.expect_digest = v;
    else if (k == "--tamper-pass") o.tamper_pass = std::stoi(v);
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload required");
  return o;
}

unsigned nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return 1;
}

/// Pins every knob the library would otherwise take from the environment.
void pin_config(const Options& o, unsigned threads) {
  const std::pair<const char*, std::string> pins[] = {
      {"GPF_SCALE", "1"},       {"GPF_ENGINE", "batch"},
      {"GPF_SIMD", "native"},   {"GPF_LANES", "0"},
      {"GPF_FUSE", "1"},        {"GPF_JIT", "auto"},
      {"GPF_JIT_CACHE_DIR", fs::absolute(o.jit_cache).string()},
      {"GPF_COLLAPSE", "1"},    {"GPF_CONE", "1"},
      {"GPF_FSYNC", "1"},       {"GPF_METRICS", "1"},
      {"GPF_WAREHOUSE", "1"},   {"GPF_STATUS_MS", "0"},
      {"GPF_THREADS", std::to_string(threads)},
      {"GPF_SEED", std::to_string(o.seed)}};
  for (const auto& [k, v] : pins) ::setenv(k, v.c_str(), 1);
  ::unsetenv("GPF_TRACE");
  fs::create_directories(o.jit_cache);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

/// {steal, total} CPU jiffies so far from /proc/stat (both 0 where
/// unreadable): time the hypervisor gave to other guests, and all CPU time.
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  f >> cpu;
  for (double& x : v) f >> x;
  double total = 0;
  for (const double x : v) total += x;
  return f ? std::pair{v[7], total} : std::pair{0.0, 0.0};
}

/// Starts a fresh peak-memory window for the next pass: hands memory the
/// allocator holds free (in per-thread arenas of threads since gone) back
/// to the kernel, then resets the kernel's peak-RSS mark, so each pass's
/// peak is its own working set rather than whatever earlier passes left
/// cached.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest of a fixed set of percentiles that has at least ten samples
/// beyond it (nearest rank), so the tail is never one or two outliers.
struct Tail {
  double percentile = 50;
  double value = 0;
  std::size_t samples = 0;
  bool thin = true;  ///< fewer than 20 samples: reported at p50

  std::string label() const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "p%g of %zu", percentile, samples);
    return buf;
  }
};

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (rank == 0 || v.size() - rank < 10) break;
    t = {p, v[rank - 1], v.size(), false};
  }
  if (t.thin) t.value = median(v);
  return t;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Pass {
  PassKind kind;
  unsigned seed_index = 0;  ///< into the run's campaign seeds
  unsigned round = 0;       ///< 0 = set-up (reference, warm-up)
  std::unique_ptr<PassLog> log;
  PassOutcome out;                        ///< exports dropped after hashing
  std::vector<std::string> cell_digests;  ///< digest of each cell's export
  std::string digest;                     ///< over the cell digests
  double peak_rss_mb = 0;                 ///< resident peak during the pass
  double steal = 0;                       ///< host CPU share stolen meanwhile
  bool failed = false;
};

const char* kind_name(PassKind k) {
  switch (k) {
    case PassKind::Gpfctl: return "gpfctl";
    case PassKind::Traced: return "traced";
    case PassKind::Fleet: return "fleet";
  }
  return "?";
}

std::string pass_digest(const std::vector<std::string>& cell_digests) {
  std::string cat;
  for (const std::string& d : cell_digests) cat += d + ",";
  return digest(cat);
}

/// Per-layer metric name -> (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

double pass_median(const std::vector<const Pass*>& ps,
                   const std::function<double(const Pass&)>& f) {
  std::vector<double> v;
  for (const Pass* p : ps) v.push_back(f(*p));
  return median(v);
}

std::vector<double> pooled(const std::vector<const Pass*>& ps,
                           const std::string& name, double scale) {
  std::vector<double> v;
  for (const Pass* p : ps)
    for (const double s : p->log->samples(name)) v.push_back(s * scale);
  return v;
}

double value_of(const Pass& p, const std::string& k) {
  const auto it = p.out.values.find(k);
  return it == p.out.values.end() ? 0.0 : it->second;
}

/// The timed passes the timing figures use, per campaign seed: those during
/// which the host lost at most kStealMax of its CPU time to steal, or, when
/// that leaves fewer than half of a seed's passes, the half with the least
/// steal. Runs stop at round boundaries, so every seed starts with as many
/// passes as the others.
std::vector<std::vector<const Pass*>> steady_passes(const std::vector<Pass>& passes,
                                                    PassKind timed_kind, std::size_t seeds) {
  std::vector<std::vector<const Pass*>> by_seed(seeds);
  for (const Pass& p : passes)
    if (p.round > 0 && !p.failed && p.kind == timed_kind) by_seed[p.seed_index].push_back(&p);
  for (std::vector<const Pass*>& v : by_seed) {
    std::stable_sort(v.begin(), v.end(), [](const Pass* a, const Pass* b) { return a->steal < b->steal; });
    const auto steady = static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [](const Pass* p) { return p->steal <= kStealMax; }));
    v.resize(std::max(steady, (v.size() + 1) / 2));
  }
  return by_seed;
}

Metrics per_layer_metrics(const Workload& w, const std::vector<Pass>& passes,
                          const std::map<std::string, double>& counts,
                          std::uint64_t jit_compiles, std::ostream& human,
                          double* unaccounted_out) {
  std::vector<const Pass*> traced, untraced, solo, fleet_all;
  for (const Pass& p : passes) {
    if (p.failed) continue;
    if (p.kind == PassKind::Traced) traced.push_back(&p);
    if (p.kind == (w.fleet ? PassKind::Fleet : PassKind::Gpfctl)) untraced.push_back(&p);
    if (w.fleet && p.kind == PassKind::Gpfctl) solo.push_back(&p);
    if (w.fleet && p.kind != PassKind::Gpfctl) fleet_all.push_back(&p);
  }
  const auto count = [&](const char* k) {
    const auto it = counts.find(k);
    return it == counts.end() ? 0.0 : it->second;
  };
  const auto total = [&](const char* name) {
    return pass_median(traced, [&](const Pass& p) { return p.log->total(name); });
  };
  const auto value = [&](const char* k) {
    return pass_median(traced, [&](const Pass& p) { return value_of(p, k); });
  };
  const auto sum_all = [&](const char* k) {
    double s = 0;
    for (const Pass* p : fleet_all) s += value_of(*p, k);
    return s;
  };
  const auto wall = [](const std::vector<const Pass*>& ps) {
    return pass_median(ps, [](const Pass& p) { return p.out.wall_s; });
  };
  const auto pct = [](double a, double b) { return b > 0 ? 100.0 * (a - b) / b : 0.0; };

  // Per-pass wall split over layers.
  std::map<std::uint32_t, std::vector<Span>> spans_of_pass;
  if (!traced.empty())
    for (const Span& s : traced.front()->log->tracer()->spans()) spans_of_pass[s.pass].push_back(s);
  std::vector<std::map<std::string, double>> shares;
  double bench_s = 0, wall_s = 0;
  for (const Pass* p : traced) {
    shares.push_back(attribute(spans_of_pass[p->log->pass()]));
    bench_s += shares.back()["bench"];
    wall_s += p->out.wall_s;
  }
  const auto self = [&](const char* layer) {
    std::vector<double> v;
    for (auto& m : shares) v.push_back(m[layer]);
    return median(v);
  };
  const double unaccounted = wall_s > 0 ? 100.0 * bench_s / wall_s : 0.0;
  if (unaccounted_out) *unaccounted_out = unaccounted;

  const double gate_sim = total("gate.sim") + total("gate.unit");
  const double golden_s = total("arch.golden");
  const double goldens = pass_median(traced, [](const Pass& p) {
    return static_cast<double>(p.log->samples("arch.golden").size());
  });
  double perfi_cells = 0;
  for (const Cell& c : w.cells) perfi_cells += c.meta.kind == gpf::store::CampaignKind::Perfi;
  const std::vector<double> perfi_us =
      w.fleet ? pooled(traced, "perfi.unit_per_id", 1e6) : pooled(traced, "perfi.inject", 1e6);
  const std::vector<double> rtl_us = pooled(traced, "rtl.inject", 1e6);
  const std::vector<double> append_us = pooled(traced, "store.append", 1e6);
  double inject_total = 0, hang_total = 0;
  for (const Pass* p : traced) {
    inject_total += p->log->total("perfi.inject");
    hang_total += p->log->total("perfi.hang_time");
  }
  const Tail perfi_tail = tail(perfi_us), rtl_tail = tail(rtl_us), append_tail = tail(append_us);
  const bool registry_appends = append_us.empty();
  const double cone_total = value("gate.cone_total_gates");

  human << "per-layer tails: perfi.inject " << perfi_tail.label() << ", rtl.inject "
        << rtl_tail.label() << ", store.append "
        << (registry_appends ? "p99 from the store.append_us registry histogram"
                             : append_tail.label() + " spans")
        << "\n";

  return {
      {"gate.trace_capture_s", {total("gate.trace_capture"), "s"}},
      {"gate.runner_build_s", {total("gate.runner_build"), "s"}},
      {"gate.sim_s", {gate_sim, "s"}},
      {"gate.faults_per_s", {gate_sim > 0 ? count("gate.faults") / gate_sim : 0.0, "1/s"}},
      {"gate.faults", {count("gate.faults"), "count"}},
      {"gate.representatives", {count("gate.representatives"), "count"}},
      {"gate.lane_cycles", {value("gate.lane_cycles"), "count"}},
      {"gate.batches", {value("gate.batches"), "count"}},
      {"gate.cone_fraction", {cone_total > 0 ? value("gate.cone_gates") / cone_total : 0.0, "ratio"}},
      {"gate.jit.compiles", {static_cast<double>(jit_compiles), "count"}},
      {"arch.golden_s", {golden_s, "s"}},
      {"arch.instr_per_s",
       {golden_s > 0 && perfi_cells > 0 ? count("arch.golden_instr") * (goldens / perfi_cells) / golden_s : 0.0, "1/s"}},
      {"arch.golden_instr", {count("arch.golden_instr"), "count"}},
      {"arch.golden_cycles", {count("arch.golden_cycles"), "count"}},
      {"perfi.inject_us_p50", {median(perfi_us), "us"}},
      {"perfi.inject_us_tail", {perfi_tail.value, "us"}},
      {"perfi.masked", {count("perfi.masked"), "count"}},
      {"perfi.sdc", {count("perfi.sdc"), "count"}},
      {"perfi.due_illegal_address", {count("perfi.due_illegal_address"), "count"}},
      {"perfi.due_invalid_register", {count("perfi.due_invalid_register"), "count"}},
      {"perfi.due_invalid_opcode", {count("perfi.due_invalid_opcode"), "count"}},
      {"perfi.due_hang", {count("perfi.due_hang"), "count"}},
      {"perfi.due_other", {count("perfi.due_other"), "count"}},
      {"perfi.hang_time_frac", {inject_total > 0 ? hang_total / inject_total : 0.0, "ratio"}},
      {"rtl.golden_s", {total("rtl.golden"), "s"}},
      {"rtl.inject_us_p50", {median(rtl_us), "us"}},
      {"rtl.inject_us_tail", {rtl_tail.value, "us"}},
      {"rtl.masked", {count("rtl.masked"), "count"}},
      {"rtl.sdc_single", {count("rtl.sdc_single"), "count"}},
      {"rtl.sdc_multiple", {count("rtl.sdc_multiple"), "count"}},
      {"rtl.due", {count("rtl.due"), "count"}},
      {"rtl.record_bytes_mean",
       {count("rtl.records") > 0 ? count("rtl.record_bytes") / count("rtl.records") : 0.0, "bytes"}},
      {"store.open_s", {total("store.open"), "s"}},
      {"store.append_us_p50",
       {registry_appends ? value("store.append_us_p50_registry") : median(append_us), "us"}},
      {"store.append_us_tail",
       {registry_appends ? value("store.append_us_p99_registry") : append_tail.value, "us"}},
      {"store.appends", {value("store.appends"), "count"}},
      {"store.append_bytes", {value("store.append_bytes"), "bytes"}},
      {"store.sync_s", {total("store.sync"), "s"}},
      {"store.export_s", {total("store.export"), "s"}},
      {"warehouse.compact_s", {total("warehouse.compact"), "s"}},
      {"warehouse.segment_bytes", {value("warehouse.segment_bytes"), "bytes"}},
      {"warehouse.query_s", {total("warehouse.query"), "s"}},
      {"net.units", {value("net.units"), "count"}},
      {"net.lost_leases", {sum_all("net.lost_leases"), "count"}},
      {"net.busy_retries", {sum_all("net.busy_retries"), "count"}},
      {"net.duplicates", {sum_all("net.duplicates"), "count"}},
      {"net.worker_idle_frac", {value("net.worker_idle_frac"), "ratio"}},
      {"net.dispatch_overhead_pct", {w.fleet ? pct(wall(untraced), wall(solo)) : 0.0, "%"}},
      {"self.gate_s", {self("gate"), "s"}},
      {"self.arch_s", {self("arch"), "s"}},
      {"self.perfi_s", {self("perfi"), "s"}},
      {"self.rtl_s", {self("rtl"), "s"}},
      {"self.store_s", {self("store"), "s"}},
      {"self.warehouse_s", {self("warehouse"), "s"}},
      {"self.net_s", {self("net"), "s"}},
      {"unaccounted_pct", {unaccounted, "%"}},
      {"trace_overhead_pct", {pct(wall(traced), wall(untraced)), "%"}},
  };
}

void write_self_time_table(const Metrics& m, double wall, std::ostream& os) {
  os << "layer      self_s (median traced pass)   share of pass\n";
  for (const auto& [name, vu] : m) {
    if (name.rfind("self.", 0) != 0) continue;
    char line[128];
    std::snprintf(line, sizeof line, "%-10s %-29.6f %6.2f%%\n",
                  name.substr(5, name.size() - 7).c_str(), vu.first,
                  wall > 0 ? 100.0 * vu.first / wall : 0.0);
    os << line;
  }
}

int run(const Options& o) {
  const unsigned threads = nproc();
  pin_config(o, threads);
  const Workload base = make_workload(o.workload, o.seed, o.small);
  const std::vector<std::uint64_t> seeds = campaign_seeds(o.seed, base.seeds_per_run);
  std::vector<Workload> inputs;  // the workload at each campaign seed
  for (const std::uint64_t s : seeds) inputs.push_back(make_workload(o.workload, s, o.small));
  const Workload& w = inputs.front();

  PassEnv env;
  env.store_dir = (fs::path(o.out) / ("stores-" + o.workload + "-" + std::to_string(::getpid()))).string();
  env.fleet_workers = threads >= 3 ? 2 : 1;

  std::cout << "perfbench workload=" << w.name << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << o.trace
            << " size=" << (o.small ? "small" : "full") << "\n";
  const std::size_t lanes = gpf::gate::batch_lane_width();
  std::cout << "# pinned: nproc=" << threads << " gate pool threads=" << threads
            << " fleet workers=" << env.fleet_workers
            << " (1 pool thread each, plus the coordinator loop)"
            << " lanes=" << lanes << " simd=" << gpf::gate::batch_simd_path(lanes)
            << " engine=" << gpf::gate::batch_engine_tag() << "\n";
  gpf::dump_env(std::cout);
  std::cout << "# campaign seeds (" << seeds.size() << " per round):";
  for (const std::uint64_t s : seeds) std::cout << " " << s;
  std::cout << "\n";
  for (const Cell& c : w.cells)
    std::cout << "# cell " << c.name << ": " << c.meta.total << " ids\n";

  std::vector<Pass> passes;
  Tracer tracer;
  const auto run_one = [&](PassKind kind, unsigned seed_index, unsigned round) -> Pass& {
    Pass p;
    p.kind = kind;
    p.seed_index = seed_index;
    p.round = round;
    const auto index = static_cast<std::uint32_t>(passes.size());
    p.log = std::make_unique<PassLog>(index + 1, kind == PassKind::Traced ? &tracer : nullptr);
    PassEnv e = env;
    e.tamper_cell = static_cast<int>(index + 1) == o.tamper_pass ? 0 : -1;
    reset_peak_rss();
    const auto steal0 = cpu_steal_jiffies();
    p.out = run_pass(inputs[seed_index], kind, *p.log, e);
    const auto steal1 = cpu_steal_jiffies();
    p.peak_rss_mb = peak_rss_mb();
    if (steal1.second > steal0.second)
      p.steal = (steal1.first - steal0.first) / (steal1.second - steal0.second);
    for (const std::string& x : p.out.exports) p.cell_digests.push_back(digest(x));
    p.digest = pass_digest(p.cell_digests);
    p.out.exports = {};  // keep memory flat across passes: peak_rss_mb is a metric
    passes.push_back(std::move(p));
    return passes.back();
  };

  // Set-up (untimed): the reference pass at the run's own seed through the
  // gpfctl calls fills the JIT and page caches and gives the exports every
  // later pass at that seed must reproduce. For the fleet workload the
  // references are solo (single-process) passes at every seed, and one
  // fleet pass warms the loopback path.
  const Pass& ref = run_one(PassKind::Gpfctl, 0, 0);
  bool correct = ref.out.error.empty();
  std::map<std::string, double> counts;
  if (correct) {
    counts = exact_counts(w, env.store_dir);
  } else {
    std::cout << "reference pass failed: " << ref.out.error << "\n";
  }
  for (std::size_t i = 0; i < ref.cell_digests.size(); ++i)
    std::cout << "digest " << w.cells[i].name << " " << ref.cell_digests[i] << "\n";
  std::cout << "digest pass " << ref.digest;
  if (!o.expect_digest.empty()) {
    const bool match = o.expect_digest == ref.digest;
    std::cout << (match ? " (matches the pinned digest)" : " (DIFFERS from pinned " + o.expect_digest + ")");
    correct = correct && match;
  } else {
    std::cout << " (no pinned digest for this seed/size)";
  }
  std::cout << "\ncounts at seed " << o.seed << " {";
  for (auto it = counts.begin(); it != counts.end(); ++it)
    std::cout << (it == counts.begin() ? "" : ", ") << "\"" << it->first << "\": " << fmt(it->second);
  std::cout << "}\n";
  if (w.fleet) {
    for (unsigned j = 1; j < seeds.size(); ++j) run_one(PassKind::Gpfctl, j, 0);
    run_one(PassKind::Fleet, 0, 0);
  }

  // Timed rounds: every campaign seed once per round. Timed runs finish at
  // least two rounds, so every seed's exports are reproduced once; after
  // that the run stops at the first round boundary past --seconds, so every
  // seed has as many passes as the others. Set-up trials (a seed's cells
  // built up to their first result) are spread over the run, kSetupTrials
  // of them.
  const PassKind timed_kind = w.fleet ? PassKind::Fleet : PassKind::Gpfctl;
  std::vector<PassKind> kinds{timed_kind};
  if (o.trace)
    kinds = w.fleet ? std::vector<PassKind>{PassKind::Fleet, PassKind::Traced, PassKind::Gpfctl}
                    : std::vector<PassKind>{PassKind::Gpfctl, PassKind::Traced};
  const unsigned min_rounds = o.trace ? 1 : 2;
  const std::string trial_dir = env.store_dir + "-setup";
  std::vector<double> setups;
  std::size_t trials = 0;
  const std::uint64_t compiles_before = gpf::obs::snapshot().counter("gate.jit.compiles");
  const auto steal_before = cpu_steal_jiffies();
  const Clock::time_point start = Clock::now();
  unsigned rounds = 0;
  for (bool done = false; !done;) {
    ++rounds;
    for (unsigned j = 0; j < seeds.size(); ++j) {
      const double elapsed = seconds_between(start, Clock::now());
      if (!o.trace && trials < kSetupTrials &&
          elapsed >= o.seconds * static_cast<double>(trials) / kSetupTrials) {
        try {
          setups.push_back(setup_trial(inputs[trials % seeds.size()], trial_dir));
        } catch (const std::exception& e) {
          std::cout << "set-up trial failed: " << e.what() << "\n";
          correct = false;
        }
        ++trials;
      }
      for (const PassKind k : kinds) run_one(k, j, rounds);
    }
    done = rounds >= min_rounds && (o.trace || trials >= kSetupTrials) &&
           seconds_between(start, Clock::now()) >= o.seconds;
  }
  const std::uint64_t jit_compiles =
      gpf::obs::snapshot().counter("gate.jit.compiles") - compiles_before;
  const auto steal_after = cpu_steal_jiffies();
  const double steal_total = steal_after.second - steal_before.second;

  // Judge every pass: it ran, and it reproduced the first exports seen at
  // its campaign seed (traced and fleet passes included).
  std::vector<const std::string*> refs(seeds.size(), nullptr);
  std::uint64_t failed = 0;
  for (Pass& p : passes) {
    const std::string*& r = refs[p.seed_index];
    if (!p.out.error.empty()) {
      std::cout << "pass " << p.log->pass() << " (" << kind_name(p.kind) << ") failed: " << p.out.error << "\n";
      p.failed = true;
    } else if (r && p.digest != *r) {
      std::cout << "pass " << p.log->pass() << " (" << kind_name(p.kind) << ", seed "
                << seeds[p.seed_index] << ") export digest " << p.digest
                << " differs from the first pass at that seed\n";
      p.failed = true;
    } else if (!r) {
      r = &p.digest;
    }
    failed += p.failed;
  }
  correct = correct && failed == 0;

  // End-to-end figures from the steady untraced timed passes: throughput
  // from each seed's median pass (every pass of a workload retires the same
  // number of results, whatever its campaign seed) and the tail over all
  // of them.
  std::vector<double> rss;
  std::uint64_t results = 0;
  std::size_t timed = 0;
  for (const Pass& p : passes) {
    if (p.round == 0 || p.failed || p.kind != timed_kind) continue;
    rss.push_back(p.peak_rss_mb);
    results = p.out.results;
    ++timed;
  }
  std::vector<double> walls;
  double seed_wall_sum = 0;
  for (const std::vector<const Pass*>& kept : steady_passes(passes, timed_kind, seeds.size())) {
    std::vector<double> v;
    for (const Pass* p : kept) v.push_back(p->out.wall_s);
    seed_wall_sum += median(v);
    walls.insert(walls.end(), v.begin(), v.end());
  }
  const double seed_wall = seed_wall_sum / static_cast<double>(seeds.size());
  const double results_per_s = seed_wall > 0 ? static_cast<double>(results) / seed_wall : 0.0;
  const Tail wall_tail = tail(walls);
  std::cout << "passes: " << passes.size() << " attempted, " << failed << " failed; "
            << rounds << " rounds x " << seeds.size() << " seeds, " << timed
            << " timed " << kind_name(timed_kind) << " passes, " << walls.size()
            << " of them steady (host CPU steal <= " << fmt(100 * kStealMax)
            << "%, else each seed's least-stolen half); failed_frac "
            << fmt(static_cast<double>(failed) / static_cast<double>(passes.size())) << "\n";
  std::cout << "pass wall: mean of per-seed medians " << fmt(seed_wall) << " s, campaign_s_tail = "
            << wall_tail.label() << " passes"
            << (wall_tail.thin ? " (fewer than 20 passes: reported at p50)" : "") << "\n";
  if (!rss.empty())
    std::cout << "peak RSS per pass (MB): min " << fmt(*std::min_element(rss.begin(), rss.end()))
              << " median " << fmt(median(rss)) << " max "
              << fmt(*std::max_element(rss.begin(), rss.end())) << "\n";
  if (!setups.empty()) {
    std::cout << "set-up trials (s):";
    for (const double v : setups) std::cout << " " << fmt(v);
    std::cout << "\n";
  }
  std::cout << "gate.jit.compiles in timed passes: " << jit_compiles << "\n";
  if (steal_total > 0)
    std::cout << "host CPU steal during the timed rounds: "
              << fmt(100.0 * (steal_after.first - steal_before.first) / steal_total) << "%\n";
  if (jit_compiles != 0) {
    std::cout << "JIT compiled during timed passes: the warm-up did not warm the cache\n";
    correct = false;
  }

  Metrics metrics;
  if (o.trace) {
    double unaccounted = 0;
    metrics = per_layer_metrics(w, passes, counts, jit_compiles, std::cout, &unaccounted);
    std::vector<const Pass*> traced;
    for (const Pass& p : passes)
      if (p.kind == PassKind::Traced && !p.failed) traced.push_back(&p);
    const double traced_wall = pass_median(traced, [](const Pass& p) { return p.out.wall_s; });
    fs::create_directories(o.out);
    std::ostringstream table;
    write_self_time_table(metrics, traced_wall, table);
    table << "bench      " << fmt(unaccounted) << "% of traced pass wall (unaccounted)\n";
    std::cout << "self time per layer, " << traced.size() << " traced passes, median wall "
              << fmt(traced_wall) << " s\n" << table.str();
    std::ofstream(fs::path(o.out) / ("selftime_" + w.name + ".txt")) << table.str();
    // The trace file keeps the first two traced passes (a gate pass holds
    // ~8k append spans); the table above uses all of them.
    if (!traced.empty()) {
      const std::uint32_t keep_to = traced[std::min<std::size_t>(1, traced.size() - 1)]->log->pass();
      std::vector<Span> kept;
      for (const Span& s : tracer.spans())
        if (s.pass <= keep_to) kept.push_back(s);
      const fs::path trace_file = fs::path(o.out) / ("trace_" + w.name + ".json");
      std::ofstream f(trace_file);
      write_chrome_trace(kept, f);
      std::cout << "trace -> " << trace_file.string() << "\n";
    }
  } else {
    metrics = {
        {"results_per_s", {results_per_s, "1/s"}},
        {"campaign_s_tail", {wall_tail.value, "s"}},
        {"setup_s", {median(setups), "s"}},
        {"peak_rss_mb", {rss.empty() ? 0.0 : *std::max_element(rss.begin(), rss.end()), "MB"}},
    };
  }

  std::error_code ec;
  fs::remove_all(env.store_dir, ec);

  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << passes.size()
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    js << (i ? ", " : "") << "\"" << metrics[i].first << "\": {\"value\": "
       << fmt(metrics[i].second.first) << ", \"unit\": \"" << metrics[i].second.second << "\"}";
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
