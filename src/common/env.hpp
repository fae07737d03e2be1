// Central registry of the GPF_* environment knobs. The paper's full
// campaigns (5.8e5 gate faults, 1.65e5 software injections) take hundreds of
// hours; bench binaries default to a statistically sampled slice and scale up
// via GPF_SCALE. Every knob is read here (and only here) so dump_env() can
// print the complete effective configuration at campaign start.
//
//   GPF_SCALE             campaign size multiplier (default 1.0)
//   GPF_SEED              base RNG seed (default 0xC0FFEE)
//   GPF_ENGINE            gate fault-simulation engine: brute | batch (default batch)
//   GPF_COLLAPSE          structural stuck-at fault collapsing: 1 | 0 (default 1)
//   GPF_CONE              batch-engine fanout-cone pruning: 1 | 0 (default 1)
//   GPF_SIMD              batch-engine SIMD path: native | scalar | avx2 | avx512
//   GPF_LANES             batch-engine lane width: 64 | 256 | 512 (0 = auto)
//   GPF_THREADS           campaign thread-pool width (0 = hardware threads)
//   GPF_STORE_DIR         directory for persistent campaign stores (default ".")
//   GPF_COORD_ADDR        gpfd coordinator host:port (default 127.0.0.1:9777)
//   GPF_LEASE_MS          coordinator lease duration in ms (default 10000)
//   GPF_WORKER_BACKOFF_MS worker reconnect backoff base in ms (default 500)
//   GPF_FSYNC             fdatasync stores at checkpoint boundaries: 1 | 0 (default 1)
//   GPF_METRICS           process-wide metrics registry: 1 | 0 (default 1)
//   GPF_TRACE             Chrome trace-event JSON output path (default off)
//   GPF_STATUS_MS         campaign progress-line period in ms (default 5000, 0 = off)
//   GPF_WAREHOUSE         compact stores into .gpfw warehouse segments: 1 | 0 (default 1)
//   GPF_HTTP_ADDR         gpfd HTTP/JSON endpoint host:port (default "" = off)
//
// Numeric knobs are parsed strictly: a value that is not entirely a number
// (e.g. GPF_THREADS=max) is rejected with a warning on stderr and the
// documented default is used — it never silently becomes 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace gpf {

/// Strictly parses `value` as an unsigned integer (decimal, or 0x/0-prefixed
/// hex/octal) into `out`. Leading/trailing whitespace is allowed; anything
/// else non-numeric — a leading minus sign, trailing garbage, an empty
/// string, or a value past 2^64-1 — rejects the whole value (returns false,
/// `out` untouched). The one numeric grammar for GPF_* knobs and CLI flags.
bool parse_u64(const char* value, unsigned long long& out);

/// parse_u64 for the contents of environment variable `var`: a rejected
/// value prints a warning naming `var` on stderr and returns `fallback`.
/// `value == nullptr` (unset variable) returns `fallback` silently.
unsigned long long parse_env_u64(const char* var, const char* value,
                                 unsigned long long fallback);

/// Same contract as parse_env_u64 for floating-point knobs (strtod grammar;
/// non-finite results are rejected too).
double parse_env_double(const char* var, const char* value, double fallback);

/// GPF_SCALE environment variable as a multiplier (default 1.0, min 0.01).
double campaign_scale();

/// n scaled by campaign_scale(), clamped to [min_n, n].
std::size_t scaled(std::size_t n, std::size_t min_n = 8);

/// GPF_SEED environment variable (default 0xC0FFEE).
unsigned long long campaign_seed();

/// Gate-campaign fault-simulation engine (see gate/replay.hpp). Selected per
/// process by GPF_ENGINE. The values are persisted in store headers: 1 was a
/// retired event-driven engine and stays unassigned.
enum class EngineKind : std::uint8_t {
  Brute = 0,  ///< scalar resimulation of every (fault, cycle): the reference
  Batch = 2,  ///< bit-parallel (PPSFP) word simulation, 64-512 lanes (GPF_SIMD)
};
const char* engine_name(EngineKind e);

/// Parses a GPF_ENGINE value: "brute" | "batch". Unset or empty means batch
/// silently; anything else (including the retired "event") warns on stderr
/// and means batch.
EngineKind parse_engine_env(const char* value);

/// GPF_ENGINE environment variable through parse_engine_env (default batch,
/// the fast engine; both engines classify identically).
EngineKind campaign_engine();

/// GPF_COLLAPSE environment variable: when on (the default), gate campaigns
/// simulate one representative per structural stuck-at equivalence class
/// (see gate/collapse.hpp) and expand results to the full per-fault record
/// stream — stores and exports stay byte-identical to an uncollapsed run.
/// "0" / "off" / "false" / "no" disable.
bool collapse_enabled();

/// GPF_CONE environment variable: when on (the default), the batch engine
/// word-evaluates only the union fanout cone of each fault batch and copies
/// golden values into out-of-cone nets. Same off-spellings as GPF_COLLAPSE.
bool cone_enabled();

/// Process-wide overrides for the two knobs above (tests toggle them without
/// re-execing): -1 = defer to the environment, 0 = off, 1 = on.
void set_collapse_override(int v);
void set_cone_override(int v);

/// Batch-engine SIMD path requested via GPF_SIMD (default native = widest
/// the CPU supports). The request is resolved against the build's compiled
/// widths and cpuid by gate::batch_lane_width().
enum class SimdKind : std::uint8_t {
  Native,  ///< widest path this build and CPU support (the default)
  Scalar,  ///< 64-lane uint64_t baseline
  Avx2,    ///< 256-lane AVX2 ymm path
  Avx512,  ///< 512-lane AVX-512 zmm path
};
const char* simd_name(SimdKind k);

/// GPF_SIMD environment variable: "native" | "scalar" | "avx2" | "avx512"
/// (default native). Unrecognized values warn on stderr and mean native.
SimdKind simd_request();

/// GPF_LANES environment variable: an exact batch lane width (64, 256 or
/// 512). 0 / unset defers to GPF_SIMD. Takes precedence over GPF_SIMD when
/// both are set; other values warn on stderr and mean 0.
std::size_t lanes_request();

/// GPF_THREADS environment variable: worker count for campaign thread pools
/// (0 = one per hardware thread). A process-wide override (the `--jobs N`
/// flag of gpfctl/gpfd) takes precedence over the environment.
std::size_t campaign_threads();

/// Overrides GPF_THREADS for the rest of the process (0 = clear the
/// override and fall back to the environment). Backs the `--jobs N` flag so
/// one invocation can size its pools without touching the environment.
void set_campaign_threads_override(std::size_t n);

/// GPF_STORE_DIR environment variable: where `gpfctl` and the checkpointed
/// campaign drivers place their .gpfs result logs (default ".").
std::string store_dir();

/// GPF_COORD_ADDR environment variable: the gpfd coordinator address a
/// worker connects to, as "host:port" (default "127.0.0.1:9777").
std::string coord_addr();

/// GPF_LEASE_MS environment variable: how long a leased work unit stays
/// assigned to a worker without a heartbeat/result before the coordinator
/// reassigns it (default 10000, min 50).
std::uint32_t lease_duration_ms();

/// GPF_WORKER_BACKOFF_MS environment variable: base delay of the worker's
/// exponential reconnect backoff (doubles per failed attempt, capped at
/// 64x; default 500, min 1).
std::uint32_t worker_backoff_ms();

/// GPF_FSYNC environment variable: when on (the default), the campaign store
/// issues fdatasync at checkpoint/lease-retire boundaries so acknowledged
/// work survives a host crash or power loss, not just a process kill. Same
/// off-spellings as GPF_COLLAPSE. Override: -1 = defer to environment.
bool fsync_enabled();
void set_fsync_override(int v);

/// GPF_METRICS environment variable: when on (the default), the process-wide
/// obs:: metrics registry records counters/gauges/histograms on the hot
/// paths; when off every record call is a single relaxed load + untaken
/// branch. Override: -1 = defer to environment (benches toggle this to
/// measure instrumentation overhead in one process).
bool metrics_enabled();
void set_metrics_override(int v);

/// GPF_TRACE environment variable: path of a Chrome trace-event JSON file to
/// write campaign -> unit -> batch spans into (viewable in chrome://tracing
/// or Perfetto). Empty string (the default) disables tracing.
std::string trace_path();

/// GPF_STATUS_MS environment variable: how often the single-process campaign
/// drivers print a progress/ETA line (default 5000 ms, 0 = off). The gpfd
/// coordinator's equivalent is its --status-ms flag.
std::uint32_t status_interval_ms();

/// GPF_WAREHOUSE environment variable: when on (the default), gpfctl
/// run/resume and gpfd roll the campaign store into its columnar warehouse
/// segment (<store>.gpfw) at campaign end, and gpfd's HTTP /v1/query
/// refreshes it incrementally on each request — `gpfctl query` and
/// /v1/query answer from its pre-aggregated rollups in O(ms). Same
/// off-spellings as GPF_COLLAPSE. Override: -1 = defer to environment.
bool warehouse_enabled();
void set_warehouse_override(int v);

/// GPF_HTTP_ADDR environment variable: "host:port" of gpfd's HTTP/1.1 JSON
/// endpoint (GET /v1/stats, /v1/query). Empty string (the default) disables
/// it; the gpfd --http flag overrides.
std::string http_addr();

/// Print every GPF_* knob with its effective value and whether it came from
/// the environment or a default. Campaign entry points call this once at
/// start so logs record the exact configuration.
void dump_env(std::ostream& os);

}  // namespace gpf
