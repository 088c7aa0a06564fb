#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fault_plan.h"
#include "cluster/replica_set.h"
#include "data/datasets.h"
#include "forecast/classical.h"
#include "forecast/llmtime_forecaster.h"
#include "forecast/multicast_forecaster.h"
#include "lm/paged_store.h"
#include "lm/prefix_cache.h"
#include "lm/profiles.h"
#include "mirror.h"
#include "serve/executor.h"
#include "serve/trace.h"
#include "stats.h"
#include "ts/stats.h"
#include "util/metrics.h"
#include "util/random.h"

namespace perfbench {

namespace mc = multicast;
using mc::Result;
using mc::Status;
using mc::forecast::ForecastResult;

namespace {

// ---------------------------------------------------------------------
// Shared helpers.

// Set-up is repeated and its median reported, so one slow repetition
// does not move setup_s.
constexpr int kSetupRepeats = 21;

const char* const kDatasets[] = {"GasRate", "Electricity", "Weather"};

// Per-layer metrics, in the order the traced run prints them. Every
// workload reports all of them; a layer a workload never reaches reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const auto* units =
      new std::vector<std::pair<std::string, std::string>>{
          {"lm.decode_ns_per_token", "ns"},
          {"lm.decode_tokens", "tok/forecast"},
          {"lm.prefill_ns_per_token", "ns"},
          {"lm.prefill_tokens", "tok/forecast"},
          {"lm.fork_us", "us"},
          {"prefix_cache.hit_rate", "ratio"},
          {"prefix_cache.reused_token_frac", "ratio"},
          {"prefix_cache.evictions", "count/forecast"},
          {"prefix_cache.bytes", "bytes"},
          {"lm.mem.bytes_per_session", "bytes"},
          {"lm.mem.blocks_peak", "count"},
          {"scale.fit_us", "us"},
          {"scale.descale_us", "us"},
          {"sax.encode_us", "us"},
          {"sax.decode_us", "us"},
          {"multiplex.mux_us", "us"},
          {"multiplex.demux_us", "us"},
          {"token.encode_us", "us"},
          {"token.decode_us", "us"},
          {"forecast.aggregate_us", "us"},
          {"forecast.self_share", "ratio"},
          {"batch.steps", "count/run"},
          {"batch.mean_batch", "count"},
          {"batch.preemptions", "count/run"},
          {"batch.step_us_p50", "us"},
          {"serve.overhead_ms_per_request", "ms"},
          {"serve.queue_wait_s_p99", "s"},
          {"serve.shed_frac", "ratio"},
          {"serve.demoted_frac", "ratio"},
          {"cluster.failovers", "count/run"},
          {"cluster.redispatched_draws", "count/run"},
          {"cluster.prefix_hit_rate", "ratio"},
          {"metrics.export_ms", "ms"},
          {"trace.overhead_frac", "ratio"},
      };
  return *units;
}

// Per-layer values by name; Emit() turns them into the fixed metric list.
class LayerValues {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  std::vector<Metric> Emit() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : LayerMetricUnits()) {
      auto it = values_.find(name);
      out.push_back({name, it == values_.end() ? 0.0 : it->second, unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

uint64_t SeedMix(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

bool FiniteFrame(const mc::ts::Frame& frame, size_t dims, size_t horizon) {
  if (frame.num_dims() != dims) return false;
  for (size_t d = 0; d < dims; ++d) {
    if (frame.dim(d).values().size() != horizon) return false;
    for (double v : frame.dim(d).values()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

// Full shape and finite values for the forecast and every band.
bool WellFormed(const ForecastResult& r, size_t dims, size_t horizon) {
  if (!FiniteFrame(r.forecast, dims, horizon)) return false;
  for (const auto& [level, band] : r.quantile_bands) {
    if (!(level > 0.0 && level < 1.0)) return false;
    if (!FiniteFrame(band, dims, horizon)) return false;
  }
  return true;
}

void DigestFrame(Fnv1a* h, const mc::ts::Frame& frame) {
  h->AddU64(frame.num_dims());
  for (size_t d = 0; d < frame.num_dims(); ++d) {
    h->AddU64(frame.dim(d).values().size());
    for (double v : frame.dim(d).values()) h->AddDouble(v);
  }
}

void DigestResult(Fnv1a* h, const ForecastResult& r) {
  DigestFrame(h, r.forecast);
  h->AddU64(r.quantile_bands.size());
  for (const auto& [level, band] : r.quantile_bands) {
    h->AddDouble(level);
    DigestFrame(h, band);
  }
}

uint64_t ResultDigest(const ForecastResult& r) {
  Fnv1a h;
  DigestResult(&h, r);
  return h.value();
}

// RMSE of each dimension over the held-out horizon divided by that
// dimension's standard deviation over the history, averaged over
// dimensions.
double NormRmse(const mc::ts::Frame& forecast, const mc::ts::Frame& truth,
                const mc::ts::Frame& history) {
  double sum = 0.0;
  for (size_t d = 0; d < truth.num_dims(); ++d) {
    const std::vector<double>& f = forecast.dim(d).values();
    const std::vector<double>& y = truth.dim(d).values();
    double se = 0.0;
    for (size_t t = 0; t < y.size(); ++t) se += (f[t] - y[t]) * (f[t] - y[t]);
    const double rmse = std::sqrt(se / static_cast<double>(y.size()));
    const double sd = std::sqrt(mc::ts::Variance(history.dim(d).values()));
    sum += rmse / (sd > 0.0 ? sd : 1.0);
  }
  return sum / static_cast<double>(truth.num_dims());
}

struct Split {
  mc::ts::Frame history;
  mc::ts::Frame truth;
};

Result<Split> SplitAt(const mc::ts::Frame& frame, size_t history_length,
                      size_t horizon) {
  Split s;
  MC_ASSIGN_OR_RETURN(s.history, frame.Slice(0, history_length));
  MC_ASSIGN_OR_RETURN(s.truth,
                      frame.Slice(history_length, history_length + horizon));
  return s;
}

// Runs `setup` kSetupRepeats times and keeps the last instance; the
// median set-up time goes to `setup_s`.
template <typename T>
Result<T> RepeatSetup(const std::function<Result<T>()>& setup,
                      double* setup_s) {
  std::vector<double> times;
  Result<T> last = Status::Internal("set-up never ran");
  for (int i = 0; i < kSetupRepeats; ++i) {
    last = Status::Internal("set-up replaced");  // free the previous one
    const int64_t t0 = NowNs();
    last = setup();
    times.push_back(Seconds(NowNs() - t0));
    if (!last.ok()) return last.status();
  }
  *setup_s = Median(times);
  return last;
}

void Problem(RunResult* out, const std::string& what) {
  out->correct = false;
  if (out->problems.size() < 20) out->problems.push_back(what);
}

void PrintTail(const char* workload, const Tail& tail) {
  std::printf(
      "%s: latency_ms_tail is p%g over %zu samples (%zu beyond it)\n",
      workload, tail.percentile, tail.samples, tail.beyond);
}

// Cache and pool layer values, summed over every distinct instance;
// returns the summed cache counters.
mc::lm::PrefixCacheStats SetCacheAndPoolLayers(
    const std::vector<std::shared_ptr<mc::lm::PrefixCache>>& caches,
    const std::vector<std::shared_ptr<mc::lm::BlockPool>>& pools,
    size_t forecasts, LayerValues* layers) {
  mc::lm::PrefixCacheStats cs;
  double bytes = 0.0;
  for (const auto& cache : caches) {
    cs += cache->stats();
    bytes += static_cast<double>(cache->bytes());
  }
  if (cs.lookups > 0) {
    layers->Set("prefix_cache.hit_rate", static_cast<double>(cs.hits()) /
                                             static_cast<double>(cs.lookups));
  }
  if (cs.prompt_tokens_seen > 0) {
    layers->Set("prefix_cache.reused_token_frac",
                static_cast<double>(cs.prompt_tokens_reused) /
                    static_cast<double>(cs.prompt_tokens_seen));
  }
  if (forecasts > 0) {
    layers->Set("prefix_cache.evictions", static_cast<double>(cs.evictions) /
                                              static_cast<double>(forecasts));
  }
  layers->Set("prefix_cache.bytes", bytes);
  size_t sessions = 0, overlay = 0, blocks_peak = 0;
  for (const auto& pool : pools) {
    const mc::lm::BlockPoolStats ps = pool->stats();
    sessions += ps.sessions;
    overlay += ps.session_overlay_bytes;
    blocks_peak += ps.blocks_peak;
  }
  if (sessions > 0) {
    layers->Set("lm.mem.bytes_per_session", static_cast<double>(overlay) /
                                                static_cast<double>(sessions));
  }
  layers->Set("lm.mem.blocks_peak", static_cast<double>(blocks_peak));
  return cs;
}

double PerToken(int64_t ns, size_t tokens) {
  return tokens > 0 ? static_cast<double>(ns) / static_cast<double>(tokens)
                    : 0.0;
}

// Mirrored stage costs as per-forecast layer values.
void SetStageLayers(const StageTimes& st, LayerValues* layers) {
  if (st.forecasts == 0) return;
  const double n = static_cast<double>(st.forecasts);
  auto us = [&](Stage s) { return static_cast<double>(st.ns[s]) / 1e3 / n; };
  layers->Set("lm.decode_ns_per_token",
              PerToken(st.ns[kDecode], st.decode_tokens));
  layers->Set("lm.prefill_ns_per_token",
              PerToken(st.ns[kPrefill], st.prefill_tokens));
  layers->Set("lm.fork_us", PerToken(st.ns[kFork], st.forks) / 1e3);
  layers->Set("lm.decode_tokens", static_cast<double>(st.decode_tokens) / n);
  layers->Set("lm.prefill_tokens", static_cast<double>(st.prefill_tokens) / n);
  layers->Set("scale.fit_us", us(kScaleFit));
  layers->Set("scale.descale_us", us(kScaleDescale));
  layers->Set("sax.encode_us", us(kSaxEncode));
  layers->Set("sax.decode_us", us(kSaxDecode));
  layers->Set("multiplex.mux_us", us(kMux));
  layers->Set("multiplex.demux_us", us(kDemux));
  layers->Set("token.encode_us", us(kTokenEncode));
  layers->Set("token.decode_us", us(kTokenDecode));
  layers->Set("forecast.aggregate_us", us(kAggregate));
}

// The per-stage share table of a traced run: milliseconds per forecast
// and share of Forecast() wall time per mirrored stage, the remainder
// as Forecast()'s own time, with rmse_norm beside it.
void PrintStageTable(const char* workload, const StageTimes& st,
                     int64_t forecast_ns, double rmse_norm) {
  if (st.forecasts == 0 || forecast_ns <= 0) return;
  const double n = static_cast<double>(st.forecasts);
  const double wall = static_cast<double>(forecast_ns);
  std::printf("\n%s: %zu mirrored forecasts, Forecast() %.3f ms each, "
              "rmse_norm %.4f\n",
              workload, st.forecasts, wall / 1e6 / n, rmse_norm);
  std::printf("| %-20s | %12s | %7s |\n", "stage", "ms/forecast", "share");
  std::printf("|%s|%s|%s|\n", std::string(22, '-').c_str(),
              std::string(14, '-').c_str(), std::string(9, '-').c_str());
  for (int s = 0; s < kNumStages; ++s) {
    std::printf("| %-20s | %12.4f | %6.1f%% |\n", StageName(s),
                static_cast<double>(st.ns[s]) / 1e6 / n,
                100.0 * static_cast<double>(st.ns[s]) / wall);
  }
  const double self = wall - static_cast<double>(st.total_ns());
  std::printf("| %-20s | %12.4f | %6.1f%% |\n", "forecast.self",
              self / 1e6 / n, 100.0 * self / wall);
  std::printf("%s: prefill %.1f ns/token over %zu tokens; decode %.1f "
              "ns/token over %zu tokens\n\n",
              workload, PerToken(st.ns[kPrefill], st.prefill_tokens),
              st.prefill_tokens, PerToken(st.ns[kDecode], st.decode_tokens),
              st.decode_tokens);
}

// Median of five timed WriteMetricsJson calls of `sections`.
double TimeMetricsExport(
    const std::string& path,
    const std::vector<std::pair<std::string, mc::util::MetricsSnapshot>>&
        sections,
    RunResult* out) {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const int64_t t0 = NowNs();
    Status s = mc::util::WriteMetricsJson(path, sections);
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!s.ok()) {
      Problem(out, "metrics export failed: " + s.ToString());
      break;
    }
  }
  return Median(ms);
}

// ---------------------------------------------------------------------
// Offline closed-loop workloads: decode_heavy and prefill_heavy.

struct Cell {
  std::string name;
  bool llmtime = false;
  // Options the mirror replays, with the mirror's own cache and pool so
  // the forecaster's counters see only the forecaster.
  mc::forecast::MultiCastOptions mc;
  mc::forecast::LlmTimeOptions lt;
  std::unique_ptr<mc::forecast::Forecaster> forecaster;
  std::shared_ptr<mc::lm::PrefixCache> mirror_cache;
};

struct Job {
  size_t cell = 0;
  size_t frame = 0;
};

struct Offline {
  size_t horizon = 0;
  std::vector<mc::ts::Frame> histories;
  std::vector<mc::ts::Frame> truths;
  std::vector<Cell> cells;
  std::vector<Job> jobs;
  // The forecasters' caches and pools, each listed once.
  std::vector<std::shared_ptr<mc::lm::PrefixCache>> caches;
  std::vector<std::shared_ptr<mc::lm::BlockPool>> pools;
};

std::shared_ptr<mc::lm::BlockPool> PagedPool() {
  mc::lm::PagedMemoryOptions paged;
  paged.enabled = true;
  return std::make_shared<mc::lm::BlockPool>(paged);
}

// A MultiCast cell; `pool` and `mirror_pool` are both null or both set.
Cell MultiCastCell(std::string name, mc::forecast::MultiCastOptions options,
                   std::shared_ptr<mc::lm::PrefixCache> cache,
                   std::shared_ptr<mc::lm::PrefixCache> mirror_cache,
                   std::shared_ptr<mc::lm::BlockPool> pool,
                   std::shared_ptr<mc::lm::BlockPool> mirror_pool) {
  Cell cell;
  cell.name = std::move(name);
  cell.mc = options;
  cell.mc.block_pool = std::move(mirror_pool);
  options.shared_prefix_cache = std::move(cache);
  options.block_pool = std::move(pool);
  cell.forecaster = std::make_unique<mc::forecast::MultiCastForecaster>(options);
  cell.mirror_cache = std::move(mirror_cache);
  return cell;
}

// Rolling-origin forecasts over expanding histories: two series of
// each dataset x {DI, VI, VC, LLMTime}, llama2, b = 2, h = 48, n = 32,
// one forecaster (and prefix cache) per method x series kept across
// origins. Default (plain) model storage, as the CLI's forecast
// command runs.
Result<Offline> SetupDecodeHeavy(uint64_t seed) {
  constexpr size_t kHorizon = 48;
  constexpr int kSamples = 32;
  constexpr size_t kOrigins = 3;
  constexpr size_t kSeries = 6;  // two per dataset
  constexpr size_t kOriginStep = 8;
  const mc::multiplex::MuxKind kMuxes[] = {
      mc::multiplex::MuxKind::kDigitInterleave,
      mc::multiplex::MuxKind::kValueInterleave,
      mc::multiplex::MuxKind::kValueConcat};
  Offline w;
  w.horizon = kHorizon;
  for (size_t ds = 0; ds < kSeries; ++ds) {
    MC_ASSIGN_OR_RETURN(
        mc::ts::Frame frame,
        mc::data::LoadDataset(kDatasets[ds % 3], SeedMix(seed, ds)));
    for (size_t k = 0; k < kOrigins; ++k) {
      const size_t length =
          frame.length() - kHorizon - (kOrigins - 1 - k) * kOriginStep;
      MC_ASSIGN_OR_RETURN(Split s, SplitAt(frame, length, kHorizon));
      w.histories.push_back(std::move(s.history));
      w.truths.push_back(std::move(s.truth));
    }
    for (size_t m = 0; m < 4; ++m) {
      auto cache = std::make_shared<mc::lm::PrefixCache>();
      w.caches.push_back(cache);
      const uint64_t cell_seed = SeedMix(seed, 100 + 4 * ds + m);
      if (m < 3) {
        mc::forecast::MultiCastOptions o;
        o.mux = kMuxes[m];
        o.digits = 2;
        o.num_samples = kSamples;
        o.profile = mc::lm::ModelProfile::Llama2_7B();
        o.seed = cell_seed;
        o.quantiles = {0.1, 0.9};
        o.threads = 1;
        w.cells.push_back(MultiCastCell(
            frame.name() + std::to_string(ds) + "/" +
                mc::multiplex::MuxKindName(o.mux),
            o, cache, std::make_shared<mc::lm::PrefixCache>(), nullptr,
            nullptr));
      } else {
        Cell cell;
        cell.name = frame.name() + std::to_string(ds) + "/LLMTIME";
        cell.llmtime = true;
        cell.lt.digits = 2;
        cell.lt.num_samples = kSamples;
        cell.lt.profile = mc::lm::ModelProfile::Llama2_7B();
        cell.lt.seed = cell_seed;
        cell.lt.threads = 1;
        mc::forecast::LlmTimeOptions o = cell.lt;
        o.shared_prefix_cache = cache;
        cell.forecaster = std::make_unique<mc::forecast::LlmTimeForecaster>(o);
        cell.mirror_cache = std::make_shared<mc::lm::PrefixCache>();
        w.cells.push_back(std::move(cell));
      }
    }
  }
  // Origins advance together: every cell sees origin k before k + 1.
  for (size_t k = 0; k < kOrigins; ++k) {
    for (size_t ds = 0; ds < kSeries; ++ds) {
      for (size_t m = 0; m < 4; ++m) {
        w.jobs.push_back({4 * ds + m, ds * kOrigins + k});
      }
    }
  }
  return w;
}

// Distinct full-length series (a fresh generator seed per request),
// h = 4, n = 5; llama2 and ctw profiles x the three multiplexers, all
// on one shared prefix cache at default capacity and one paged block
// pool. The request pool is larger than the cache, so cycling through
// it never hits across requests.
Result<Offline> SetupPrefillHeavy(uint64_t seed) {
  constexpr size_t kHorizon = 4;
  constexpr size_t kRequests = 324;  // 6 cells x 3 datasets x 18
  const mc::multiplex::MuxKind kMuxes[] = {
      mc::multiplex::MuxKind::kDigitInterleave,
      mc::multiplex::MuxKind::kValueInterleave,
      mc::multiplex::MuxKind::kValueConcat};
  Offline w;
  w.horizon = kHorizon;
  auto cache = std::make_shared<mc::lm::PrefixCache>();
  auto mirror_cache = std::make_shared<mc::lm::PrefixCache>();
  auto pool = PagedPool();
  auto mirror_pool = PagedPool();
  w.caches.push_back(cache);
  w.pools.push_back(pool);
  for (size_t p = 0; p < 2; ++p) {
    for (size_t m = 0; m < 3; ++m) {
      mc::forecast::MultiCastOptions o;
      o.mux = kMuxes[m];
      o.digits = 2;
      o.num_samples = 5;
      o.profile = p == 0 ? mc::lm::ModelProfile::Llama2_7B()
                         : mc::lm::ModelProfile::CtwMixture();
      o.seed = SeedMix(seed, 200 + 3 * p + m);
      o.quantiles = {0.1, 0.9};
      w.cells.push_back(MultiCastCell(
          o.profile.name + "/" + mc::multiplex::MuxKindName(o.mux), o, cache,
          mirror_cache, pool, mirror_pool));
    }
  }
  for (size_t i = 0; i < kRequests; ++i) {
    const size_t ds = i % 3;
    MC_ASSIGN_OR_RETURN(
        mc::ts::Frame frame,
        mc::data::LoadDataset(kDatasets[ds], SeedMix(seed, 1000 + i)));
    MC_ASSIGN_OR_RETURN(Split s,
                        SplitAt(frame, frame.length() - kHorizon, kHorizon));
    w.histories.push_back(std::move(s.history));
    w.truths.push_back(std::move(s.truth));
    w.jobs.push_back({(i / 3) % w.cells.size(), i});
  }
  return w;
}

RunResult RunOffline(const RunOptions& opt,
                     const std::function<Result<Offline>()>& setup) {
  RunResult out;
  double setup_s = 0.0;
  Result<Offline> w_or = RepeatSetup<Offline>(setup, &setup_s);
  if (!w_or.ok()) {
    Problem(&out, "set-up failed: " + w_or.status().ToString());
    return out;
  }
  Offline w = std::move(w_or).value();
  const char* name = opt.workload.c_str();

  std::vector<double> latency_ms;
  uint64_t first_digest = 0;
  double rmse_sum = 0.0;
  size_t rmse_count = 0, ok = 0, generated = 0;
  // Traced run only: mirrored stage costs against Forecast() wall time.
  StageTimes stages;
  int64_t forecast_ns = 0, mirror_ns = 0;
  int passes = 0;
  std::vector<double> pass_s;
  const int64_t start = NowNs();
  int64_t pass_start = start;
  // Whole passes over the job list, so every run forecasts every job
  // the same number of times per pass and the pass digests compare.
  do {
    Fnv1a digest;
    for (size_t j = 0; j < w.jobs.size(); ++j) {
      const Job& job = w.jobs[j];
      Cell& cell = w.cells[job.cell];
      const mc::ts::Frame& history = w.histories[job.frame];
      StageTimes st;
      Result<ForecastResult> m = Status::Internal("not mirrored");
      int64_t mirror_call_ns = 0;
      auto mirror = [&] {
        const int64_t m0 = NowNs();
        m = cell.llmtime ? MirrorLlmTime(cell.lt, history, w.horizon,
                                         cell.mirror_cache, &st)
                         : MirrorMultiCast(cell.mc, history, w.horizon,
                                           cell.mirror_cache, &st);
        mirror_call_ns = NowNs() - m0;
      };
      // The second of two runs of the same work finds warmer CPU
      // caches, so the traced run alternates which goes first.
      const bool mirror_first = opt.trace && (j + passes) % 2 == 1;
      if (mirror_first) mirror();
      ++out.attempted;
      const int64_t t0 = NowNs();
      Result<ForecastResult> r = cell.forecaster->Forecast(history, w.horizon);
      const int64_t t1 = NowNs();
      latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      if (opt.trace && !mirror_first) mirror();
      if (!r.ok()) {
        ++out.failed;
        Problem(&out, cell.name + ": " + r.status().ToString());
        continue;
      }
      const ForecastResult& fr = r.value();
      if (!WellFormed(fr, history.num_dims(), w.horizon)) {
        ++out.failed;
        Problem(&out, cell.name + ": malformed forecast");
        continue;
      }
      ++ok;
      generated += fr.ledger.generated_tokens;
      DigestResult(&digest, fr);
      if (passes == 0) {
        rmse_sum += NormRmse(fr.forecast, w.truths[job.frame], history);
        ++rmse_count;
      }
      if (!opt.trace) continue;
      mirror_ns += mirror_call_ns;
      forecast_ns += t1 - t0;
      stages += st;
      if (!m.ok()) {
        Problem(&out, cell.name + ": mirror failed: " + m.status().ToString());
      } else if (ResultDigest(m.value()) != ResultDigest(fr)) {
        Problem(&out, cell.name + ": mirrored pipeline diverged from Forecast()");
      } else if (st.ledger_prompt_tokens != fr.ledger.prompt_tokens ||
                 st.decode_tokens != fr.ledger.generated_tokens) {
        Problem(&out, cell.name + ": mirrored token counts differ from the ledger");
      }
    }
    if (passes == 0) {
      first_digest = digest.value();
    } else if (digest.value() != first_digest) {
      Problem(&out, "pass " + std::to_string(passes) +
                        " forecasts differ from the first pass");
    }
    ++passes;
    const int64_t pass_end = NowNs();
    pass_s.push_back(Seconds(pass_end - pass_start));
    pass_start = pass_end;
  } while (Seconds(NowNs() - start) < opt.seconds);
  const double elapsed = Seconds(NowNs() - start);
  std::string pass_list;
  for (double s : pass_s) pass_list += " " + std::to_string(s);
  std::printf("%s: pass seconds%s\n", name, pass_list.c_str());
  const double rmse_norm = rmse_count > 0 ? rmse_sum / rmse_count : 0.0;

  std::printf("%s: %d passes of %zu forecasts in %.2f s, digest %016" PRIx64
              "\n",
              name, passes, w.jobs.size(), elapsed, first_digest);
  if (!opt.trace) {
    const Tail tail = TailPercentile(latency_ms);
    PrintTail(name, tail);
    out.metrics = {
        {"setup_s", setup_s, "s"},
        {"forecasts_per_s", static_cast<double>(ok) / elapsed, "1/s"},
        {"latency_ms_p50", Median(latency_ms), "ms"},
        {"latency_ms_tail", tail.value, "ms"},
        {"gen_tokens_per_s", static_cast<double>(generated) / elapsed, "tok/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"rmse_norm", rmse_norm, "ratio"},
        {"goodput", static_cast<double>(ok) / out.attempted, "ratio"},
    };
    return out;
  }

  PrintStageTable(name, stages, forecast_ns, rmse_norm);
  LayerValues layers;
  SetStageLayers(stages, &layers);
  SetCacheAndPoolLayers(w.caches, w.pools, ok, &layers);
  if (forecast_ns > 0) {
    layers.Set("forecast.self_share",
               static_cast<double>(forecast_ns - stages.total_ns()) /
                   static_cast<double>(forecast_ns));
    layers.Set("trace.overhead_frac",
               static_cast<double>(mirror_ns - forecast_ns) /
                   static_cast<double>(forecast_ns));
  }
  mc::util::MetricsRegistry registry;
  for (size_t i = 0; i < w.caches.size(); ++i) {
    w.caches[i]->PublishMetrics(&registry,
                                "prefix_cache" + std::to_string(i) + ".");
  }
  for (size_t i = 0; i < w.pools.size(); ++i) {
    w.pools[i]->PublishMetrics(&registry, "lm.mem" + std::to_string(i) + ".");
  }
  layers.Set("metrics.export_ms",
             TimeMetricsExport(opt.out_dir + "/perfbench_" + opt.workload +
                                   "_metrics.json",
                               {{opt.workload, registry.Snapshot()}}, &out));
  out.metrics = layers.Emit();
  return out;
}

// ---------------------------------------------------------------------
// serve_overload: an open-loop Poisson-burst trace above fleet capacity
// through a 3-replica cluster with every serving layer switched on.

constexpr size_t kServeKeys = 48;
constexpr size_t kServeHorizon = 6;
constexpr int kServeSamples = 5;
constexpr int kServeReducedSamples = 2;
constexpr size_t kServeReplicas = 3;
constexpr size_t kServeSlots = 4;

// One Forecast() call made by the fleet, timed from outside.
struct ForecastCall {
  size_t request = 0;
  Span span;
};

// Wall-clock probes of one fleet; filled while it runs.
struct ServeProbe {
  std::vector<ForecastCall> calls;
  // Per replica: on_step timestamps of its batch scheduler (traced
  // fleet only).
  std::vector<std::vector<int64_t>> steps;
};

// Times every Forecast() call of the factory-built pipeline it wraps.
class TimedForecaster final : public mc::forecast::Forecaster {
 public:
  TimedForecaster(std::unique_ptr<mc::forecast::Forecaster> inner,
                  size_t request, std::vector<ForecastCall>* calls)
      : inner_(std::move(inner)), request_(request), calls_(calls) {}

  std::string name() const override { return inner_->name(); }

  using Forecaster::Forecast;
  Result<ForecastResult> Forecast(const mc::ts::Frame& history, size_t horizon,
                                  const mc::RequestContext& ctx) override {
    ForecastCall call;
    call.request = request_;
    call.span.start_ns = NowNs();
    Result<ForecastResult> r = inner_->Forecast(history, horizon, ctx);
    call.span.end_ns = NowNs();
    calls_->push_back(call);
    return r;
  }

 private:
  std::unique_ptr<mc::forecast::Forecaster> inner_;
  size_t request_;
  std::vector<ForecastCall>* calls_;
};

struct ServeInputs {
  uint64_t seed = 0;
  std::vector<mc::ts::Frame> histories;  // per session key
  std::vector<mc::ts::Frame> truths;
  std::vector<bool> sax;                 // per session key
  std::vector<mc::serve::ForecastRequest> requests;
  std::vector<mc::cluster::ReplicaFaultPlan> plans;
};

// The clean pipeline a request gets at an LLM tier; the factory adds
// the faults and the replica's cache, scheduler and pool.
mc::forecast::MultiCastOptions ServeLlmOptions(
    const ServeInputs& in, const mc::serve::ForecastRequest& req) {
  mc::forecast::MultiCastOptions o;
  o.mux = mc::multiplex::MuxKind::kValueInterleave;
  o.digits = 2;
  o.num_samples = req.tier == mc::serve::ServiceTier::kLlmReduced
                      ? kServeReducedSamples
                      : kServeSamples;
  if (in.sax[req.session_key]) {
    o.quantization = mc::forecast::Quantization::kSaxAlphabetic;
  }
  o.seed = SeedMix(in.seed, 5000 + req.id);
  o.quantiles = {0.1, 0.9};
  o.threads = 1;
  return o;
}

struct Fleet {
  std::unique_ptr<ServeProbe> probe;
  std::unique_ptr<mc::util::MetricsRegistry> registry;
  std::unique_ptr<mc::cluster::ClusterExecutor> executor;
};

Fleet MakeFleet(const ServeInputs& in, bool traced) {
  Fleet f;
  f.probe = std::make_unique<ServeProbe>();
  f.probe->steps.resize(kServeReplicas);
  f.registry = std::make_unique<mc::util::MetricsRegistry>();
  std::vector<mc::cluster::Replica> fleet;
  for (size_t r = 0; r < kServeReplicas; ++r) {
    mc::cluster::Replica rep;
    rep.id = static_cast<int>(r);
    rep.slots = kServeSlots;
    rep.prefix_cache = std::make_shared<mc::lm::PrefixCache>();
    mc::batch::BatchPolicy policy;  // default: 8 slots, continuous backfill
    if (traced) {
      std::vector<int64_t>* steps = &f.probe->steps[r];
      policy.on_step = [steps](size_t) { steps->push_back(NowNs()); };
    }
    rep.scheduler = std::make_shared<mc::batch::BatchScheduler>(policy);
    rep.block_pool = PagedPool();
    rep.plan = in.plans[r];
    fleet.push_back(std::move(rep));
  }
  mc::cluster::ClusterOptions options;
  options.queue.capacity = 32;
  options.queue.order = mc::serve::QueueOrder::kEarliestDeadlineFirst;
  options.router = mc::cluster::RouterPolicy::kAffinity;
  options.router_seed = SeedMix(in.seed, 41);
  options.overload.ladder.enabled = true;
  options.overload.ladder.reduced_samples = kServeReducedSamples;
  options.overload.aimd.enabled = true;
  options.metrics = f.registry.get();

  ServeProbe* probe = f.probe.get();
  const ServeInputs* inputs = &in;
  auto factory = [inputs, probe](const mc::serve::ForecastRequest& req,
                                 const mc::cluster::Replica& rep)
      -> std::unique_ptr<mc::forecast::Forecaster> {
    std::unique_ptr<mc::forecast::Forecaster> inner;
    if (req.tier == mc::serve::ServiceTier::kClassical) {
      mc::forecast::ClassicalOptions copts;
      copts.demotion_note = "overload ladder demoted request to classical";
      inner = std::make_unique<mc::forecast::ClassicalForecaster>(copts);
    } else {
      mc::forecast::MultiCastOptions o = ServeLlmOptions(*inputs, req);
      o.faults.latency_spike_rate = 0.1;
      o.faults.base_latency_seconds = 0.02;
      o.faults.spike_latency_seconds = 0.25;
      o.faults.seed = SeedMix(inputs->seed, 9000 + req.id);
      o.shared_prefix_cache = rep.prefix_cache;
      o.batch_scheduler = rep.scheduler;
      o.block_pool = rep.block_pool;
      inner = std::make_unique<mc::forecast::MultiCastForecaster>(o);
    }
    return std::make_unique<TimedForecaster>(std::move(inner), req.id,
                                             &probe->calls);
  };
  f.executor = std::make_unique<mc::cluster::ClusterExecutor>(
      factory, nullptr, std::move(fleet), options);
  return f;
}

Result<ServeInputs> SetupServeInputs(uint64_t seed) {
  ServeInputs in;
  in.seed = seed;
  for (size_t k = 0; k < kServeKeys; ++k) {
    MC_ASSIGN_OR_RETURN(
        mc::ts::Frame frame,
        mc::data::LoadDataset(kDatasets[k % 3], SeedMix(seed, 3000 + k)));
    MC_ASSIGN_OR_RETURN(
        Split s, SplitAt(frame, frame.length() - kServeHorizon, kServeHorizon));
    in.histories.push_back(std::move(s.history));
    in.truths.push_back(std::move(s.truth));
    in.sax.push_back(k >= kServeKeys / 2);
  }
  mc::serve::TraceOptions trace;
  trace.num_requests = 8000;
  trace.arrival_rate = 60.0;
  trace.burst_factor = 4.0;
  trace.burst_every_seconds = 4.0;
  trace.burst_duration_seconds = 1.0;
  trace.deadline_seconds = 1.5;
  trace.seed = SeedMix(seed, 51);
  const std::vector<mc::serve::Arrival> arrivals =
      mc::serve::GenerateTrace(trace);
  mc::Rng pick(SeedMix(seed, 52), 3);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    mc::serve::ForecastRequest req;
    req.id = i;
    req.arrival_seconds = arrivals[i].arrival_seconds;
    req.deadline_seconds = arrivals[i].deadline_seconds;
    req.session_key = pick.NextBounded(kServeKeys);
    req.history = &in.histories[req.session_key];
    req.horizon = kServeHorizon;
    req.slo = static_cast<mc::serve::SloClass>(pick.NextBounded(3));
    in.requests.push_back(req);
  }
  // Scripted crashes: three one-second outages per replica at seeded
  // instants, each in its own ninth of the trace, so every seed loses
  // the same capacity and at most one replica is down at a time.
  constexpr int kCrashesPerReplica = 3;
  const double span = arrivals.empty() ? 1.0 : arrivals.back().arrival_seconds;
  const double slot =
      span / static_cast<double>(kCrashesPerReplica * kServeReplicas);
  mc::Rng crash(SeedMix(seed, 53), 4);
  in.plans.resize(kServeReplicas);
  for (int c = 0; c < kCrashesPerReplica; ++c) {
    for (size_t r = 0; r < kServeReplicas; ++r) {
      const double from =
          slot * static_cast<double>(c * kServeReplicas + r) +
          crash.NextUniform(0.0, std::max(0.0, slot - 1.0));
      in.plans[r].crashes.push_back({from, from + 1.0});
    }
  }
  return in;
}

// What the checks and metrics need from one fleet run.
struct ServeRun {
  Span span;  // the Run() call
  uint64_t digest = 0;
  mc::serve::ServeSummary summary;
  std::vector<mc::serve::ServeStats> stats;
};

Result<ServeRun> RunFleetOnce(const ServeInputs& in, Fleet* fleet,
                              RunResult* out) {
  std::vector<mc::serve::ForecastRequest> requests = in.requests;
  fleet->probe->calls.clear();
  for (auto& steps : fleet->probe->steps) steps.clear();
  ServeRun run;
  run.span.start_ns = NowNs();
  MC_ASSIGN_OR_RETURN(run.stats, fleet->executor->Run(std::move(requests)));
  run.span.end_ns = NowNs();
  run.summary = mc::serve::Summarize(run.stats);
  const mc::serve::ServeSummary& s = run.summary;
  out->attempted += s.total;
  out->failed += s.failed;
  if (s.total != in.requests.size() ||
      s.total != s.served + s.served_degraded + s.shed_queue_full +
                     s.shed_expired + s.failed + s.cancelled_drain) {
    Problem(out, "offered != served + shed + expired + failed + cancelled");
  }
  Fnv1a digest;
  for (const mc::serve::ServeStats& st : run.stats) {
    if (st.outcome == mc::serve::RequestOutcome::kFailed) {
      std::printf("request %zu failed: %s\n", st.id,
                  st.status.ToString().c_str());
    }
    digest.AddU64(st.id);
    digest.AddU64(static_cast<uint64_t>(st.outcome));
    digest.AddU64(static_cast<uint64_t>(st.tier));
    if (st.result == nullptr) continue;
    const size_t dims =
        in.histories[in.requests[st.id].session_key].num_dims();
    if (!WellFormed(*st.result, dims, kServeHorizon)) {
      ++out->failed;
      Problem(out, "malformed served forecast for request " +
                       std::to_string(st.id));
    }
    DigestResult(&digest, *st.result);
  }
  run.digest = digest.value();
  return run;
}

bool IsServed(const mc::serve::ServeStats& st) {
  return st.outcome == mc::serve::RequestOutcome::kServed ||
         st.outcome == mc::serve::RequestOutcome::kServedDegraded;
}

// Replays the clean pipeline of every request `run` served at an LLM
// tier without incident (no warning, no failover) and checks it
// reproduces the served forecast; accumulates the mirrored stage costs
// and the served pipelines' Forecast() wall time in `forecast_ns`.
void MirrorServed(const ServeInputs& in, const ServeRun& run,
                  const std::vector<ForecastCall>& calls, StageTimes* stages,
                  int64_t* forecast_ns, RunResult* out) {
  std::vector<int64_t> call_ns(in.requests.size(), 0);
  for (const ForecastCall& c : calls) call_ns[c.request] += c.span.duration();
  auto cache = std::make_shared<mc::lm::PrefixCache>();
  auto pool = PagedPool();
  for (const mc::serve::ServeStats& st : run.stats) {
    if (!IsServed(st) || st.tier == mc::serve::ServiceTier::kClassical ||
        !st.result->warnings.empty() || st.cluster.failovers > 0) {
      continue;
    }
    mc::serve::ForecastRequest req = in.requests[st.id];
    req.tier = st.tier;
    StageTimes one;
    mc::forecast::MultiCastOptions options = ServeLlmOptions(in, req);
    options.block_pool = pool;
    Result<ForecastResult> m =
        MirrorMultiCast(options, *req.history, req.horizon, cache, &one);
    if (!m.ok()) {
      Problem(out, "serve mirror failed: " + m.status().ToString());
      continue;
    }
    if (ResultDigest(m.value()) != ResultDigest(*st.result)) {
      Problem(out, "request " + std::to_string(st.id) +
                       ": served forecast differs from the clean pipeline");
    }
    if (one.ledger_prompt_tokens != st.ledger.prompt_tokens ||
        one.decode_tokens != st.ledger.generated_tokens) {
      Problem(out, "request " + std::to_string(st.id) +
                       ": mirrored token counts differ from the ledger");
    }
    *stages += one;
    *forecast_ns += call_ns[st.id];
  }
}

RunResult RunServeOverload(const RunOptions& opt) {
  RunResult out;
  const char* name = opt.workload.c_str();
  struct Setup {
    std::unique_ptr<ServeInputs> inputs;
    Fleet plain;
    Fleet traced;
  };
  double setup_s = 0.0;
  Result<Setup> setup_or = RepeatSetup<Setup>(
      [&]() -> Result<Setup> {
        Setup s;
        MC_ASSIGN_OR_RETURN(ServeInputs in, SetupServeInputs(opt.seed));
        s.inputs = std::make_unique<ServeInputs>(std::move(in));
        s.plain = MakeFleet(*s.inputs, /*traced=*/false);
        if (opt.trace) s.traced = MakeFleet(*s.inputs, /*traced=*/true);
        return s;
      },
      &setup_s);
  if (!setup_or.ok()) {
    Problem(&out, "set-up failed: " + setup_or.status().ToString());
    return out;
  }
  Setup setup = std::move(setup_or).value();
  const ServeInputs& in = *setup.inputs;

  std::vector<double> latency_ms, step_us;
  int64_t run_ns = 0, plain_warm_ns = 0, traced_warm_ns = 0, self_ns = 0;
  size_t served = 0, generated = 0, runs = 0;
  ServeRun first;
  std::vector<ForecastCall> first_traced_calls;
  const int64_t start = NowNs();
  // Whole fleet runs over the same trace. In a traced run each plain
  // run is followed by one on the traced fleet.
  do {
    Result<ServeRun> run_or = RunFleetOnce(in, &setup.plain, &out);
    if (!run_or.ok()) {
      Problem(&out, "fleet run failed: " + run_or.status().ToString());
      return out;
    }
    ServeRun run = std::move(run_or).value();
    if (runs > 0 && run.digest != first.digest) {
      Problem(&out, "run " + std::to_string(runs) +
                        " outcomes differ from the first run");
    }
    for (const ForecastCall& c : setup.plain.probe->calls) {
      latency_ms.push_back(static_cast<double>(c.span.duration()) / 1e6);
    }
    served += run.summary.served + run.summary.served_degraded;
    generated += run.summary.ledger.generated_tokens;
    run_ns += run.span.duration();
    if (opt.trace) {
      Result<ServeRun> traced_or = RunFleetOnce(in, &setup.traced, &out);
      if (!traced_or.ok()) {
        Problem(&out, "traced fleet run failed: " +
                          traced_or.status().ToString());
        return out;
      }
      const ServeRun& traced = traced_or.value();
      if (traced.digest != run.digest) {
        Problem(&out, "traced fleet outcomes differ from the untraced fleet");
      }
      std::vector<Span> spans;
      for (const ForecastCall& c : setup.traced.probe->calls) {
        spans.push_back(c.span);
      }
      self_ns += SelfNs(traced.span, spans);
      for (const auto& steps : setup.traced.probe->steps) {
        for (size_t i = 1; i < steps.size(); ++i) {
          step_us.push_back(static_cast<double>(steps[i] - steps[i - 1]) / 1e3);
        }
      }
      // The first pair runs on cold caches; compare warm pairs only.
      if (runs > 0) {
        plain_warm_ns += run.span.duration();
        traced_warm_ns += traced.span.duration();
      } else {
        first_traced_calls = setup.traced.probe->calls;
      }
    }
    if (runs == 0) first = std::move(run);
    ++runs;
  } while (Seconds(NowNs() - start) < opt.seconds);

  const mc::serve::ServeSummary& s = first.summary;
  const double offered = static_cast<double>(s.total);
  std::printf("%s: %zu runs of %zu requests in %.2f s, digest %016" PRIx64
              "; first run: %zu served (%zu degraded), %zu shed, %zu "
              "expired, %zu failed, tiers F/R/C/S %zu/%zu/%zu/%zu, %zu "
              "failovers\n",
              name, runs, in.requests.size(), Seconds(NowNs() - start),
              first.digest, s.served + s.served_degraded, s.served_degraded,
              s.shed_queue_full, s.shed_expired, s.failed, s.tier_llm_full,
              s.tier_llm_reduced, s.tier_classical, s.tier_shed,
              setup.plain.executor->report().failovers);
  double rmse_sum = 0.0;
  size_t rmse_count = 0;
  for (const mc::serve::ServeStats& st : first.stats) {
    if (st.result == nullptr) continue;
    const size_t key = in.requests[st.id].session_key;
    rmse_sum += NormRmse(st.result->forecast, in.truths[key], in.histories[key]);
    ++rmse_count;
  }
  const double rmse_norm = rmse_count > 0 ? rmse_sum / rmse_count : 0.0;

  if (!opt.trace) {
    const Tail tail = TailPercentile(latency_ms);
    PrintTail(name, tail);
    const double wall = Seconds(run_ns);
    out.metrics = {
        {"setup_s", setup_s, "s"},
        {"forecasts_per_s", static_cast<double>(served) / wall, "1/s"},
        {"latency_ms_p50", Median(latency_ms), "ms"},
        {"latency_ms_tail", tail.value, "ms"},
        {"gen_tokens_per_s", static_cast<double>(generated) / wall, "tok/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"rmse_norm", rmse_norm, "ratio"},
        {"goodput", static_cast<double>(s.served + s.served_degraded) / offered,
         "ratio"},
    };
    return out;
  }

  StageTimes stages;
  int64_t mirrored_forecast_ns = 0;
  MirrorServed(in, first, first_traced_calls, &stages, &mirrored_forecast_ns,
               &out);
  PrintStageTable(name, stages, mirrored_forecast_ns, rmse_norm);

  LayerValues layers;
  SetStageLayers(stages, &layers);
  if (mirrored_forecast_ns > 0) {
    layers.Set("forecast.self_share",
               static_cast<double>(mirrored_forecast_ns - stages.total_ns()) /
                   static_cast<double>(mirrored_forecast_ns));
  }
  const mc::cluster::ClusterExecutor& ex = *setup.traced.executor;
  std::vector<std::shared_ptr<mc::lm::PrefixCache>> caches;
  std::vector<std::shared_ptr<mc::lm::BlockPool>> pools;
  mc::batch::BatchStats bs;
  for (size_t r = 0; r < ex.num_replicas(); ++r) {
    caches.push_back(ex.replica(r).prefix_cache);
    pools.push_back(ex.replica(r).block_pool);
    bs += ex.replica(r).scheduler->stats();
  }
  const mc::lm::PrefixCacheStats cs = SetCacheAndPoolLayers(
      caches, pools, (s.served + s.served_degraded) * runs, &layers);
  if (cs.lookups > 0) {
    layers.Set("cluster.prefix_hit_rate", static_cast<double>(cs.hits()) /
                                              static_cast<double>(cs.lookups));
  }
  const double n_runs = static_cast<double>(runs);
  layers.Set("batch.steps", static_cast<double>(bs.steps) / n_runs);
  layers.Set("batch.mean_batch", bs.mean_batch());
  layers.Set("batch.preemptions", static_cast<double>(bs.preemptions) / n_runs);
  layers.Set("batch.step_us_p50", Median(step_us));
  layers.Set("serve.overhead_ms_per_request",
             static_cast<double>(self_ns) / 1e6 / (offered * n_runs));
  layers.Set("serve.queue_wait_s_p99", s.p99_queue_wait_seconds);
  layers.Set("serve.shed_frac", static_cast<double>(s.shed()) / offered);
  layers.Set("serve.demoted_frac",
             static_cast<double>(s.tier_llm_reduced + s.tier_classical) /
                 offered);
  layers.Set("cluster.failovers", static_cast<double>(ex.report().failovers));
  layers.Set("cluster.redispatched_draws",
             static_cast<double>(ex.report().redispatched_draws));
  if (plain_warm_ns > 0) {
    layers.Set("trace.overhead_frac",
               static_cast<double>(traced_warm_ns - plain_warm_ns) /
                   static_cast<double>(plain_warm_ns));
  }
  mc::util::MetricsRegistry* registry = setup.traced.registry.get();
  mc::serve::Summarize(first.stats, registry);
  for (size_t r = 0; r < ex.num_replicas(); ++r) {
    const std::string prefix = "replica" + std::to_string(r) + ".";
    ex.replica(r).prefix_cache->PublishMetrics(registry, prefix + "prefix_cache.");
    ex.replica(r).scheduler->PublishMetrics(registry, prefix + "batch.");
    ex.replica(r).block_pool->PublishMetrics(registry, prefix + "lm.mem.");
  }
  layers.Set("metrics.export_ms",
             TimeMetricsExport(opt.out_dir + "/perfbench_" + opt.workload +
                                   "_metrics.json",
                               {{opt.workload, registry->Snapshot()}}, &out));
  out.metrics = layers.Emit();
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const auto* names = new std::vector<std::string>{
      "decode_heavy", "prefill_heavy", "serve_overload"};
  return *names;
}

RunResult RunWorkload(const RunOptions& options) {
  if (options.workload == "decode_heavy") {
    return RunOffline(options, [&] { return SetupDecodeHeavy(options.seed); });
  }
  if (options.workload == "prefill_heavy") {
    return RunOffline(options, [&] { return SetupPrefillHeavy(options.seed); });
  }
  if (options.workload == "serve_overload") return RunServeOverload(options);
  RunResult out;
  Problem(&out, "unknown workload " + options.workload);
  return out;
}

}  // namespace perfbench
