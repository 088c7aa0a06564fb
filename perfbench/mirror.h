// The mirrored pipeline: MultiCast's clean forecast path re-run from
// the benchmark's side, one public module entry point at a time, with
// each call timed. It reproduces MultiCastForecaster / LlmTimeForecaster
// output bit-for-bit (the benchmark checks the digests agree), so the
// stage times it records are the cost of the work Forecast() does,
// split by module, with no timer inside the library.

#ifndef MULTICAST_PERFBENCH_MIRROR_H_
#define MULTICAST_PERFBENCH_MIRROR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "forecast/forecaster.h"
#include "forecast/llmtime_forecaster.h"
#include "forecast/multicast_forecaster.h"
#include "lm/prefix_cache.h"
#include "ts/frame.h"
#include "util/status.h"

namespace perfbench {

/// Mirrored stages, in pipeline order.
enum Stage : int {
  kScaleFit,     // scale::FitScaler + ScaleValues
  kSaxEncode,    // sax::SaxCodec::Fit + Encode
  kTokenEncode,  // token::FixedWidthDigits + Encode
  kMux,          // multiplex::CreateMultiplexer + Multiplex
  kPrefill,      // lm::SimulatedLlm::WarmPrefix
  kFork,         // lm::PrefixCache::AcquireSession on the warmed prompt
  kDecode,       // lm::SimulatedLlm::Complete, one call per draw
  kTokenDecode,  // token::Decode + ParseFixedWidthDigits
  kDemux,        // Multiplexer::Demultiplex
  kScaleDescale, // scale::DescaleValues
  kSaxDecode,    // sax::SaxCodec::Decode
  kAggregate,    // forecast::QuantileAggregate (median + bands)
  kNumStages,
};

const char* StageName(int stage);

/// Accumulated stage costs and token counts of mirrored forecasts.
struct StageTimes {
  std::array<int64_t, kNumStages> ns{};
  /// Prompt tokens observed anew by WarmPrefix (cache replay work).
  size_t prefill_tokens = 0;
  /// Tokens generated by Complete.
  size_t decode_tokens = 0;
  /// Prompt tokens the draws conditioned on: prompt length per draw,
  /// the quantity TokenLedger::prompt_tokens counts.
  size_t ledger_prompt_tokens = 0;
  size_t forks = 0;
  size_t forecasts = 0;

  int64_t total_ns() const;
  StageTimes& operator+=(const StageTimes& other);
};

/// Mirrors MultiCastForecaster::Forecast for `options` on `cache` (the
/// mirror's own, standing in for the forecaster's). Only the clean
/// path is mirrored: faults, retries, an external backend, a batch
/// scheduler or speculation are InvalidArgument.
multicast::Result<multicast::forecast::ForecastResult> MirrorMultiCast(
    const multicast::forecast::MultiCastOptions& options,
    const multicast::ts::Frame& history, size_t horizon,
    const std::shared_ptr<multicast::lm::PrefixCache>& cache,
    StageTimes* times);

/// Mirrors LlmTimeForecaster::Forecast: one univariate MultiCast (VC)
/// mirror per dimension over one shared cache.
multicast::Result<multicast::forecast::ForecastResult> MirrorLlmTime(
    const multicast::forecast::LlmTimeOptions& options,
    const multicast::ts::Frame& history, size_t horizon,
    const std::shared_ptr<multicast::lm::PrefixCache>& cache,
    StageTimes* times);

}  // namespace perfbench

#endif  // MULTICAST_PERFBENCH_MIRROR_H_
