#include "mirror.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "lm/generator.h"
#include "lm/profiles.h"
#include "multiplex/multiplexer.h"
#include "sax/sax.h"
#include "scale/scaler.h"
#include "stats.h"
#include "token/codec.h"
#include "token/vocabulary.h"
#include "util/random.h"

namespace perfbench {

namespace mc = multicast;
using mc::Result;
using mc::Status;

namespace {

// Charges the time since the previous mark to a stage: consecutive
// stages cost one clock read each.
class Lap {
 public:
  explicit Lap(StageTimes* times) : times_(times), last_(NowNs()) {}
  void Mark(Stage stage) {
    const int64_t now = NowNs();
    times_->ns[stage] += now - last_;
    last_ = now;
  }
  void Skip() { last_ = NowNs(); }

 private:
  StageTimes* times_;
  int64_t last_;
};

// The forecaster's per-position grammar: comma at separator positions
// of the timestamp cycle, any other symbol elsewhere.
mc::lm::GrammarMask StructuredMask(const mc::multiplex::Multiplexer& mux,
                                   const std::vector<int>& widths,
                                   const mc::token::Vocabulary& vocab) {
  const size_t cycle = mux.TokensPerTimestamp(widths);
  const auto comma = static_cast<size_t>(vocab.CommaId().ValueOrDie());
  std::vector<mc::lm::GrammarMask::Shared> positions(cycle);
  for (size_t p = 0; p < cycle; ++p) {
    const bool want_comma = mux.IsSeparatorPosition(p, widths);
    std::vector<bool> allowed(vocab.size(), !want_comma);
    allowed[comma] = want_comma;
    positions[p] =
        std::make_shared<const std::vector<bool>>(std::move(allowed));
  }
  return mc::lm::GrammarMask(
      [positions = std::move(positions), cycle](size_t step) {
        return positions[step % cycle];
      },
      cycle);
}

// Everything between the prompt and the aggregate, shared by the raw
// and SAX mirrors: warm, fork, draw, and turn each draw's text into
// per-dimension values with `parse`.
template <typename Parse>
Status MirrorDraws(const mc::forecast::MultiCastOptions& options,
                   const std::vector<mc::token::TokenId>& prompt,
                   size_t tokens_needed, const mc::lm::GrammarMask& mask,
                   const mc::token::Vocabulary& vocab,
                   const std::shared_ptr<mc::lm::PrefixCache>& cache,
                   uint64_t rng_stream, const Parse& parse, size_t dims,
                   std::vector<std::vector<std::vector<double>>>* samples,
                   mc::lm::TokenLedger* ledger, StageTimes* times) {
  mc::lm::ModelProfile profile = options.profile;
  profile.memory_pool = options.block_pool;
  mc::lm::SimulatedLlm llm(profile, vocab.size(), cache);

  const size_t replayed_before = cache->stats().prompt_tokens_replayed;
  Lap lap(times);
  MC_RETURN_IF_ERROR(llm.WarmPrefix(prompt));
  lap.Mark(kPrefill);
  times->prefill_tokens +=
      cache->stats().prompt_tokens_replayed - replayed_before;

  {
    // One extra fork of the warmed prompt, timed on its own: every
    // Complete below starts with exactly this call.
    const uint64_t fingerprint =
        mc::lm::ModelFingerprint(profile, vocab.size());
    lap.Skip();
    std::unique_ptr<mc::lm::LanguageModel> session = cache->AcquireSession(
        fingerprint, prompt, [&profile, &vocab] {
          return mc::lm::NewDecoderModel(profile, vocab.size());
        });
    lap.Mark(kFork);
    ++times->forks;
  }

  // The forecaster pre-forks one RNG per prospective draw; the k-th
  // fork is the same generator however many are taken.
  mc::Rng rng(options.seed, rng_stream);
  samples->assign(dims, {});
  for (int s = 0; s < options.num_samples; ++s) {
    mc::Rng draw_rng = rng.Fork();
    lap.Skip();
    MC_ASSIGN_OR_RETURN(mc::lm::GenerationResult gen,
                        llm.Complete(prompt, tokens_needed, mask, &draw_rng,
                                     mc::lm::CallOptions{}));
    lap.Mark(kDecode);
    *ledger += gen.ledger;
    times->decode_tokens += gen.tokens.size();
    times->ledger_prompt_tokens += prompt.size();
    MC_ASSIGN_OR_RETURN(std::string text, mc::token::Decode(gen.tokens, vocab));
    lap.Mark(kTokenDecode);
    MC_ASSIGN_OR_RETURN(std::vector<std::vector<double>> values,
                        parse(text, &lap));
    for (size_t d = 0; d < dims; ++d) {
      (*samples)[d].push_back(std::move(values[d]));
    }
  }
  return Status::OK();
}

// Median forecast plus the requested bands, as FillAggregates builds
// them (levels sorted and deduplicated).
Status Aggregate(const std::vector<std::vector<std::vector<double>>>& samples,
                 const mc::ts::Frame& history,
                 const std::vector<double>& quantiles,
                 mc::forecast::ForecastResult* result) {
  auto frame_at = [&](double q) -> Result<mc::ts::Frame> {
    std::vector<mc::ts::Series> dims;
    for (size_t d = 0; d < samples.size(); ++d) {
      MC_ASSIGN_OR_RETURN(std::vector<double> agg,
                          mc::forecast::QuantileAggregate(samples[d], q));
      dims.emplace_back(std::move(agg), history.dim(d).name());
    }
    return mc::ts::Frame::FromSeries(std::move(dims), history.name());
  };
  MC_ASSIGN_OR_RETURN(result->forecast, frame_at(0.5));
  std::vector<double> levels = quantiles;
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  for (double level : levels) {
    MC_ASSIGN_OR_RETURN(mc::ts::Frame band, frame_at(level));
    result->quantile_bands.emplace_back(level, std::move(band));
  }
  return Status::OK();
}

Result<mc::forecast::ForecastResult> MirrorRaw(
    const mc::forecast::MultiCastOptions& options,
    const mc::ts::Frame& history, size_t horizon,
    const std::shared_ptr<mc::lm::PrefixCache>& cache, StageTimes* times) {
  const size_t dims = history.num_dims();
  mc::scale::ScalerOptions scaler = options.scaler;
  scaler.digits = options.digits;
  Lap lap(times);

  std::vector<mc::scale::ScalerParams> params(dims);
  std::vector<std::vector<int64_t>> scaled(dims);
  for (size_t d = 0; d < dims; ++d) {
    MC_ASSIGN_OR_RETURN(params[d],
                        mc::scale::FitScaler(history.dim(d), scaler));
    scaled[d] = mc::scale::ScaleValues(history.dim(d).values(), params[d]);
  }
  lap.Mark(kScaleFit);

  mc::multiplex::MuxInput input;
  input.values.resize(dims);
  for (size_t d = 0; d < dims; ++d) {
    input.values[d].reserve(scaled[d].size());
    for (int64_t v : scaled[d]) {
      MC_ASSIGN_OR_RETURN(std::string s,
                          mc::token::FixedWidthDigits(v, options.digits));
      input.values[d].push_back(std::move(s));
    }
  }
  lap.Mark(kTokenEncode);

  const std::vector<int> widths(dims, options.digits);
  std::unique_ptr<mc::multiplex::Multiplexer> mux =
      mc::multiplex::CreateMultiplexer(options.mux);
  MC_ASSIGN_OR_RETURN(std::string stream, mux->Multiplex(input, widths));
  stream.push_back(',');
  lap.Mark(kMux);

  const mc::token::Vocabulary vocab = mc::token::Vocabulary::Digits();
  MC_ASSIGN_OR_RETURN(std::vector<mc::token::TokenId> prompt,
                      mc::token::Encode(stream, vocab));
  lap.Mark(kTokenEncode);

  const size_t tokens_needed = horizon * mux->TokensPerTimestamp(widths);
  const mc::lm::GrammarMask mask = StructuredMask(*mux, widths, vocab);
  auto parse = [&](const std::string& text,
                   Lap* l) -> Result<std::vector<std::vector<double>>> {
    MC_ASSIGN_OR_RETURN(mc::multiplex::MuxInput demuxed,
                        mux->Demultiplex(text, widths, true));
    l->Mark(kDemux);
    if (demuxed.num_timestamps() < horizon) {
      return Status::Internal("mirrored draw is short of the horizon");
    }
    std::vector<std::vector<int64_t>> ints(dims);
    for (size_t d = 0; d < dims; ++d) {
      ints[d].reserve(horizon);
      for (size_t t = 0; t < horizon; ++t) {
        MC_ASSIGN_OR_RETURN(
            int64_t v, mc::token::ParseFixedWidthDigits(demuxed.values[d][t]));
        ints[d].push_back(v);
      }
    }
    l->Mark(kTokenDecode);
    std::vector<std::vector<double>> values(dims);
    for (size_t d = 0; d < dims; ++d) {
      values[d] = mc::scale::DescaleValues(ints[d], params[d]);
    }
    l->Mark(kScaleDescale);
    return values;
  };

  mc::forecast::ForecastResult result;
  std::vector<std::vector<std::vector<double>>> samples;
  MC_RETURN_IF_ERROR(MirrorDraws(options, prompt, tokens_needed, mask, vocab,
                                 cache, /*rng_stream=*/7, parse, dims,
                                 &samples, &result.ledger, times));
  lap.Skip();
  MC_RETURN_IF_ERROR(Aggregate(samples, history, options.quantiles, &result));
  lap.Mark(kAggregate);
  return result;
}

Result<mc::forecast::ForecastResult> MirrorSax(
    const mc::forecast::MultiCastOptions& options,
    const mc::ts::Frame& history, size_t horizon,
    const std::shared_ptr<mc::lm::PrefixCache>& cache, StageTimes* times) {
  const size_t dims = history.num_dims();
  const bool digital =
      options.quantization == mc::forecast::Quantization::kSaxDigital;
  mc::sax::SaxOptions sax_opts;
  sax_opts.segment_length = options.sax_segment_length;
  sax_opts.alphabet_size = options.sax_alphabet_size;
  sax_opts.symbols = digital ? mc::sax::SymbolKind::kDigital
                             : mc::sax::SymbolKind::kAlphabetic;
  Lap lap(times);

  std::vector<mc::sax::SaxCodec> codecs;
  mc::multiplex::MuxInput input;
  input.values.resize(dims);
  for (size_t d = 0; d < dims; ++d) {
    MC_ASSIGN_OR_RETURN(mc::sax::SaxCodec codec,
                        mc::sax::SaxCodec::Fit(history.dim(d), sax_opts));
    MC_ASSIGN_OR_RETURN(std::string word,
                        codec.Encode(history.dim(d).values()));
    for (char c : word) input.values[d].emplace_back(1, c);
    codecs.push_back(std::move(codec));
  }
  lap.Mark(kSaxEncode);

  const std::vector<int> widths(dims, 1);
  std::unique_ptr<mc::multiplex::Multiplexer> mux =
      mc::multiplex::CreateMultiplexer(options.mux);
  MC_ASSIGN_OR_RETURN(std::string stream, mux->Multiplex(input, widths));
  stream.push_back(',');
  lap.Mark(kMux);

  MC_ASSIGN_OR_RETURN(
      mc::token::Vocabulary vocab,
      digital ? mc::token::Vocabulary::SaxDigital(options.sax_alphabet_size)
              : mc::token::Vocabulary::SaxAlphabetic(options.sax_alphabet_size));
  MC_ASSIGN_OR_RETURN(std::vector<mc::token::TokenId> prompt,
                      mc::token::Encode(stream, vocab));
  lap.Mark(kTokenEncode);

  const auto segment_length = static_cast<size_t>(options.sax_segment_length);
  const size_t segments = (horizon + segment_length - 1) / segment_length;
  const size_t tokens_needed = segments * mux->TokensPerTimestamp(widths);
  const mc::lm::GrammarMask mask = StructuredMask(*mux, widths, vocab);
  auto parse = [&](const std::string& text,
                   Lap* l) -> Result<std::vector<std::vector<double>>> {
    MC_ASSIGN_OR_RETURN(mc::multiplex::MuxInput demuxed,
                        mux->Demultiplex(text, widths, true));
    l->Mark(kDemux);
    if (demuxed.num_timestamps() < segments) {
      return Status::Internal("mirrored draw is short of the horizon");
    }
    std::vector<std::vector<double>> values(dims);
    for (size_t d = 0; d < dims; ++d) {
      std::string word;
      for (size_t seg = 0; seg < segments; ++seg) {
        word.push_back(demuxed.values[d][seg][0]);
      }
      MC_ASSIGN_OR_RETURN(values[d], codecs[d].Decode(word, horizon));
    }
    l->Mark(kSaxDecode);
    return values;
  };

  mc::forecast::ForecastResult result;
  std::vector<std::vector<std::vector<double>>> samples;
  MC_RETURN_IF_ERROR(MirrorDraws(options, prompt, tokens_needed, mask, vocab,
                                 cache, /*rng_stream=*/11, parse, dims,
                                 &samples, &result.ledger, times));
  lap.Skip();
  MC_RETURN_IF_ERROR(Aggregate(samples, history, options.quantiles, &result));
  lap.Mark(kAggregate);
  return result;
}

Result<mc::forecast::ForecastResult> MirrorOne(
    const mc::forecast::MultiCastOptions& options,
    const mc::ts::Frame& history, size_t horizon,
    const std::shared_ptr<mc::lm::PrefixCache>& cache, StageTimes* times) {
  if (options.faults.any() || options.resilience.retries_enabled ||
      options.backend != nullptr || options.batch_scheduler != nullptr ||
      options.speculative) {
    return Status::InvalidArgument(
        "the mirror reproduces the clean pipeline only");
  }
  if (cache == nullptr || cache->capacity() == 0) {
    return Status::InvalidArgument("the mirror needs an enabled prefix cache");
  }
  if (options.quantization == mc::forecast::Quantization::kNone) {
    return MirrorRaw(options, history, horizon, cache, times);
  }
  return MirrorSax(options, history, horizon, cache, times);
}

}  // namespace

const char* StageName(int stage) {
  static const char* const kNames[kNumStages] = {
      "scale.fit",   "sax.encode",    "token.encode",  "multiplex.mux",
      "lm.prefill",  "lm.fork",       "lm.decode",     "token.decode",
      "multiplex.demux", "scale.descale", "sax.decode", "forecast.aggregate",
  };
  return stage >= 0 && stage < kNumStages ? kNames[stage] : "?";
}

int64_t StageTimes::total_ns() const {
  int64_t total = 0;
  for (int64_t v : ns) total += v;
  return total;
}

StageTimes& StageTimes::operator+=(const StageTimes& other) {
  for (int s = 0; s < kNumStages; ++s) ns[s] += other.ns[s];
  prefill_tokens += other.prefill_tokens;
  decode_tokens += other.decode_tokens;
  ledger_prompt_tokens += other.ledger_prompt_tokens;
  forks += other.forks;
  forecasts += other.forecasts;
  return *this;
}

Result<mc::forecast::ForecastResult> MirrorMultiCast(
    const mc::forecast::MultiCastOptions& options,
    const mc::ts::Frame& history, size_t horizon,
    const std::shared_ptr<mc::lm::PrefixCache>& cache, StageTimes* times) {
  MC_ASSIGN_OR_RETURN(mc::forecast::ForecastResult result,
                      MirrorOne(options, history, horizon, cache, times));
  ++times->forecasts;
  return result;
}

Result<mc::forecast::ForecastResult> MirrorLlmTime(
    const mc::forecast::LlmTimeOptions& options,
    const mc::ts::Frame& history, size_t horizon,
    const std::shared_ptr<mc::lm::PrefixCache>& cache, StageTimes* times) {
  mc::forecast::MultiCastOptions base;
  base.mux = mc::multiplex::MuxKind::kValueConcat;
  base.digits = options.digits;
  base.num_samples = options.num_samples;
  base.profile = options.profile;
  base.scaler = options.scaler;
  base.block_pool = options.block_pool;
  if (options.faults.any() || options.resilience.retries_enabled ||
      options.backend != nullptr || options.batch_scheduler != nullptr ||
      options.speculative) {
    return Status::InvalidArgument(
        "the mirror reproduces the clean pipeline only");
  }
  mc::forecast::ForecastResult result;
  std::vector<mc::ts::Series> out_dims;
  for (size_t d = 0; d < history.num_dims(); ++d) {
    mc::forecast::MultiCastOptions dim_options = base;
    // LlmTimeForecaster's per-dimension seed decorrelation.
    dim_options.seed = options.seed + 0x9e3779b97f4a7c15ULL * (d + 1);
    MC_ASSIGN_OR_RETURN(
        mc::ts::Frame uni,
        mc::ts::Frame::FromSeries({history.dim(d)}, history.dim(d).name()));
    MC_ASSIGN_OR_RETURN(mc::forecast::ForecastResult uni_result,
                        MirrorOne(dim_options, uni, horizon, cache, times));
    result.ledger += uni_result.ledger;
    out_dims.push_back(uni_result.forecast.dim(0));
  }
  MC_ASSIGN_OR_RETURN(result.forecast, mc::ts::Frame::FromSeries(
                                           std::move(out_dims), history.name()));
  ++times->forecasts;
  return result;
}

}  // namespace perfbench
