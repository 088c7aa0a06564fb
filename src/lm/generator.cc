#include "lm/generator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/strings.h"

namespace multicast {
namespace lm {

GrammarMask AllowAll(size_t vocab_size) {
  // One shared immutable mask, handed out by reference on every step —
  // never copied per invocation. Period 1: the grammar is constant.
  auto mask = std::make_shared<const std::vector<bool>>(vocab_size, true);
  return GrammarMask([mask](size_t) { return mask; }, /*period=*/1);
}

Status ValidatePromptTokens(const std::vector<token::TokenId>& prompt,
                            size_t vocab_size) {
  if (prompt.empty()) {
    return Status::InvalidArgument("empty prompt");
  }
  for (token::TokenId id : prompt) {
    if (id < 0 || static_cast<size_t>(id) >= vocab_size) {
      return Status::InvalidArgument(
          StrFormat("prompt token id %d outside vocabulary of size %zu", id,
                    vocab_size));
    }
  }
  return Status::OK();
}

Result<std::vector<GrammarMask::Shared>> HoistGrammarCycle(
    const GrammarMask& mask, size_t num_tokens, size_t vocab_size) {
  const size_t period = mask.period();
  const size_t count =
      period > 0 ? std::min(period, num_tokens) : num_tokens;
  std::vector<GrammarMask::Shared> cycle;
  cycle.reserve(count);
  for (size_t p = 0; p < count; ++p) {
    cycle.push_back(mask(p));
    if (cycle.back()->size() != vocab_size) {
      return Status::InvalidArgument(
          StrFormat("grammar mask has %zu entries for vocabulary of %zu",
                    cycle.back()->size(), vocab_size));
    }
  }
  return cycle;
}

SimulatedLlm::SimulatedLlm(const ModelProfile& profile, size_t vocab_size,
                           std::shared_ptr<PrefixCache> prefix_cache)
    : profile_(profile),
      vocab_size_(vocab_size),
      cache_(std::move(prefix_cache)),
      fingerprint_(ModelFingerprint(profile_, vocab_size_)) {}

std::unique_ptr<LanguageModel> SimulatedLlm::NewModel() const {
  return NewDecoderModel(profile_, vocab_size_);
}

Status SimulatedLlm::ValidatePrompt(
    const std::vector<token::TokenId>& prompt) const {
  return ValidatePromptTokens(prompt, vocab_size_);
}

Status SimulatedLlm::WarmPrefix(const std::vector<token::TokenId>& prompt) {
  if (cache_ == nullptr) return Status::OK();
  MC_RETURN_IF_ERROR(ValidatePrompt(prompt));
  cache_->Warm(fingerprint_, prompt, [this] { return NewModel(); });
  return Status::OK();
}

Result<GenerationResult> SimulatedLlm::Complete(
    const std::vector<token::TokenId>& prompt, size_t num_tokens,
    const GrammarMask& mask, Rng* rng, const CallOptions& call) {
  (void)call;  // the clean simulated decoder never misses a deadline
  MC_RETURN_IF_ERROR(ValidatePrompt(prompt));

  std::unique_ptr<LanguageModel> model;
  if (cache_ != nullptr) {
    model = cache_->AcquireSession(fingerprint_, prompt,
                                   [this] { return NewModel(); });
  } else {
    model = NewModel();
    for (token::TokenId id : prompt) model->Observe(id);
  }

  GenerationResult result;
  // The logical prompt size, cached or not: the ledger counts what the
  // call conditioned on, so resilience/serving accounting is identical
  // with the cache on or off. Replay savings live in PrefixCacheStats.
  result.ledger.prompt_tokens = prompt.size();
  result.tokens.reserve(num_tokens);

  // Hoist the grammar: a periodic mask is evaluated once per cycle
  // position up front instead of once per generated token; an aperiodic
  // mask is evaluated for every position it will be consulted at. The
  // masks are pure, so eager evaluation is observably identical.
  MC_ASSIGN_OR_RETURN(std::vector<GrammarMask::Shared> cycle,
                      HoistGrammarCycle(mask, num_tokens, vocab_size_));

  model->ExpectTokens(num_tokens);
  std::vector<double> probs;
  for (size_t step = 0; step < num_tokens; ++step) {
    const GrammarMask::Shared& allowed = cycle[step % cycle.size()];
    model->NextDistribution(&probs);
    MC_ASSIGN_OR_RETURN(token::TokenId next,
                        SampleToken(probs, *allowed, profile_.sampler, rng));
    result.tokens.push_back(next);
    // Sampled tokens become context, exactly as in KV-cached decoding.
    model->Observe(next);
    ++result.ledger.generated_tokens;
  }
  return result;
}

}  // namespace lm
}  // namespace multicast
