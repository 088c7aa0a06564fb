// Simulated back-end model profiles.
//
// The paper evaluates MultiCast over two frozen back-ends: LLaMA2-7B and
// Phi-2 (2.7B), finding LLaMA2 roughly 2x more accurate (Table III).
// With real weights unavailable, a profile bundles the knobs that make
// one simulated decoder a stronger or weaker pattern model than another:
// context order, backoff flatness, noise floor, and decode temperature.

#ifndef MULTICAST_LM_PROFILES_H_
#define MULTICAST_LM_PROFILES_H_

#include <cstdint>
#include <memory>
#include <string>

#include "lm/language_model.h"
#include "lm/mixture_model.h"
#include "lm/ngram_model.h"
#include "lm/paged_store.h"
#include "lm/sampler.h"

namespace multicast {
namespace lm {

/// Which conditional model architecture a profile decodes with.
enum class BackendKind {
  kNGram,    ///< Witten–Bell backoff n-gram (lm/ngram_model.h)
  kMixture,  ///< CTW-style context-depth mixture (lm/mixture_model.h)
};

/// Everything needed to instantiate one simulated LLM back-end.
struct ModelProfile {
  std::string name;
  BackendKind backend = BackendKind::kNGram;
  NGramOptions ngram;       // used when backend == kNGram
  MixtureOptions mixture;   // used when backend == kMixture
  SamplerOptions sampler;

  /// Optional session-memory pool handed to every model this profile
  /// constructs (see lm/paged_store.h): the models' block source and
  /// byte-accounting sink. Null: each fresh model creates its own.
  /// Storage-only — model output is bit-identical whichever pool backs
  /// it, so it is excluded from ModelFingerprint (like the sampler).
  std::shared_ptr<BlockPool> memory_pool;

  /// Stand-in for LLaMA2-7B: long context order, sharp backoff, low
  /// noise, moderate temperature — a strong pattern completer.
  static ModelProfile Llama2_7B();

  /// Stand-in for Phi-2 (2.7B): short order, flattened backoff, higher
  /// noise and temperature — reproduces the ~2x RMSE gap of Table III.
  static ModelProfile Phi2();

  /// An architecturally different back-end: the CTW-style context-depth
  /// mixture with deep context and sharp decoding. Used by the back-end
  /// ablation bench to probe the paper's conclusion that a different
  /// (larger) model family changes MultiCast's accuracy — measured
  /// here, the Witten–Bell n-gram remains the stronger pattern model at
  /// these context lengths, an honest negative result recorded in
  /// EXPERIMENTS.md.
  static ModelProfile CtwMixture();
};

/// Stable 64-bit fingerprint of the *decode-state semantics* of a
/// profile over a vocabulary: two (profile, vocab_size) pairs with equal
/// fingerprints build interchangeable model states for the same prompt.
/// Sampler settings are deliberately excluded — they shape token
/// *selection*, not the conditioning state a PrefixCache shares. Used as
/// the cache-key namespace so caches shared across forecasters (serving,
/// LLMTime dimensions) never mix states from different model families.
uint64_t ModelFingerprint(const ModelProfile& profile, size_t vocab_size);

/// Fresh empty decode session for `profile` over a `vocab_size`
/// vocabulary. The single construction point every decode front-end
/// (SimulatedLlm, the batch scheduler's session intake) goes through, so
/// a profile maps to exactly one model family everywhere.
std::unique_ptr<LanguageModel> NewDecoderModel(const ModelProfile& profile,
                                               size_t vocab_size);

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_PROFILES_H_
