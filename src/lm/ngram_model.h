// Interpolated Witten–Bell backoff n-gram language model.
//
// The conditional next-token model behind the simulated LLM back-ends.
// Counts of all n-grams up to `max_order` are maintained *online* over
// the observed context, so the model is zero-shot: its only knowledge is
// the serialized history it was prompted with, exactly the information a
// frozen LLM conditions on at inference time. Witten–Bell interpolation
// backs off smoothly from the longest matching context to the uniform
// distribution, which keeps every token's probability strictly positive
// (required for constrained sampling — masking must never zero out the
// entire support).
//
// Counts live in a LayeredContextStore (lm/paged_store.h), which makes
// Freeze()/Fork() (the prefix-cache contract in language_model.h) a
// matter of sharing frozen layers by refcount; each live session writes
// only its own overlay. Context keys encode their order, so one store
// per layer holds every order. A slot packs one context's counts as
// u16; a count about to pass 65535 promotes its entry to a u32 overflow
// entry. Either way the model holds exactly the integers a monolithic
// model would hold, so every downstream float op is bit-identical.

#ifndef MULTICAST_LM_NGRAM_MODEL_H_
#define MULTICAST_LM_NGRAM_MODEL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "lm/language_model.h"
#include "lm/paged_store.h"

namespace multicast {
namespace lm {

struct NGramOptions {
  /// Longest context used, in tokens (an order-k model conditions on the
  /// previous k tokens). Must be in [1, 12] so contexts pack into 64 bits.
  int max_order = 8;
  /// Extra pseudo-type mass added to every Witten–Bell backoff weight.
  /// Larger values flatten the model toward lower orders — the knob the
  /// weaker "Phi-2" profile turns up.
  double backoff_boost = 0.0;
  /// Probability mass mixed in from the uniform distribution at the end
  /// (decoder noise floor). Must be in [0, 1).
  double uniform_mix = 1e-4;
  /// Frozen layers a fork chain may accumulate before Freeze() compacts
  /// them into one; bounds the per-lookup layer walk for long chains
  /// (e.g. rolling windows forked off forked prefixes). Must be >= 1.
  /// Storage-only: does not affect model output, so it is excluded from
  /// the model fingerprint.
  size_t max_base_layers = 4;
};

/// See file comment.
class NGramLanguageModel final : public LanguageModel {
 public:
  /// `vocab_size` must be <= 31 (tokens pack into 5 bits each). Layers
  /// draw blocks from `pool` and report session bytes to it; without
  /// one the model creates its own unbounded pool.
  NGramLanguageModel(size_t vocab_size, const NGramOptions& options,
                     std::shared_ptr<BlockPool> pool = nullptr);

  void Reset() override;
  void Observe(token::TokenId id) override;
  std::vector<double> NextDistribution() const override;
  void NextDistribution(std::vector<double>* out) const override;
  size_t vocab_size() const override { return vocab_size_; }
  size_t context_length() const override { return observed_; }

  bool SupportsFork() const override { return true; }
  void Freeze() override;
  bool frozen() const override { return store_.frozen(); }
  std::unique_ptr<LanguageModel> Fork() const override;
  void ExpectTokens(size_t num_tokens) override;

  MemoryFootprint ApproxMemoryBytes() const override {
    return store_.Footprint();
  }
  void TallyMemory(MemoryTally* tally) const override { store_.Tally(tally); }

  /// Convenience: observes a whole token sequence.
  void ObserveAll(const std::vector<token::TokenId>& ids);

  const NGramOptions& options() const { return options_; }

  /// Number of distinct (context, next) pairs currently counted, across
  /// all orders, in the effective (layer-merged) view. Exposed for tests
  /// and capacity diagnostics.
  size_t num_entries() const;

  /// Number of frozen base layers under this session (tests only).
  size_t num_base_layers() const { return store_.num_base_layers(); }

 private:
  // Slot layout: [u32 total][u16 types][u16 flags][u16 counts[vocab]],
  // where types is Witten–Bell's T(h), the distinct next tokens seen.
  struct Slot {
    static constexpr size_t kTotalOffset = 0;
    static constexpr size_t kTypesOffset = 4;
    static constexpr size_t kFlagsOffset = 6;
    static constexpr size_t kCountsOffset = 8;
    struct Wide {
      std::vector<uint32_t> counts;
      uint32_t total = 0;
      uint32_t types = 0;
    };
    size_t vocab_size;
    size_t slot_bytes() const {
      return kCountsOffset + sizeof(uint16_t) * vocab_size;
    }
    Wide Widen(const std::byte* slot) const;
  };

  static constexpr int kMaxOrder = 12;
  using Located = LayeredContextStore<Slot>::Located;

  // Context orders fully available in the window: 0..OrdersInWindow().
  int OrdersInWindow() const;

  // Adds one occurrence of `w` to the entry `at` locates.
  void Count(const Located& at, size_t w);

  size_t vocab_size_;
  NGramOptions options_;
  size_t observed_ = 0;
  // The sliding conditioning window, packed 5 bits per token with the
  // newest token lowest (see PackedContextKey in lm/paged_store.h).
  uint64_t history_ = 0;
  LayeredContextStore<Slot> store_;
  // Decode-step memo: a mutable session's NextDistribution records each
  // order's lookup here, and the Observe that follows writes through
  // those records instead of looking every key up again. Valid only
  // until the session changes (Observe, Reset, Freeze); frozen models
  // record nothing, so a shared base is never written by its readers.
  mutable std::array<Located, kMaxOrder + 1> memo_;
  mutable bool memo_valid_ = false;
};

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_NGRAM_MODEL_H_
