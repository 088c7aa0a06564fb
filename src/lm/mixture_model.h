// Adaptive context-depth mixture language model (CTW-style).
//
// A second, architecturally different simulated back-end, used for the
// "larger model" profiles. Where the Witten–Bell n-gram interpolates by
// observed type counts, this model performs *Bayesian model averaging
// over context depths* along the active context path: every depth d
// keeps a Krichevsky–Trofimov estimator for its context node, and a
// per-node posterior weight decides — from that node's own predictive
// history — whether its estimator or the shallower mixture predicts
// better. This is the conditional-probability form of Context Tree
// Weighting (Willems–Shtarkov–Tjalkens) evaluated on the context path,
// and adapts the effective context length per position instead of
// globally.
//
// Nodes live in a LayeredContextStore (lm/paged_store.h) exactly like
// the n-gram model's counts (see ngram_model.h): frozen layers shared by
// refcount, one private overlay per session, copy-on-first-write per
// context key, u16 counts promoted to a u32 overflow entry before they
// saturate. The per-node posterior weight stays a full double inside
// the slot. The shared per-depth log-odds vector is tiny and copied
// whole on fork.

#ifndef MULTICAST_LM_MIXTURE_MODEL_H_
#define MULTICAST_LM_MIXTURE_MODEL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "lm/language_model.h"
#include "lm/paged_store.h"

namespace multicast {
namespace lm {

struct MixtureOptions {
  /// Deepest context depth mixed over. Must be in [1, 12].
  int max_depth = 8;
  /// KT estimator pseudo-count per symbol (1/2 is the classical KT
  /// choice; larger is smoother).
  double kt_alpha = 0.5;
  /// Prior weight of "use this node's estimator" vs "defer to the
  /// shallower mixture" at a fresh node. Must be in (0, 1).
  double prior_self_weight = 0.5;
  /// Learning rate of the shared per-depth weight component. Deep
  /// context nodes are individually visited only a handful of times, so
  /// a per-depth factor — updated on *every* token — learns how useful
  /// each depth is globally, while the per-node odds personalize it.
  double depth_learning_rate = 0.05;
  /// Uniform mixing floor, as in NGramOptions.
  double uniform_mix = 1e-4;
  /// Frozen-layer compaction threshold, as in NGramOptions (storage
  /// only, excluded from the fingerprint). Must be >= 1.
  size_t max_base_layers = 4;
};

/// See file comment.
class MixtureLanguageModel final : public LanguageModel {
 public:
  /// `pool` as in NGramLanguageModel: the block source and session
  /// accounting sink; without one the model creates its own.
  MixtureLanguageModel(size_t vocab_size, const MixtureOptions& options,
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

  void ObserveAll(const std::vector<token::TokenId>& ids);

  /// Number of context nodes materialized so far, in the effective
  /// (layer-merged) view.
  size_t num_nodes() const;

  /// Number of frozen base layers under this session (tests only).
  size_t num_base_layers() const { return store_.num_base_layers(); }

 private:
  // Slot layout: [f64 log_self_odds][u32 total][u16 flags]
  // [u16 counts[vocab]]. The store 8-aligns every slot, so the leading
  // double is aligned; the count array's offset (14) is even. The
  // log-odds are the posterior weight of this node's own KT estimator
  // within the mixture at its depth, against the shallower mixture.
  struct Slot {
    static constexpr size_t kLsoOffset = 0;
    static constexpr size_t kTotalOffset = 8;
    static constexpr size_t kFlagsOffset = 12;
    static constexpr size_t kCountsOffset = 14;
    struct Wide {
      std::vector<uint32_t> counts;
      uint32_t total = 0;
      double log_self_odds = 0.0;
    };
    size_t vocab_size;
    size_t slot_bytes() const {
      return kCountsOffset + sizeof(uint16_t) * vocab_size;
    }
    Wide Widen(const std::byte* slot) const;
  };

  // Read view of one node, narrow or wide.
  struct NodeView {
    const uint16_t* narrow = nullptr;
    const uint32_t* wide = nullptr;
    uint32_t total = 0;
    double log_self_odds = 0.0;
  };

  static constexpr int kMaxDepth = 12;
  using Located = LayeredContextStore<Slot>::Located;

  // Context depths fully available in the window: 0..DepthsInWindow().
  int DepthsInWindow() const;

  // Read view of the node `ref` holds; false when absent.
  static bool ViewNode(const LayeredContextStore<Slot>::Ref& ref,
                       NodeView* node);

  // KT predictive probability of `symbol` at `node`.
  double KtProb(const NodeView& node, size_t symbol) const;

  // Posterior weight update (odds += llr, clamped) and count update of
  // the node `at` locates; a fresh node starts at prior_log_odds_.
  void UpdateNode(const Located& at, size_t symbol, double llr);

  // Walks the context path computing the mixture distribution in-place.
  void MixturePath(std::vector<double>* mix) const;

  size_t vocab_size_;
  MixtureOptions options_;
  // log(prior / (1 - prior)) of prior_self_weight.
  double prior_log_odds_;
  size_t observed_ = 0;
  // The sliding window, packed as in NGramLanguageModel.
  uint64_t history_ = 0;
  LayeredContextStore<Slot> store_;
  // Shared log-odds component per depth (see depth_learning_rate).
  // Per-session state: copied, not shared, on fork.
  std::vector<double> depth_log_odds_;
  // Decode-step memo, as in NGramLanguageModel: the lookups of a mutable
  // session's last NextDistribution, valid until Observe, Reset or
  // Freeze. Frozen models record nothing.
  mutable std::array<Located, kMaxDepth + 1> memo_;
  mutable bool memo_valid_ = false;
};

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_MIXTURE_MODEL_H_
