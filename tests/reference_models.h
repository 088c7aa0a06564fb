// Differential oracle for the LM families: monolithic, map-based
// reference implementations of the Witten–Bell n-gram
// (lm/ngram_model.h) and the CTW-style depth mixture
// (lm/mixture_model.h).
//
// Each reference keeps one unordered_map of u32 entries for the whole
// session — no layers, no freeze, no fork, no pool, no u16 narrowing,
// no spill path — and computes its distribution in the same operation
// order as the production model. Equal integers give equal doubles, so
// a production model fed the same tokens must agree with its reference
// bit for bit, whatever its fork chain, compaction, pool cap or
// count promotion did underneath.

#ifndef MULTICAST_TESTS_REFERENCE_MODELS_H_
#define MULTICAST_TESTS_REFERENCE_MODELS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lm/backend.h"
#include "lm/generator.h"
#include "lm/language_model.h"
#include "lm/mixture_model.h"
#include "lm/ngram_model.h"
#include "lm/paged_store.h"
#include "lm/profiles.h"
#include "lm/sampler.h"

namespace multicast {
namespace lm {

// Packs the last `order` tokens of `recent` under an order tag, as the
// production models do.
inline uint64_t ReferenceKey(const std::deque<token::TokenId>& recent,
                             int order) {
  uint64_t key = static_cast<uint64_t>(order) + 1;
  for (size_t i = recent.size() - static_cast<size_t>(order);
       i < recent.size(); ++i) {
    key = (key << 5) | static_cast<uint64_t>(recent[i] & 0x1f);
  }
  return key;
}

/// Monolithic interpolated Witten–Bell n-gram.
class ReferenceNGram final : public LanguageModel {
 public:
  ReferenceNGram(size_t vocab_size, const NGramOptions& options)
      : vocab_size_(vocab_size), options_(options) {}

  void Reset() override {
    entries_.clear();
    recent_.clear();
    observed_ = 0;
  }

  void Observe(token::TokenId id) override {
    const size_t w = static_cast<size_t>(id);
    const int max_ctx = static_cast<int>(std::min<size_t>(
        recent_.size(), static_cast<size_t>(options_.max_order)));
    for (int order = 0; order <= max_ctx; ++order) {
      Entry& e = entries_[ReferenceKey(recent_, order)];
      if (e.counts.empty()) e.counts.assign(vocab_size_, 0);
      if (e.counts[w] == 0) ++e.types;
      ++e.counts[w];
      ++e.total;
    }
    recent_.push_back(id);
    if (recent_.size() > static_cast<size_t>(options_.max_order)) {
      recent_.pop_front();
    }
    ++observed_;
  }

  std::vector<double> NextDistribution() const override {
    std::vector<double> probs(vocab_size_,
                              1.0 / static_cast<double>(vocab_size_));
    const int max_ctx = static_cast<int>(std::min<size_t>(
        recent_.size(), static_cast<size_t>(options_.max_order)));
    for (int order = 0; order <= max_ctx; ++order) {
      auto it = entries_.find(ReferenceKey(recent_, order));
      if (it == entries_.end() || it->second.total == 0) continue;
      const Entry& e = it->second;
      const double lambda =
          static_cast<double>(e.types) + options_.backoff_boost;
      const double denom = static_cast<double>(e.total) + lambda;
      for (size_t w = 0; w < vocab_size_; ++w) {
        probs[w] = (static_cast<double>(e.counts[w]) + lambda * probs[w]) /
                   denom;
      }
    }
    return Finish(std::move(probs), options_.uniform_mix);
  }

  size_t vocab_size() const override { return vocab_size_; }
  size_t context_length() const override { return observed_; }

  /// Distinct (context, next) pairs, as NGramLanguageModel::num_entries.
  size_t num_entries() const {
    size_t n = 0;
    for (const auto& [key, e] : entries_) n += e.types;
    return n;
  }
  /// Bytes the map takes under the shared malloc model: one node plus
  /// one out-of-line count vector per entry.
  size_t MapBytes() const {
    size_t bytes = 0;
    for (const auto& [key, e] : entries_) {
      bytes += ApproxMapEntryBytes(
          sizeof(void*) + sizeof(std::pair<const uint64_t, Entry>),
          e.counts.capacity() * sizeof(uint32_t));
    }
    return bytes;
  }

  /// Uniform mix, then exact renormalization (shared with the mixture).
  static std::vector<double> Finish(std::vector<double> probs, double mix) {
    if (mix > 0.0) {
      const double u = mix / static_cast<double>(probs.size());
      for (double& p : probs) p = (1.0 - mix) * p + u;
    }
    double sum = 0.0;
    for (double p : probs) sum += p;
    for (double& p : probs) p /= sum;
    return probs;
  }

 private:
  struct Entry {
    std::vector<uint32_t> counts;
    uint32_t total = 0;
    uint32_t types = 0;
  };
  size_t vocab_size_;
  NGramOptions options_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::deque<token::TokenId> recent_;
  size_t observed_ = 0;
};

/// Monolithic CTW-style context-depth mixture.
class ReferenceMixture final : public LanguageModel {
 public:
  ReferenceMixture(size_t vocab_size, const MixtureOptions& options)
      : vocab_size_(vocab_size), options_(options) {
    Reset();
  }

  void Reset() override {
    nodes_.clear();
    recent_.clear();
    observed_ = 0;
    depth_log_odds_.assign(static_cast<size_t>(options_.max_depth) + 1, 0.0);
  }

  void Observe(token::TokenId id) override {
    const size_t s = static_cast<size_t>(id);
    const size_t depths = MaxDepth() + 1;
    std::vector<double> below(depths), own(depths);
    std::vector<uint64_t> keys(depths);
    double running = 1.0 / static_cast<double>(vocab_size_);
    for (size_t d = 0; d < depths; ++d) {
      keys[d] = ReferenceKey(recent_, static_cast<int>(d));
      below[d] = running;
      auto it = nodes_.find(keys[d]);
      if (it == nodes_.end()) {
        own[d] = 1.0 / static_cast<double>(vocab_size_);
        continue;
      }
      own[d] = Kt(it->second, s);
      const double w = Weight(it->second, d);
      running = w * own[d] + (1.0 - w) * running;
    }
    const double prior = std::log(options_.prior_self_weight /
                                  (1.0 - options_.prior_self_weight));
    for (size_t d = 0; d < depths; ++d) {
      const double llr = std::log(own[d]) - std::log(below[d]);
      auto [it, fresh] = nodes_.try_emplace(keys[d]);
      Node& node = it->second;
      if (fresh) {
        node.counts.assign(vocab_size_, 0);
        node.log_self_odds = prior;
      }
      node.log_self_odds = std::clamp(node.log_self_odds + llr, -30.0, 30.0);
      ++node.counts[s];
      ++node.total;
      depth_log_odds_[d] = std::clamp(
          depth_log_odds_[d] + options_.depth_learning_rate * llr, -30.0,
          30.0);
    }
    recent_.push_back(id);
    if (recent_.size() > static_cast<size_t>(options_.max_depth)) {
      recent_.pop_front();
    }
    ++observed_;
  }

  std::vector<double> NextDistribution() const override {
    std::vector<double> mix(vocab_size_,
                            1.0 / static_cast<double>(vocab_size_));
    for (size_t d = 0; d <= MaxDepth(); ++d) {
      auto it = nodes_.find(ReferenceKey(recent_, static_cast<int>(d)));
      if (it == nodes_.end()) continue;
      const double w = Weight(it->second, d);
      for (size_t s = 0; s < vocab_size_; ++s) {
        mix[s] = w * Kt(it->second, s) + (1.0 - w) * mix[s];
      }
    }
    return ReferenceNGram::Finish(std::move(mix), options_.uniform_mix);
  }

  size_t vocab_size() const override { return vocab_size_; }
  size_t context_length() const override { return observed_; }
  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    std::vector<uint32_t> counts;
    uint32_t total = 0;
    double log_self_odds = 0.0;
  };
  size_t MaxDepth() const {
    return std::min<size_t>(recent_.size(),
                            static_cast<size_t>(options_.max_depth));
  }
  double Kt(const Node& node, size_t s) const {
    return (static_cast<double>(node.counts[s]) + options_.kt_alpha) /
           (static_cast<double>(node.total) +
            options_.kt_alpha * static_cast<double>(vocab_size_));
  }
  double Weight(const Node& node, size_t d) const {
    const double odds = std::exp(std::clamp(
        node.log_self_odds + depth_log_odds_[d], -30.0, 30.0));
    return odds / (1.0 + odds);
  }

  size_t vocab_size_;
  MixtureOptions options_;
  std::unordered_map<uint64_t, Node> nodes_;
  std::deque<token::TokenId> recent_;
  std::vector<double> depth_log_odds_;
  size_t observed_ = 0;
};

/// Reference model for `profile`'s family.
inline std::unique_ptr<LanguageModel> NewReferenceModel(
    const ModelProfile& profile, size_t vocab_size) {
  if (profile.backend == BackendKind::kMixture) {
    return std::make_unique<ReferenceMixture>(vocab_size, profile.mixture);
  }
  return std::make_unique<ReferenceNGram>(vocab_size, profile.ngram);
}

/// SimulatedLlm's decode loop over a reference model: replays the
/// prompt into a fresh reference, then samples with the profile's
/// sampler. Stateless across calls, so safe to share between threads.
class ReferenceLlm final : public LlmBackend {
 public:
  ReferenceLlm(ModelProfile profile, size_t vocab_size)
      : profile_(std::move(profile)), vocab_size_(vocab_size) {}

  std::string name() const override { return profile_.name; }
  size_t vocab_size() const override { return vocab_size_; }

  using LlmBackend::Complete;
  Result<GenerationResult> Complete(const std::vector<token::TokenId>& prompt,
                                    size_t num_tokens, const GrammarMask& mask,
                                    Rng* rng, const CallOptions&) override {
    MC_RETURN_IF_ERROR(ValidatePromptTokens(prompt, vocab_size_));
    std::unique_ptr<LanguageModel> model =
        NewReferenceModel(profile_, vocab_size_);
    for (token::TokenId id : prompt) model->Observe(id);
    MC_ASSIGN_OR_RETURN(std::vector<GrammarMask::Shared> cycle,
                        HoistGrammarCycle(mask, num_tokens, vocab_size_));
    GenerationResult result;
    result.ledger.prompt_tokens = prompt.size();
    for (size_t step = 0; step < num_tokens; ++step) {
      MC_ASSIGN_OR_RETURN(
          token::TokenId next,
          SampleToken(model->NextDistribution(), *cycle[step % cycle.size()],
                      profile_.sampler, rng));
      result.tokens.push_back(next);
      model->Observe(next);
      ++result.ledger.generated_tokens;
    }
    return result;
  }

 private:
  ModelProfile profile_;
  size_t vocab_size_;
};

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_TESTS_REFERENCE_MODELS_H_
