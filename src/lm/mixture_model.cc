#include "lm/mixture_model.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace multicast {
namespace lm {

MixtureLanguageModel::Slot::Wide MixtureLanguageModel::Slot::Widen(
    const std::byte* slot) const {
  Wide wide;
  wide.counts.assign(vocab_size, 0);
  if (slot == nullptr) return wide;
  const uint16_t* counts = NarrowCounts(slot, kCountsOffset);
  std::copy(counts, counts + vocab_size, wide.counts.begin());
  wide.total = LoadU32(slot, kTotalOffset);
  wide.log_self_odds = LoadF64(slot, kLsoOffset);
  return wide;
}

MixtureLanguageModel::MixtureLanguageModel(size_t vocab_size,
                                           const MixtureOptions& options,
                                           std::shared_ptr<BlockPool> pool)
    : vocab_size_(vocab_size),
      options_(options),
      prior_log_odds_(std::log(options.prior_self_weight /
                               (1.0 - options.prior_self_weight))),
      store_(Slot{vocab_size}, std::move(pool),
             options.max_base_layers) {
  MC_CHECK(vocab_size_ >= 2 && vocab_size_ <= 31);
  MC_CHECK(options_.max_depth >= 1 && options_.max_depth <= kMaxDepth);
  MC_CHECK(options_.kt_alpha > 0.0);
  MC_CHECK(options_.prior_self_weight > 0.0 &&
           options_.prior_self_weight < 1.0);
  MC_CHECK(options_.uniform_mix >= 0.0 && options_.uniform_mix < 1.0);
  depth_log_odds_.assign(static_cast<size_t>(options_.max_depth) + 1, 0.0);
}

void MixtureLanguageModel::Reset() {
  observed_ = 0;
  history_ = 0;
  memo_valid_ = false;
  store_.Reset();
  depth_log_odds_.assign(static_cast<size_t>(options_.max_depth) + 1, 0.0);
}

void MixtureLanguageModel::Freeze() {
  memo_valid_ = false;
  store_.Freeze();
}

int MixtureLanguageModel::DepthsInWindow() const {
  return static_cast<int>(std::min<size_t>(
      observed_, static_cast<size_t>(options_.max_depth)));
}

bool MixtureLanguageModel::ViewNode(
    const LayeredContextStore<Slot>::Ref& ref, NodeView* node) {
  if (ref.slot != nullptr) {
    node->narrow = NarrowCounts(ref.slot, Slot::kCountsOffset);
    node->total = LoadU32(ref.slot, Slot::kTotalOffset);
    node->log_self_odds = LoadF64(ref.slot, Slot::kLsoOffset);
    return true;
  }
  if (ref.wide != nullptr) {
    node->wide = ref.wide->counts.data();
    node->total = ref.wide->total;
    node->log_self_odds = ref.wide->log_self_odds;
    return true;
  }
  return false;
}

double MixtureLanguageModel::KtProb(const NodeView& node,
                                    size_t symbol) const {
  // Narrow (u16) and wide (u32) counts cast to the same doubles.
  const double count = node.narrow != nullptr
                           ? static_cast<double>(node.narrow[symbol])
                           : static_cast<double>(node.wide[symbol]);
  double num = count + options_.kt_alpha;
  double den = static_cast<double>(node.total) +
               options_.kt_alpha * static_cast<double>(vocab_size_);
  return num / den;
}

void MixtureLanguageModel::UpdateNode(const Located& at, size_t symbol,
                                      double llr) {
  // Clamp so a long stretch of wins cannot freeze the weight forever.
  auto entry = store_.Write(at);
  if (entry.slot != nullptr) {
    std::byte* p = entry.slot;
    if (entry.fresh) StoreF64(p, Slot::kLsoOffset, prior_log_odds_);
    uint16_t* counts = NarrowCounts(p, Slot::kCountsOffset);
    if (counts[symbol] != 0xffff) {
      StoreF64(p, Slot::kLsoOffset,
               std::clamp(LoadF64(p, Slot::kLsoOffset) + llr, -30.0, 30.0));
      ++counts[symbol];
      StoreU32(p, Slot::kTotalOffset, LoadU32(p, Slot::kTotalOffset) + 1);
      return;
    }
    // u16 saturation: promote the node to a wide overflow entry.
    entry.wide = &store_.Promote(at.key, p);
  }
  Slot::Wide& node = *entry.wide;
  if (entry.fresh) node.log_self_odds = prior_log_odds_;
  node.log_self_odds = std::clamp(node.log_self_odds + llr, -30.0, 30.0);
  ++node.counts[symbol];
  ++node.total;
}

void MixtureLanguageModel::MixturePath(std::vector<double>* mix) const {
  mix->assign(vocab_size_, 1.0 / static_cast<double>(vocab_size_));
  const bool record = !store_.frozen();
  const int max_depth = DepthsInWindow();
  for (int d = 0; d <= max_depth; ++d) {
    const Located at = store_.Locate(PackedContextKey(history_, d));
    if (record) memo_[d] = at;
    NodeView node;
    if (!ViewNode(at.ref, &node)) {
      continue;  // unseen context: defer to shallower
    }
    double odds = std::exp(std::clamp(
        node.log_self_odds + depth_log_odds_[static_cast<size_t>(d)],
        -30.0, 30.0));
    double w = odds / (1.0 + odds);
    for (size_t s = 0; s < vocab_size_; ++s) {
      (*mix)[s] = w * KtProb(node, s) + (1.0 - w) * (*mix)[s];
    }
  }
  memo_valid_ = record;
}

void MixtureLanguageModel::Observe(token::TokenId id) {
  MC_CHECK(!frozen());  // Fork() a session instead of mutating a frozen base.
  MC_CHECK(id >= 0 && static_cast<size_t>(id) < vocab_size_);
  const size_t symbol = static_cast<size_t>(id);
  const int max_depth = DepthsInWindow();

  // 1. Pre-update predictive probabilities of `symbol` at every depth:
  // shallow[d] is the full mixture up to depth d, own[d] the node's KT.
  // One lookup per depth (the preceding NextDistribution's, when there
  // was one) serves both this pass and the update below.
  std::array<Located, kMaxDepth + 1> at;
  std::array<double, kMaxDepth + 1> mix_below;
  std::array<double, kMaxDepth + 1> own;
  double running = 1.0 / static_cast<double>(vocab_size_);
  for (int d = 0; d <= max_depth; ++d) {
    at[d] = memo_valid_ ? memo_[d]
                        : store_.Locate(PackedContextKey(history_, d));
    NodeView node;
    mix_below[d] = running;  // mixture of depths < d at `symbol`
    if (ViewNode(at[d].ref, &node)) {
      own[d] = KtProb(node, symbol);
      double odds = std::exp(std::clamp(
          node.log_self_odds + depth_log_odds_[static_cast<size_t>(d)],
          -30.0, 30.0));
      double w = odds / (1.0 + odds);
      running = w * own[d] + (1.0 - w) * running;
    } else {
      // Fresh node: its KT estimator is uniform.
      own[d] = 1.0 / static_cast<double>(vocab_size_);
    }
  }
  memo_valid_ = false;

  // 2. Bayesian weight update per node (posterior odds multiply by the
  // likelihood ratio of "my estimator" vs "the shallower mixture"),
  // then count updates.
  for (int d = 0; d <= max_depth; ++d) {
    double llr = std::log(own[d]) - std::log(mix_below[d]);
    UpdateNode(at[d], symbol, llr);
    depth_log_odds_[static_cast<size_t>(d)] = std::clamp(
        depth_log_odds_[static_cast<size_t>(d)] +
            options_.depth_learning_rate * llr,
        -30.0, 30.0);
  }

  history_ = PushContextToken(history_, id);
  ++observed_;
}

void MixtureLanguageModel::ObserveAll(
    const std::vector<token::TokenId>& ids) {
  for (token::TokenId id : ids) Observe(id);
}

void MixtureLanguageModel::NextDistribution(std::vector<double>* out) const {
  MixturePath(out);
  std::vector<double>& probs = *out;
  if (options_.uniform_mix > 0.0) {
    double u = options_.uniform_mix / static_cast<double>(vocab_size_);
    for (double& p : probs) {
      p = (1.0 - options_.uniform_mix) * p + u;
    }
  }
  double sum = 0.0;
  for (double p : probs) sum += p;
  for (double& p : probs) p /= sum;
}

std::vector<double> MixtureLanguageModel::NextDistribution() const {
  std::vector<double> probs;
  NextDistribution(&probs);
  return probs;
}

std::unique_ptr<LanguageModel> MixtureLanguageModel::Fork() const {
  MC_CHECK(frozen());  // Freeze() before forking decode sessions.
  auto fork = std::make_unique<MixtureLanguageModel>(vocab_size_, options_,
                                                     store_.pool());
  fork->observed_ = observed_;
  fork->history_ = history_;
  fork->store_.ShareBase(store_);
  fork->depth_log_odds_ = depth_log_odds_;
  return fork;
}

void MixtureLanguageModel::ExpectTokens(size_t num_tokens) {
  store_.ReserveForDecode(num_tokens,
                          static_cast<size_t>(options_.max_depth) + 1);
}

size_t MixtureLanguageModel::num_nodes() const {
  size_t n = 0;
  store_.ForEachEffective([&](uint64_t, const auto&) { ++n; });
  return n;
}

}  // namespace lm
}  // namespace multicast
