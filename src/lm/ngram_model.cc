#include "lm/ngram_model.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace multicast {
namespace lm {

NGramLanguageModel::Slot::Wide NGramLanguageModel::Slot::Widen(
    const std::byte* slot) const {
  Wide wide;
  wide.counts.assign(vocab_size, 0);
  if (slot == nullptr) return wide;
  const uint16_t* counts = NarrowCounts(slot, kCountsOffset);
  std::copy(counts, counts + vocab_size, wide.counts.begin());
  wide.total = LoadU32(slot, kTotalOffset);
  wide.types = LoadU16(slot, kTypesOffset);
  return wide;
}

NGramLanguageModel::NGramLanguageModel(size_t vocab_size,
                                       const NGramOptions& options,
                                       std::shared_ptr<BlockPool> pool)
    : vocab_size_(vocab_size),
      options_(options),
      store_(Slot{vocab_size}, std::move(pool),
             options.max_base_layers) {
  MC_CHECK(vocab_size_ >= 2 && vocab_size_ <= 31);
  MC_CHECK(options_.max_order >= 1 && options_.max_order <= kMaxOrder);
  MC_CHECK(options_.backoff_boost >= 0.0);
  MC_CHECK(options_.uniform_mix >= 0.0 && options_.uniform_mix < 1.0);
}

void NGramLanguageModel::Reset() {
  observed_ = 0;
  history_ = 0;
  memo_valid_ = false;
  store_.Reset();
}

void NGramLanguageModel::Freeze() {
  memo_valid_ = false;
  store_.Freeze();
}

int NGramLanguageModel::OrdersInWindow() const {
  return static_cast<int>(std::min<size_t>(
      observed_, static_cast<size_t>(options_.max_order)));
}

void NGramLanguageModel::Count(const Located& at, size_t w) {
  auto entry = store_.Write(at);
  if (entry.slot != nullptr) {
    std::byte* p = entry.slot;
    uint16_t* counts = NarrowCounts(p, Slot::kCountsOffset);
    if (counts[w] != 0xffff) {
      if (counts[w] == 0) {
        StoreU16(p, Slot::kTypesOffset,
                 static_cast<uint16_t>(LoadU16(p, Slot::kTypesOffset) + 1));
      }
      ++counts[w];
      StoreU32(p, Slot::kTotalOffset, LoadU32(p, Slot::kTotalOffset) + 1);
      return;
    }
    // u16 saturation: promote the whole entry to a wide overflow entry.
    entry.wide = &store_.Promote(at.key, p);
  }
  Slot::Wide& cc = *entry.wide;
  if (cc.counts[w] == 0) ++cc.types;
  ++cc.counts[w];
  ++cc.total;
}

void NGramLanguageModel::Observe(token::TokenId id) {
  MC_CHECK(!frozen());  // Fork() a session instead of mutating a frozen base.
  MC_CHECK(id >= 0 && static_cast<size_t>(id) < vocab_size_);
  // Record `id` as the continuation of every context order that is fully
  // available in the window (order 0 = unigram always is), writing
  // through the lookups of the NextDistribution just before, if any.
  const int max_ctx = OrdersInWindow();
  for (int order = 0; order <= max_ctx; ++order) {
    Count(memo_valid_ ? memo_[order]
                      : store_.Locate(PackedContextKey(history_, order)),
          static_cast<size_t>(id));
  }
  memo_valid_ = false;
  history_ = PushContextToken(history_, id);
  ++observed_;
}

void NGramLanguageModel::ObserveAll(const std::vector<token::TokenId>& ids) {
  for (token::TokenId id : ids) Observe(id);
}

void NGramLanguageModel::NextDistribution(std::vector<double>* out) const {
  // Interpolated Witten–Bell, built bottom-up: start from uniform, then
  // for each order k with counts, blend
  //   P_k(w) = (c(h_k, w) + (T(h_k) + boost) * P_{k-1}(w))
  //            / (c(h_k) + T(h_k) + boost).
  // Narrow (u16) and wide (u32) counts cast to the same doubles.
  std::vector<double>& probs = *out;
  probs.assign(vocab_size_, 1.0 / static_cast<double>(vocab_size_));
  const bool record = !store_.frozen();
  const int max_ctx = OrdersInWindow();
  for (int order = 0; order <= max_ctx; ++order) {
    const Located at = store_.Locate(PackedContextKey(history_, order));
    if (record) memo_[order] = at;
    const auto& ref = at.ref;
    const uint16_t* narrow = nullptr;
    const uint32_t* wide = nullptr;
    uint32_t total = 0;
    uint32_t types = 0;
    if (ref.slot != nullptr) {
      narrow = NarrowCounts(ref.slot, Slot::kCountsOffset);
      total = LoadU32(ref.slot, Slot::kTotalOffset);
      types = LoadU16(ref.slot, Slot::kTypesOffset);
    } else if (ref.wide != nullptr) {
      wide = ref.wide->counts.data();
      total = ref.wide->total;
      types = ref.wide->types;
    }
    if (total == 0) continue;
    double lambda = static_cast<double>(types) + options_.backoff_boost;
    double denom = static_cast<double>(total) + lambda;
    for (size_t w = 0; w < vocab_size_; ++w) {
      const double c = narrow != nullptr ? static_cast<double>(narrow[w])
                                         : static_cast<double>(wide[w]);
      probs[w] = (c + lambda * probs[w]) / denom;
    }
  }

  if (options_.uniform_mix > 0.0) {
    double u = options_.uniform_mix / static_cast<double>(vocab_size_);
    for (double& p : probs) {
      p = (1.0 - options_.uniform_mix) * p + u;
    }
  }

  // Guard against drift: renormalize exactly.
  double sum = 0.0;
  for (double p : probs) sum += p;
  for (double& p : probs) p /= sum;
  memo_valid_ = record;
}

std::vector<double> NGramLanguageModel::NextDistribution() const {
  std::vector<double> probs;
  NextDistribution(&probs);
  return probs;
}

std::unique_ptr<LanguageModel> NGramLanguageModel::Fork() const {
  MC_CHECK(frozen());  // Freeze() before forking decode sessions.
  auto fork = std::make_unique<NGramLanguageModel>(vocab_size_, options_,
                                                   store_.pool());
  fork->observed_ = observed_;
  fork->history_ = history_;
  fork->store_.ShareBase(store_);
  return fork;
}

void NGramLanguageModel::ExpectTokens(size_t num_tokens) {
  store_.ReserveForDecode(num_tokens,
                          static_cast<size_t>(options_.max_order) + 1);
}

size_t NGramLanguageModel::num_entries() const {
  size_t n = 0;
  store_.ForEachEffective([&](uint64_t, const auto& ref) {
    n += ref.slot != nullptr ? LoadU16(ref.slot, Slot::kTypesOffset)
                             : ref.wide->types;
  });
  return n;
}

}  // namespace lm
}  // namespace multicast
