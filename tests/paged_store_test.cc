#include "lm/paged_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "lm/generator.h"
#include "lm/mixture_model.h"
#include "lm/ngram_model.h"
#include "lm/prefix_cache.h"
#include "lm/profiles.h"
#include "reference_models.h"
#include "util/metrics.h"

namespace multicast {
namespace lm {
namespace {

std::shared_ptr<BlockPool> MakePool(size_t block_span, size_t max_blocks) {
  PagedMemoryOptions options;
  options.block_span = block_span;
  options.max_blocks = max_blocks;
  return std::make_shared<BlockPool>(options);
}

// Deterministic token stream (LCG), independent of any global RNG.
std::vector<token::TokenId> TokenStream(size_t n, size_t vocab,
                                        uint64_t seed) {
  std::vector<token::TokenId> out;
  out.reserve(n);
  uint64_t s = seed;
  for (size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    out.push_back(static_cast<token::TokenId>((s >> 33) % vocab));
  }
  return out;
}

// Bit-identity: every probability must be the exact same double.
void ExpectSameDistribution(const LanguageModel& a, const LanguageModel& b) {
  const std::vector<double> pa = a.NextDistribution();
  const std::vector<double> pb = b.NextDistribution();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "token " << i;
  }
}

TEST(BlockPoolTest, AllocatesRecyclesAndTracksHighWater) {
  auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/0);
  BlockRef a = pool->Allocate(128);
  BlockRef b = pool->Allocate(128);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->bytes(), 128u);
  BlockPoolStats stats = pool->stats();
  EXPECT_EQ(stats.blocks_live, 2u);
  EXPECT_EQ(stats.blocks_peak, 2u);
  EXPECT_EQ(stats.bytes_live, 256u);
  EXPECT_EQ(stats.bytes_peak, 256u);
  EXPECT_EQ(stats.blocks_free, 0u);
  EXPECT_EQ(pool->Fullness(), 0.0);  // unbounded pool: no pressure

  a.reset();
  stats = pool->stats();
  EXPECT_EQ(stats.blocks_live, 1u);
  EXPECT_EQ(stats.blocks_free, 1u);
  EXPECT_EQ(stats.blocks_peak, 2u);  // high-water mark sticks

  // Same-size allocation comes from the freelist.
  BlockRef c = pool->Allocate(128);
  ASSERT_NE(c, nullptr);
  stats = pool->stats();
  EXPECT_EQ(stats.blocks_recycled, 1u);
  EXPECT_EQ(stats.blocks_live, 2u);
  EXPECT_EQ(stats.blocks_free, 0u);
}

TEST(BlockPoolTest, CapRefusesWithExhaustionEventAndFullness) {
  auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/2);
  BlockRef a = pool->Allocate(64);
  BlockRef b = pool->Allocate(64);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(pool->Fullness(), 1.0);
  BlockRef c = pool->Allocate(64);
  EXPECT_EQ(c, nullptr);
  EXPECT_EQ(pool->stats().exhaustion_events, 1u);
  // Releasing a block makes room again.
  a.reset();
  EXPECT_EQ(pool->Fullness(), 0.5);
  BlockRef d = pool->Allocate(64);
  EXPECT_NE(d, nullptr);
}

TEST(BlockPoolTest, BlockOutlivesPoolObject) {
  BlockRef survivor;
  {
    auto pool = MakePool(/*block_span=*/4, /*max_blocks=*/0);
    survivor = pool->Allocate(32);
    ASSERT_NE(survivor, nullptr);
  }
  // The deleter holds the pool internals alive; releasing after the
  // BlockPool object died must be safe (ASan-verified).
  std::memset(survivor->data(), 0xAB, survivor->bytes());
  survivor.reset();
}

TEST(BlockPoolTest, SessionAccountingAndMetricsRoundtrip) {
  auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/0);
  BlockRef a = pool->Allocate(100);
  pool->NoteSessionEnd(/*overlay_bytes=*/100, /*base_bytes=*/400);
  pool->NoteSessionEnd(/*overlay_bytes=*/300, /*base_bytes=*/400);
  BlockPoolStats stats = pool->stats();
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.session_overlay_bytes, 400u);
  EXPECT_EQ(stats.session_base_bytes, 800u);
  EXPECT_EQ(stats.bytes_per_session(), 200.0);
  EXPECT_EQ(stats.sharing_ratio(), 1200.0 / 100.0);

  util::MetricsRegistry registry;
  pool->PublishMetrics(&registry);
  const util::MetricsSnapshot snap = registry.Snapshot();
  BlockPoolStats back = BlockPoolStatsFromSnapshot(snap, "lm.mem.");
  EXPECT_EQ(back.blocks_live, stats.blocks_live);
  EXPECT_EQ(back.bytes_peak, stats.bytes_peak);
  EXPECT_EQ(back.sessions, stats.sessions);
  EXPECT_EQ(back.session_overlay_bytes, stats.session_overlay_bytes);
  EXPECT_EQ(snap.Value("lm.mem.pool_fullness"), 0.0);
}

TEST(PagedContextStoreTest, InsertFindForEachAndIndexGrowth) {
  auto pool = MakePool(/*block_span=*/16, /*max_blocks=*/0);
  PagedContextStore store(pool, /*slot_bytes=*/12);  // rounds up to 16
  EXPECT_EQ(store.slot_bytes(), 16u);
  const size_t n = 1000;
  for (uint64_t k = 1; k <= n; ++k) {
    std::byte* slot = store.Insert(k);
    ASSERT_NE(slot, nullptr);
    uint64_t tag = k * 3;
    std::memcpy(slot, &tag, sizeof(tag));
  }
  EXPECT_EQ(store.size(), n);
  EXPECT_EQ(store.num_blocks(), (n + 15) / 16);
  for (uint64_t k = 1; k <= n; ++k) {
    const std::byte* slot = store.Find(k);
    ASSERT_NE(slot, nullptr);
    uint64_t tag = 0;
    std::memcpy(&tag, slot, sizeof(tag));
    EXPECT_EQ(tag, k * 3);
  }
  EXPECT_EQ(store.Find(n + 1), nullptr);
  // ForEach visits every live entry exactly once.
  size_t visited = 0;
  uint64_t key_sum = 0;
  store.ForEach([&](uint64_t key, const std::byte*) {
    ++visited;
    key_sum += key;
  });
  EXPECT_EQ(visited, n);
  EXPECT_EQ(key_sum, n * (n + 1) / 2);
  EXPECT_GT(store.MemoryBytes(), n * 16);
}

TEST(PagedContextStoreTest, InsertReturnsNullOnPoolExhaustion) {
  auto pool = MakePool(/*block_span=*/4, /*max_blocks=*/1);
  PagedContextStore store(pool, /*slot_bytes=*/8);
  for (uint64_t k = 1; k <= 4; ++k) {
    ASSERT_NE(store.Insert(k), nullptr);
  }
  EXPECT_EQ(store.Insert(5), nullptr);  // cap hit: graceful refusal
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(pool->stats().exhaustion_events, 1u);
  // The refused insert left the store consistent.
  EXPECT_NE(store.Find(4), nullptr);
  EXPECT_EQ(store.Find(5), nullptr);
}

TEST(PagedContextStoreTest, MergeCompactAdoptsFullBlocksWithoutCopy) {
  auto pool = MakePool(/*block_span=*/4, /*max_blocks=*/0);
  auto layer = std::make_shared<PagedContextStore>(pool, /*slot_bytes=*/8);
  for (uint64_t k = 1; k <= 8; ++k) {  // exactly two full blocks
    std::byte* slot = layer->Insert(k);
    ASSERT_NE(slot, nullptr);
    std::memcpy(slot, &k, sizeof(k));
  }
  const size_t live_before = pool->stats().blocks_live;
  std::vector<std::shared_ptr<const PagedContextStore>> layers = {layer};
  std::shared_ptr<PagedContextStore> merged =
      PagedContextStore::MergeCompact(layers, pool);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->size(), 8u);
  // Every slot survives unshadowed, so both blocks are adopted by
  // refcount — no new allocation.
  EXPECT_EQ(pool->stats().blocks_live, live_before);
  EXPECT_EQ(merged->num_blocks(), 2u);
  for (uint64_t k = 1; k <= 8; ++k) {
    const std::byte* slot = merged->Find(k);
    ASSERT_NE(slot, nullptr);
    uint64_t v = 0;
    std::memcpy(&v, slot, sizeof(v));
    EXPECT_EQ(v, k);
  }
}

TEST(PagedContextStoreTest, MergeCompactNewestWinsAndCopiesShadowed) {
  auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/0);
  auto bottom = std::make_shared<PagedContextStore>(pool, /*slot_bytes=*/8);
  for (uint64_t k = 1; k <= 8; ++k) {
    std::byte* slot = bottom->Insert(k);
    ASSERT_NE(slot, nullptr);
    uint64_t v = 100 + k;
    std::memcpy(slot, &v, sizeof(v));
  }
  auto top = std::make_shared<PagedContextStore>(pool, /*slot_bytes=*/8);
  for (uint64_t k = 1; k <= 5; ++k) {  // shadows 5 of bottom's 8
    std::byte* slot = top->Insert(k);
    ASSERT_NE(slot, nullptr);
    uint64_t v = 200 + k;
    std::memcpy(slot, &v, sizeof(v));
  }
  std::vector<std::shared_ptr<const PagedContextStore>> layers = {bottom,
                                                                  top};
  std::shared_ptr<PagedContextStore> merged =
      PagedContextStore::MergeCompact(layers, pool);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->size(), 8u);
  for (uint64_t k = 1; k <= 8; ++k) {
    const std::byte* slot = merged->Find(k);
    ASSERT_NE(slot, nullptr);
    uint64_t v = 0;
    std::memcpy(&v, slot, sizeof(v));
    // The top layer shadows the bottom for keys 1..5 (newest wins).
    EXPECT_EQ(v, k <= 5 ? 200 + k : 100 + k) << "key " << k;
  }
}

// The store's invariant: a paged model holds byte-for-byte the integers
// a monolithic map-based model holds, so every distribution is
// bit-identical to the reference oracle (reference_models.h) — across
// observation, freeze/fork chains, base-layer compaction, pool
// exhaustion and u16 count promotion.

// Feeds `stream` to `model` and `reference` in `rounds` equal rounds,
// freezing and forking `model` after each, and checks bit-identity every
// `check_every` tokens and at each round's end. Returns the last fork.
template <typename Model>
std::unique_ptr<Model> ForkChainAgainstReference(
    std::unique_ptr<Model> model, LanguageModel* reference,
    const std::vector<token::TokenId>& stream, int rounds,
    size_t check_every) {
  const size_t per_round = stream.size() / static_cast<size_t>(rounds);
  size_t at = 0;
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < per_round; ++i, ++at) {
      model->Observe(stream[at]);
      reference->Observe(stream[at]);
      if (i % check_every == 0) ExpectSameDistribution(*reference, *model);
    }
    ExpectSameDistribution(*reference, *model);
    model->Freeze();
    model.reset(static_cast<Model*>(model->Fork().release()));
  }
  ExpectSameDistribution(*reference, *model);
  return model;
}

TEST(PagedModelIdentityTest, NGramMatchesPlainThroughForkChains) {
  const size_t vocab = 13;
  const std::vector<token::TokenId> stream = TokenStream(2400, vocab, 7);
  for (size_t max_layers : {size_t{2}, size_t{8}}) {
    NGramOptions opts;
    opts.max_base_layers = max_layers;
    auto pool = MakePool(/*block_span=*/16, /*max_blocks=*/0);
    ReferenceNGram reference(vocab, opts);
    auto model = ForkChainAgainstReference(
        std::make_unique<NGramLanguageModel>(vocab, opts, pool), &reference,
        stream, /*rounds=*/6, /*check_every=*/97);
    EXPECT_EQ(model->num_entries(), reference.num_entries());
    // Six frozen rounds: the tight chain compacted, the loose one not.
    if (max_layers == 2) {
      EXPECT_LE(model->num_base_layers(), 2u);
    } else {
      EXPECT_EQ(model->num_base_layers(), 6u);
    }
  }
}

TEST(PagedModelIdentityTest, NGramMatchesPlainUnderPoolExhaustion) {
  const size_t vocab = 11;
  // An 8-block pool far too small for the model: most entries take the
  // spill path, and the fork chain past max_base_layers compacts layers
  // that hold spilled entries (the overflow-only fallback).
  auto pool = MakePool(/*block_span=*/4, /*max_blocks=*/8);
  NGramOptions opts;
  opts.max_base_layers = 2;
  ReferenceNGram reference(vocab, opts);
  auto model = ForkChainAgainstReference(
      std::make_unique<NGramLanguageModel>(vocab, opts, pool), &reference,
      TokenStream(1500, vocab, 21), /*rounds=*/5, /*check_every=*/131);
  EXPECT_GT(pool->stats().exhaustion_events, 0u);
  EXPECT_LE(model->num_base_layers(), 2u);
  EXPECT_EQ(model->num_entries(), reference.num_entries());
}

TEST(PagedModelIdentityTest, NGramWideCountPromotionStaysIdentical) {
  const size_t vocab = 3;
  auto pool = MakePool(/*block_span=*/16, /*max_blocks=*/0);
  NGramOptions opts;
  opts.max_base_layers = 1;
  ReferenceNGram reference(vocab, opts);
  // One context observed past the u16 ceiling forces the narrow slot to
  // promote to a wide overflow entry mid-stream; the forks then seed
  // their overlays from a frozen wide entry and compact it.
  std::vector<token::TokenId> stream(70000, 0);
  stream.push_back(1);
  stream.push_back(0);
  auto model = ForkChainAgainstReference(
      std::make_unique<NGramLanguageModel>(vocab, opts, pool), &reference,
      stream, /*rounds=*/3, /*check_every=*/20000);
  for (token::TokenId id : {0, 1, 2, 0}) {
    model->Observe(id);
    reference.Observe(id);
    ExpectSameDistribution(reference, *model);
  }
  EXPECT_EQ(model->num_entries(), reference.num_entries());
}

TEST(PagedModelIdentityTest, MixtureMatchesPlainThroughForkChains) {
  const size_t vocab = 9;
  const std::vector<token::TokenId> stream = TokenStream(1800, vocab, 3);
  for (size_t max_layers : {size_t{2}, size_t{8}}) {
    MixtureOptions opts;
    opts.max_base_layers = max_layers;
    auto pool = MakePool(/*block_span=*/16, /*max_blocks=*/0);
    ReferenceMixture reference(vocab, opts);
    auto model = ForkChainAgainstReference(
        std::make_unique<MixtureLanguageModel>(vocab, opts, pool),
        &reference, stream, /*rounds=*/6, /*check_every=*/89);
    EXPECT_EQ(model->num_nodes(), reference.num_nodes());
    if (max_layers == 2) {
      EXPECT_LE(model->num_base_layers(), 2u);
    } else {
      EXPECT_EQ(model->num_base_layers(), 6u);
    }
  }
}

TEST(PagedModelIdentityTest, MixtureMatchesPlainUnderPoolExhaustion) {
  const size_t vocab = 7;
  auto pool = MakePool(/*block_span=*/4, /*max_blocks=*/8);
  MixtureOptions opts;
  opts.max_base_layers = 2;
  ReferenceMixture reference(vocab, opts);
  auto model = ForkChainAgainstReference(
      std::make_unique<MixtureLanguageModel>(vocab, opts, pool), &reference,
      TokenStream(1200, vocab, 17), /*rounds=*/4, /*check_every=*/113);
  EXPECT_GT(pool->stats().exhaustion_events, 0u);
  EXPECT_EQ(model->num_nodes(), reference.num_nodes());
}

TEST(PagedModelIdentityTest, MixtureWideCountPromotionStaysIdentical) {
  const size_t vocab = 3;
  auto pool = MakePool(/*block_span=*/16, /*max_blocks=*/0);
  MixtureOptions opts;
  opts.max_base_layers = 1;
  ReferenceMixture reference(vocab, opts);
  std::vector<token::TokenId> stream(70000, 2);
  stream.push_back(0);
  stream.push_back(2);
  auto model = ForkChainAgainstReference(
      std::make_unique<MixtureLanguageModel>(vocab, opts, pool), &reference,
      stream, /*rounds=*/3, /*check_every=*/20000);
  for (token::TokenId id : {2, 1, 2, 0}) {
    model->Observe(id);
    reference.Observe(id);
    ExpectSameDistribution(reference, *model);
  }
  EXPECT_EQ(model->num_nodes(), reference.num_nodes());
}

// Token-level store check. SimulatedLlm's decode loop over the paged
// models must emit exactly the tokens ReferenceLlm emits. A long decode
// makes every count of every order matter, so a store fault that a
// short forecast hides (an overlay entry not seeded from the frozen
// view, a stale reused lookup) changes the stream here.

// "dd," digit grammar: two digit positions, then a comma.
GrammarMask DigitGrammar() {
  auto digits = std::make_shared<const std::vector<bool>>(
      std::vector<bool>{true, true, true, true, true, true, true, true, true,
                        true, false});
  auto comma = std::make_shared<const std::vector<bool>>(
      std::vector<bool>{false, false, false, false, false, false, false,
                        false, false, false, true});
  return GrammarMask(
      [digits, comma](size_t step) { return step % 3 == 2 ? comma : digits; },
      /*period=*/3);
}

// A noisy seasonal series of two-digit values, as digit tokens with a
// comma after each value.
std::vector<token::TokenId> DigitSeries(size_t values, uint64_t seed) {
  std::vector<token::TokenId> out;
  uint64_t s = seed;
  for (size_t i = 0; i < values; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const int v = static_cast<int>(
        (50 + 40 * std::sin(static_cast<double>(i) * 0.5) + (s >> 60)) ) % 100;
    out.push_back(v / 10);
    out.push_back(v % 10);
    out.push_back(10);
  }
  return out;
}

// Decodes `num_tokens` tokens for each prompt, `draws` times each, with
// SimulatedLlm (paged model, prefix cache, `pool`) and ReferenceLlm from
// the same seeds, and requires identical token streams.
void ExpectDecodeMatchesReference(
    ModelProfile profile, size_t vocab, std::shared_ptr<BlockPool> pool,
    const std::vector<std::vector<token::TokenId>>& prompts,
    const GrammarMask& mask, size_t num_tokens, int draws) {
  profile.memory_pool = std::move(pool);
  SimulatedLlm llm(profile, vocab, std::make_shared<PrefixCache>());
  ReferenceLlm reference(profile, vocab);
  for (size_t r = 0; r < prompts.size(); ++r) {
    for (int d = 0; d < draws; ++d) {
      const uint64_t seed = 1000 + 31 * r + static_cast<uint64_t>(d);
      Rng rng_paged(seed);
      Rng rng_reference(seed);
      auto got = llm.Complete(prompts[r], num_tokens, mask, &rng_paged);
      auto want =
          reference.Complete(prompts[r], num_tokens, mask, &rng_reference);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_EQ(got.value().tokens.size(), num_tokens);
      ASSERT_EQ(got.value().tokens, want.value().tokens)
          << profile.name << " prompt " << r << " draw " << d;
    }
  }
}

TEST(PagedModelIdentityTest, DecodedTokensMatchReferenceThroughForkChains) {
  // Each prompt extends the previous one, so the prefix cache forks the
  // last cached state and freezes one more layer per round: five rounds
  // run the chain past max_base_layers = 2 and compact it. Every draw
  // forks the cached prompt and decodes 384 tokens on top of it.
  const size_t vocab = token::Vocabulary::Digits().size();
  const std::vector<token::TokenId> series = DigitSeries(260, 5);
  std::vector<std::vector<token::TokenId>> prompts;
  for (size_t values : {100, 130, 160, 190, 220, 250}) {
    prompts.emplace_back(series.begin(), series.begin() + 3 * values);
  }
  for (ModelProfile profile :
       {ModelProfile::Llama2_7B(), ModelProfile::CtwMixture()}) {
    profile.ngram.max_base_layers = 2;
    profile.mixture.max_base_layers = 2;
    ExpectDecodeMatchesReference(profile, vocab,
                                 MakePool(/*block_span=*/16, 0), prompts,
                                 DigitGrammar(), /*num_tokens=*/384,
                                 /*draws=*/3);
    // An 8-block pool: nearly every entry spills to overflow maps, and
    // compaction takes the overflow-only path.
    auto tiny = MakePool(/*block_span=*/4, /*max_blocks=*/8);
    ExpectDecodeMatchesReference(profile, vocab, tiny, prompts,
                                 DigitGrammar(), /*num_tokens=*/384,
                                 /*draws=*/3);
    EXPECT_GT(tiny->stats().exhaustion_events, 0u) << profile.name;
  }
}

TEST(PagedModelIdentityTest, DecodedTokensMatchReferenceAcrossPromotion) {
  // Zero runs of length 40, each ended by a 1 or a 2. The context of
  // `order` zeros (the deepest the model sees) is followed by a zero
  // just under 65,435 times in the prompt, so its u16 count saturates
  // and the entry promotes to a wide one during the decode, about a
  // hundred zeros in; shallower zero contexts already promoted in the
  // prompt, so the decode also seeds its overlay from frozen wide
  // entries. The 1s and 2s (about 3% of the mass after a zero run) keep
  // the stream sensitive to those counts; temperature 1 samples them as
  // the model predicts them instead of sharpening them away.
  const size_t vocab = 3;
  const size_t kRun = 40;
  for (ModelProfile profile :
       {ModelProfile::Llama2_7B(), ModelProfile::CtwMixture()}) {
    profile.sampler.temperature = 1.0;
    const size_t order =
        static_cast<size_t>(profile.backend == BackendKind::kMixture
                                ? profile.mixture.max_depth
                                : profile.ngram.max_order);
    const size_t runs = (65535 - 100) / (kRun - order);
    std::vector<token::TokenId> prompt;
    uint64_t s = 11;
    for (size_t r = 0; r < runs; ++r) {
      prompt.insert(prompt.end(), kRun, 0);
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      prompt.push_back(static_cast<token::TokenId>(1 + (s >> 63)));
    }
    prompt.insert(prompt.end(), kRun / 2, 0);
    ExpectDecodeMatchesReference(profile, vocab,
                                 MakePool(/*block_span=*/32, 0), {prompt},
                                 AllowAll(vocab), /*num_tokens=*/384,
                                 /*draws=*/3);
  }
}

// The decode-step memo (NextDistribution's lookups reused by the next
// Observe) must be invisible under any call order: NextDistribution
// twice before Observe, Observe with no NextDistribution before it,
// Reset or Freeze + Fork between the two, and the ExpectTokens hint.
template <typename Model>
void MemoEdgeCasesAgainstReference(std::unique_ptr<Model> model,
                                   LanguageModel* reference, size_t vocab) {
  const std::vector<token::TokenId> stream = TokenStream(3000, vocab, 29);
  uint64_t s = 5;
  for (size_t i = 0; i < stream.size(); ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    switch ((s >> 33) % 6) {
      case 0:  // the decode loop's order
        ExpectSameDistribution(*reference, *model);
        break;
      case 1:  // twice before Observe
        ExpectSameDistribution(*reference, *model);
        ExpectSameDistribution(*reference, *model);
        break;
      case 2:  // Observe alone
        break;
      case 3:  // Reset between the two
        if (i % 7 == 0) {
          (void)model->NextDistribution();
          model->Reset();
          reference->Reset();
        }
        break;
      case 4: {  // Freeze + Fork between the two
        (void)model->NextDistribution();
        model->Freeze();
        model.reset(static_cast<Model*>(model->Fork().release()));
        break;
      }
      case 5:  // a decode-budget hint between the two
        (void)model->NextDistribution();
        model->ExpectTokens(64);
        break;
    }
    model->Observe(stream[i]);
    reference->Observe(stream[i]);
    // Observe twice in a row: the second one must look up afresh.
    if (i % 5 == 0) {
      model->Observe(stream[i]);
      reference->Observe(stream[i]);
    }
  }
  ExpectSameDistribution(*reference, *model);
}

TEST(PagedModelIdentityTest, DecodeStepMemoEdgeCasesMatchReference) {
  const size_t vocab = 7;
  for (size_t max_blocks : {size_t{0}, size_t{8}}) {
    NGramOptions ngram;
    ngram.max_base_layers = 2;
    ReferenceNGram ngram_reference(vocab, ngram);
    MemoEdgeCasesAgainstReference(
        std::make_unique<NGramLanguageModel>(vocab, ngram,
                                             MakePool(4, max_blocks)),
        &ngram_reference, vocab);
    MixtureOptions mixture;
    mixture.max_base_layers = 2;
    ReferenceMixture mixture_reference(vocab, mixture);
    MemoEdgeCasesAgainstReference(
        std::make_unique<MixtureLanguageModel>(vocab, mixture,
                                               MakePool(4, max_blocks)),
        &mixture_reference, vocab);
  }
}

TEST(PagedModelIdentityTest, SessionEndFeedsPoolAccounting) {
  auto pool = MakePool(/*block_span=*/16, /*max_blocks=*/0);
  {
    NGramLanguageModel model(5, NGramOptions{}, pool);
    model.ObserveAll(TokenStream(200, 5, 9));
    MemoryFootprint fp = model.ApproxMemoryBytes();
    EXPECT_GT(fp.overlay_bytes, 0u);
  }
  BlockPoolStats stats = pool->stats();
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_GT(stats.session_overlay_bytes, 0u);
  EXPECT_EQ(stats.blocks_live, 0u);  // every block went home
  // Frozen models are cache entries, not sessions.
  {
    NGramLanguageModel model(5, NGramOptions{}, pool);
    model.ObserveAll(TokenStream(50, 5, 9));
    model.Freeze();
  }
  EXPECT_EQ(pool->stats().sessions, 1u);
}

// Satellite: evicting a cached prefix while live forks still hold its
// frozen layers must keep every block alive by refcount; the blocks
// return to the freelist only when the last fork dies.
TEST(PagedEvictionLivenessTest, EvictedPrefixBlocksSurviveLiveForks) {
  const size_t vocab = 13;
  auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/0);
  PrefixCache cache(/*capacity=*/1);
  const uint64_t fingerprint = 0xFEEDu;
  auto fresh = [&]() -> std::unique_ptr<LanguageModel> {
    return std::make_unique<NGramLanguageModel>(vocab, NGramOptions{},
                                                pool);
  };
  const std::vector<token::TokenId> prompt1 = TokenStream(300, vocab, 4);
  const std::vector<token::TokenId> prompt2 = TokenStream(300, vocab, 5);

  // N live forks off the cached prompt1 state.
  std::vector<std::unique_ptr<LanguageModel>> forks;
  for (int i = 0; i < 3; ++i) {
    forks.push_back(cache.AcquireSession(fingerprint, prompt1, fresh));
  }
  ASSERT_EQ(cache.stats().misses, 1u);
  ASSERT_EQ(cache.stats().full_hits, 2u);
  const size_t free_before_evict = pool->stats().blocks_free;

  // Capacity 1: caching prompt2 evicts prompt1's entry.
  auto other = cache.AcquireSession(fingerprint, prompt2, fresh);
  ASSERT_EQ(cache.stats().evictions, 1u);

  // The forks still hold prompt1's frozen blocks: nothing was freed by
  // the eviction itself, and the forks still read the exact state a
  // fresh model fed prompt1 would hold.
  EXPECT_EQ(pool->stats().blocks_free, free_before_evict);
  ReferenceNGram reference(vocab, NGramOptions{});
  for (token::TokenId id : prompt1) reference.Observe(id);
  for (const auto& fork : forks) ExpectSameDistribution(reference, *fork);

  // Forks die one by one; only the LAST release returns the frozen
  // blocks to the freelist.
  forks.pop_back();
  forks.pop_back();
  const size_t free_with_one_fork = pool->stats().blocks_free;
  forks.clear();
  EXPECT_GT(pool->stats().blocks_free, free_with_one_fork);
  EXPECT_EQ(pool->stats().sessions, 3u);
}

// Satellite: PrefixCache::bytes() reports true resident bytes and the
// metrics gauge mirrors it.
TEST(PrefixCacheBytesTest, BytesGaugeTracksResidentState) {
  const size_t vocab = 13;
  auto pool = MakePool(/*block_span=*/8, /*max_blocks=*/0);
  PrefixCache cache(/*capacity=*/4);
  auto fresh = [&]() -> std::unique_ptr<LanguageModel> {
    return std::make_unique<NGramLanguageModel>(vocab, NGramOptions{},
                                                pool);
  };
  EXPECT_EQ(cache.bytes(), 0u);
  auto s1 = cache.AcquireSession(0xA, TokenStream(200, vocab, 1), fresh);
  const size_t bytes_one = cache.bytes();
  EXPECT_GT(bytes_one, 0u);
  auto s2 = cache.AcquireSession(0xA, TokenStream(200, vocab, 2), fresh);
  const size_t bytes_two = cache.bytes();
  EXPECT_GT(bytes_two, bytes_one);

  util::MetricsRegistry registry;
  cache.PublishMetrics(&registry);
  EXPECT_EQ(registry.Snapshot().Value("prefix_cache.bytes"),
            static_cast<double>(bytes_two));

  cache.Clear();
  EXPECT_EQ(cache.bytes(), 0u);
}

// Paged layers should be denser than a map of per-entry nodes for the
// same logical state (that is the point of the store).
TEST(PagedModelIdentityTest, PagedFootprintBeatsPlainMaps) {
  const size_t vocab = 13;
  auto pool = MakePool(/*block_span=*/32, /*max_blocks=*/0);
  ReferenceNGram plain(vocab, NGramOptions{});
  NGramLanguageModel paged(vocab, NGramOptions{}, pool);
  const std::vector<token::TokenId> stream = TokenStream(3000, vocab, 31);
  for (token::TokenId id : stream) plain.Observe(id);
  paged.ObserveAll(stream);
  ExpectSameDistribution(plain, paged);
  const size_t plain_bytes = plain.MapBytes();
  const size_t paged_bytes = paged.ApproxMemoryBytes().total();
  EXPECT_GT(plain_bytes, 0u);
  EXPECT_GT(paged_bytes, 0u);
  EXPECT_LT(paged_bytes * 2, plain_bytes)
      << "paged " << paged_bytes << " vs plain " << plain_bytes;
}

}  // namespace
}  // namespace lm
}  // namespace multicast
