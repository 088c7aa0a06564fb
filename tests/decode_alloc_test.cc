// A decode step does no heap work once a session's buffers are sized:
// NextDistribution (in place), SampleToken on its temperature-only path
// and Observe of a context the session already holds allocate nothing.
// This binary replaces the global operator new to count allocations on
// the calling thread.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "lm/language_model.h"
#include "lm/mixture_model.h"
#include "lm/ngram_model.h"
#include "lm/sampler.h"
#include "util/random.h"

namespace {
thread_local size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace multicast {
namespace lm {
namespace {

// Runs `steps` decode steps over a periodic stream the model has already
// learned, so every context key is in the session's overlay, and returns
// the allocations they made. The sampled token is drawn (and consumes
// its RNG draw) but the stream's token is observed, so no new context
// is ever inserted.
size_t AllocationsPerDecode(LanguageModel* model, size_t steps) {
  const size_t vocab = model->vocab_size();
  std::vector<token::TokenId> period;
  for (size_t i = 0; i < vocab; ++i) {
    period.push_back(static_cast<token::TokenId>(i));
  }
  for (int r = 0; r < 40; ++r) {
    for (token::TokenId id : period) model->Observe(id);
  }
  const std::vector<bool> allowed(vocab, true);
  SamplerOptions sampler;
  sampler.temperature = 0.9;
  Rng rng(3);
  std::vector<double> probs;
  auto step = [&](size_t i) {
    model->NextDistribution(&probs);
    Result<token::TokenId> next = SampleToken(probs, allowed, sampler, &rng);
    EXPECT_TRUE(next.ok());
    model->Observe(period[i % period.size()]);
  };
  step(0);  // sizes the probs buffer and the sampler's weights
  const size_t before = g_allocations;
  for (size_t i = 1; i <= steps; ++i) step(i);
  return g_allocations - before;
}

TEST(DecodeAllocTest, NGramDecodeStepAllocatesNothing) {
  NGramLanguageModel model(11, NGramOptions{});
  EXPECT_EQ(AllocationsPerDecode(&model, 500), 0u);
}

TEST(DecodeAllocTest, MixtureDecodeStepAllocatesNothing) {
  MixtureLanguageModel model(11, MixtureOptions{});
  EXPECT_EQ(AllocationsPerDecode(&model, 500), 0u);
}

TEST(DecodeAllocTest, CounterSeesAllocations) {
  // The replacement operator new is live in this binary.
  const size_t before = g_allocations;
  auto p = std::make_unique<std::vector<int>>(16);
  EXPECT_GT(g_allocations, before);
}

}  // namespace
}  // namespace lm
}  // namespace multicast
