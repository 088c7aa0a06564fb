// Paged session memory: the one context store behind both LM families.
//
// Every decode session layers a private copy-on-write overlay over
// shared frozen base layers (language_model.h Freeze()/Fork()). Context
// state lives in fixed-span, refcounted blocks rather than per-entry map
// nodes, so concurrent draws share frozen prompt state at block
// granularity and a session's private bytes stay a fraction of what a
// map node plus a heap count vector per entry would cost.
//
//   BlockPool             — the process-wide (or per-replica) authority
//                           for fixed-size storage blocks: refcounted
//                           handles, a freelist that recycles returned
//                           buffers, a live/peak high-water gauge, an
//                           optional block cap whose refusal is an
//                           *exhaustion event* (the overload ladder
//                           sheds on the pool's fullness), and
//                           per-session byte accounting.
//
//   PagedContextStore     — one layer's context table: 64-bit context
//                           keys mapped to fixed-size payload slots
//                           packed into pool blocks, with a flat
//                           open-addressed index (4 bytes per cell).
//                           MergeCompact() collapses a layer chain by
//                           *adopting* blocks whose slots survive mostly
//                           unshadowed (refcount bump, zero copy) and
//                           copying only conflicted slots.
//
//   LayeredContextStore   — the layer chain a model session reads and
//                           writes: frozen layers shared by refcount,
//                           one private overlay, and per layer a "wide"
//                           overflow map for entries that outgrow the
//                           slot's u16 counts or that the pool had no
//                           block for. The models supply only their slot
//                           layout and their arithmetic.
//
// Who copies what (the COW contract, mirrored in DESIGN.md §5k):
//   * A fork shares every frozen block by refcount. Writing a context
//     key copies that key's slot (never the block, never the layer)
//     into the fork's private overlay — byte-for-byte the same integers
//     a monolithic model would hold, so all downstream float math is
//     bit-identical (tests/reference_models.h is the oracle).
//   * Freeze() moves the overlay's blocks into a frozen layer without
//     copying; compaction adopts or copies per block (see above).
//   * Blocks return to the pool freelist only when the last layer
//     holding them dies — evicting a cached prefix while live forks
//     still share its layers frees nothing until those forks finish.
//
// Exhaustion is graceful by construction: a store whose pool refuses a
// new block spills that entry to the overflow map instead — decode never
// fails mid-token and output stays bit-identical; the pool counts the
// event and its fullness feeds the serving layer's admission ladder,
// which sheds *before* dispatch (serve/overload.h).

#ifndef MULTICAST_LM_PAGED_STORE_H_
#define MULTICAST_LM_PAGED_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lm/language_model.h"
#include "util/metrics.h"
#include "util/status.h"

namespace multicast {
namespace lm {

/// Accepted range of PagedMemoryOptions::block_span.
inline constexpr size_t kMinBlockSpan = 4;
inline constexpr size_t kMaxBlockSpan = 4096;

/// Pool geometry, carried by lm::ModelProfile into every decode-model
/// construction site.
struct PagedMemoryOptions {
  /// Ignored: every model stores its layers in the pool. Kept so
  /// existing callers that set it still compile.
  bool enabled = false;
  /// Payload slots per block, in [kMinBlockSpan, kMaxBlockSpan]. Larger
  /// spans amortize allocation but coarsen the freelist granularity.
  size_t block_span = 32;
  /// Pool-wide cap on live blocks; 0 = unbounded. Allocation beyond the
  /// cap fails (an exhaustion event) and callers degrade gracefully.
  size_t max_blocks = 0;
};

/// One refcounted storage block. Handles are std::shared_ptr<Block>
/// whose deleter returns the buffer to the owning pool's freelist, so
/// "refcount" is the shared_ptr control block and a block is recycled
/// exactly when its last holder (overlay store, frozen layer, fork)
/// lets go.
class Block {
 public:
  Block(std::unique_ptr<std::byte[]> data, size_t bytes)
      : data_(std::move(data)), bytes_(bytes) {}
  std::byte* data() { return data_.get(); }
  const std::byte* data() const { return data_.get(); }
  size_t bytes() const { return bytes_; }

 private:
  friend class BlockPool;
  std::unique_ptr<std::byte[]> data_;
  size_t bytes_;
};

using BlockRef = std::shared_ptr<Block>;

/// Cumulative pool counters (also published as lm.mem.* metrics).
struct BlockPoolStats {
  size_t blocks_live = 0;       ///< allocated and still referenced
  size_t blocks_peak = 0;       ///< high-water mark of blocks_live
  size_t blocks_free = 0;       ///< returned, parked on the freelist
  size_t bytes_live = 0;        ///< bytes behind blocks_live
  size_t bytes_peak = 0;        ///< high-water mark of bytes_live
  size_t blocks_recycled = 0;   ///< allocations served from the freelist
  size_t exhaustion_events = 0; ///< allocations refused by max_blocks
  size_t sessions = 0;          ///< decode sessions that ended
  size_t session_overlay_bytes = 0;  ///< summed private overlay bytes
  size_t session_base_bytes = 0;     ///< summed (logical) frozen-base bytes

  /// Mean private bytes per ended session (0 before any ended).
  double bytes_per_session() const {
    return sessions == 0 ? 0.0
                         : static_cast<double>(session_overlay_bytes) /
                               static_cast<double>(sessions);
  }
  /// Logical bytes sessions conditioned on (each counting its full
  /// frozen base) over the peak physical bytes the pool ever held: how
  /// many times over the refcounted blocks were shared. 0 when the pool
  /// never held a block.
  double sharing_ratio() const {
    return bytes_peak == 0
               ? 0.0
               : static_cast<double>(session_overlay_bytes +
                                     session_base_bytes) /
                     static_cast<double>(bytes_peak);
  }
};

/// Registry view: gauges/counters under `prefix` ("lm.mem." by
/// convention). Publishes cumulative totals — call once per registry,
/// like the other Publish* views.
void PublishBlockPoolStats(const BlockPoolStats& stats,
                           util::MetricsRegistry* registry,
                           const std::string& prefix);
BlockPoolStats BlockPoolStatsFromSnapshot(
    const util::MetricsSnapshot& snapshot, const std::string& prefix);

/// See file comment. Thread-safe: one mutex guards the freelist and
/// counters; block payload access is the caller's concern (immutable
/// once frozen, private while mutable — the Freeze()/Fork() contract).
/// Construction allocates no blocks.
class BlockPool {
 public:
  /// `options.block_span` must lie in [kMinBlockSpan, kMaxBlockSpan].
  explicit BlockPool(const PagedMemoryOptions& options = {});

  const PagedMemoryOptions& options() const { return options_; }

  /// One refcounted block of >= `bytes` bytes (freelist buffers are
  /// size-matched exactly, so in practice == bytes). Null when the
  /// max_blocks cap is reached — an exhaustion event; callers must
  /// degrade (spill to the overflow map), never fail.
  BlockRef Allocate(size_t bytes);

  /// A mutable decode session ended, holding `overlay_bytes` of private
  /// state over `base_bytes` of (shared) frozen base.
  void NoteSessionEnd(size_t overlay_bytes, size_t base_bytes);

  /// Live blocks over max_blocks, in [0, 1]; 0 when unbounded. The
  /// overload ladder's memory-pressure observable.
  double Fullness() const;

  BlockPoolStats stats() const;
  /// Publishes stats() under `prefix` plus a `fullness` gauge. Call
  /// once per registry (cumulative totals, like the other views).
  void PublishMetrics(util::MetricsRegistry* registry,
                      const std::string& prefix = "lm.mem.") const;

 private:
  struct Shared {
    mutable std::mutex mu;
    // Freelist keyed by exact buffer size (one model family & vocab
    // yields one or two sizes in practice).
    std::unordered_map<size_t, std::vector<std::unique_ptr<std::byte[]>>>
        freelist;
    BlockPoolStats stats;
    size_t max_blocks = 0;
  };

  const PagedMemoryOptions options_;
  // Shared with every handed-out block's deleter, so returned buffers
  // find their way home even if they outlive the BlockPool object.
  std::shared_ptr<Shared> shared_;
};

/// malloc-model estimate of one heap chunk serving a `request`-byte
/// allocation (glibc-style: 8-byte header, 16-byte granule, 32-byte
/// minimum). Paged stores are measured from their actual block and
/// index allocations through it; overflow map entries through
/// ApproxMapEntryBytes. The model is documented in DESIGN.md §5k.
inline size_t ApproxChunkBytes(size_t request) {
  const size_t chunk = (request + 8 + 15) & ~static_cast<size_t>(15);
  return chunk < 32 ? 32 : chunk;
}

/// Estimate of one unordered_map entry: the node chunk (bucket pointer
/// amortized in) plus one out-of-line payload chunk of
/// `heap_payload_bytes` (0 for none).
inline size_t ApproxMapEntryBytes(size_t node_bytes,
                                  size_t heap_payload_bytes) {
  size_t total = ApproxChunkBytes(node_bytes) + sizeof(void*);
  if (heap_payload_bytes > 0) total += ApproxChunkBytes(heap_payload_bytes);
  return total;
}

// Slot field access. Scalars go through memcpy (aliasing-safe); a u16
// count array at an even offset of an 8-aligned slot is aligned, so it
// is read in place.
inline uint16_t LoadU16(const std::byte* p, size_t off) {
  uint16_t v;
  std::memcpy(&v, p + off, sizeof(v));
  return v;
}
inline uint32_t LoadU32(const std::byte* p, size_t off) {
  uint32_t v;
  std::memcpy(&v, p + off, sizeof(v));
  return v;
}
inline double LoadF64(const std::byte* p, size_t off) {
  double v;
  std::memcpy(&v, p + off, sizeof(v));
  return v;
}
inline void StoreU16(std::byte* p, size_t off, uint16_t v) {
  std::memcpy(p + off, &v, sizeof(v));
}
inline void StoreU32(std::byte* p, size_t off, uint32_t v) {
  std::memcpy(p + off, &v, sizeof(v));
}
inline void StoreF64(std::byte* p, size_t off, double v) {
  std::memcpy(p + off, &v, sizeof(v));
}
inline const uint16_t* NarrowCounts(const std::byte* p, size_t off) {
  return reinterpret_cast<const uint16_t*>(p + off);
}
inline uint16_t* NarrowCounts(std::byte* p, size_t off) {
  return reinterpret_cast<uint16_t*>(p + off);
}

/// Context keys. Both model families condition on the last k tokens
/// (k <= 12, 5 bits each, ids < 32) and pack them under an order tag:
/// key = [k + 1 | token_{-k} ... token_{-1}], so keys of different
/// orders never collide and token 0 is distinct from "no token". A
/// session keeps its window as one rolling `history` word (newest token
/// lowest), and every order's key is one shift and one mask of it.
inline uint64_t PushContextToken(uint64_t history, int id) {
  return (history << 5) | (static_cast<uint64_t>(id) & 0x1f);
}
inline uint64_t PackedContextKey(uint64_t history, int order) {
  const int bits = 5 * order;
  const uint64_t window = history & ((uint64_t{1} << bits) - 1);
  return (static_cast<uint64_t>(order) + 1) << bits | window;
}

/// See file comment. One layer's context table: keys are the models'
/// packed 64-bit context keys, payloads are fixed-size byte records the
/// owning model encodes/decodes. Mutable while building an overlay;
/// frozen by wrapping in shared_ptr<const> (no further Insert calls).
/// Not internally synchronized: mutable stores are session-private,
/// frozen stores are immutable.
class PagedContextStore {
 public:
  /// `slot_bytes` is the payload record size; it is rounded up to an
  /// 8-byte multiple so 8-aligned fields (doubles) stay aligned in
  /// every slot. `pool` must be non-null.
  PagedContextStore(std::shared_ptr<BlockPool> pool, size_t slot_bytes);

  PagedContextStore(const PagedContextStore&) = delete;
  PagedContextStore& operator=(const PagedContextStore&) = delete;

  /// Payload slot for `key`, or null.
  const std::byte* Find(uint64_t key) const { return Find(key, Hash(key)); }
  /// Find with `hash` == Hash(key) computed once by a caller that looks
  /// the same key up in several stores.
  const std::byte* Find(uint64_t key, uint64_t hash) const {
    if (index_.empty()) return nullptr;
    const uint32_t id = index_[Probe(key, hash)];
    return id == 0 ? nullptr : PayloadOf(id);
  }

  /// Appends a zero-initialized slot for `key` (which must be absent)
  /// and returns its payload. Null when the pool refused the block the
  /// slot needs — the exhaustion spill path; nothing was inserted.
  std::byte* Insert(uint64_t key);

  /// The index hash of a key: the splitmix64 finalizer, because packed
  /// context keys are highly regular in their low bits and the index
  /// mask needs avalanche.
  static uint64_t Hash(uint64_t key) {
    uint64_t z = key + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Sizes the index once for `entries` live entries in total, so the
  /// inserts up to that count never regrow it. Never shrinks.
  void Reserve(size_t entries);

  size_t size() const { return size_; }
  size_t slot_bytes() const { return slot_bytes_; }
  size_t num_blocks() const { return blocks_.size(); }
  const std::shared_ptr<BlockPool>& pool() const { return pool_; }

  /// Physical resident bytes: every held block's full allocation (the
  /// pool handed it out whole, partially filled or not) plus the index
  /// array, both through the shared malloc model.
  size_t MemoryBytes() const;

  /// Every live (indexed) entry, in index order. Adopted blocks may
  /// contain shadowed slots; those are dead and not visited.
  void ForEach(
      const std::function<void(uint64_t key, const std::byte* payload)>& fn)
      const;

  /// Collapses `layers` (bottom to top; later layers shadow earlier
  /// ones per key) into one store drawing fresh blocks from `pool`.
  /// Copy-on-write at block granularity: a block at least half of whose
  /// slots are unshadowed is *adopted* — its refcount rises, its live
  /// slots are re-indexed, and no payload is copied; other blocks have
  /// their live slots copied into fresh blocks. Returns null only when
  /// the pool is exhausted mid-merge (callers then keep the uncompacted
  /// chain — correct, just not compact).
  static std::shared_ptr<PagedContextStore> MergeCompact(
      const std::vector<std::shared_ptr<const PagedContextStore>>& layers,
      const std::shared_ptr<BlockPool>& pool);

 private:
  // An index cell holds id = 1 + block * span_ + slot; 0 is empty.
  // data_ mirrors blocks_' buffers, so a probe's key read is one load.
  uint32_t SlotId(size_t block, size_t slot) const {
    return static_cast<uint32_t>(block * span_ + slot + 1);
  }
  size_t BlockOf(uint32_t id) const { return (id - 1) / span_; }
  size_t SlotOf(uint32_t id) const { return (id - 1) % span_; }
  uint64_t KeyOf(uint32_t id) const {
    return reinterpret_cast<const uint64_t*>(data_[BlockOf(id)])[SlotOf(id)];
  }
  std::byte* PayloadOf(uint32_t id) const {
    return data_[BlockOf(id)] + keys_bytes_ + slot_bytes_ * SlotOf(id);
  }

  /// Index cell holding `key`, or the empty cell where it would go.
  size_t Probe(uint64_t key, uint64_t hash) const {
    const size_t mask = index_.size() - 1;
    size_t cell = static_cast<size_t>(hash) & mask;
    while (true) {
      const uint32_t id = index_[cell];
      if (id == 0 || KeyOf(id) == key) return cell;
      cell = (cell + 1) & mask;
    }
  }
  void GrowIndex(size_t min_cells);
  /// Indexes an existing (block, slot) pair whose key is absent from
  /// the index; grows the index as needed.
  void IndexSlot(uint64_t key, uint32_t block, uint32_t slot);
  /// Appends `block` to blocks_ and data_; returns its block number.
  uint32_t PushBlock(BlockRef block);
  /// Adopts `block` (shared, no copy); returns its index in blocks_.
  uint32_t AdoptBlock(BlockRef block);

  std::shared_ptr<BlockPool> pool_;
  size_t slot_bytes_;
  size_t span_;
  /// Bytes of a block's leading key array (8 * span_).
  size_t keys_bytes_;
  size_t block_bytes_;
  std::vector<BlockRef> blocks_;
  /// blocks_[i]->data(), kept beside blocks_. Blocks never move, so the
  /// pointers stay valid for the store's lifetime.
  std::vector<std::byte*> data_;
  /// Slots used in the *tail* block (fresh inserts append there);
  /// adopted blocks are never appended into.
  size_t tail_used_ = 0;
  /// True while blocks_.back() is a fresh (appendable) block.
  bool tail_open_ = false;
  /// Open-addressed index of slot ids (see SlotId). Sized to a power of
  /// two, grown at 70% load.
  std::vector<uint32_t> index_;
  size_t size_ = 0;
};

/// See file comment. A session's layer chain over paged stores: frozen
/// base layers (bottom to top, shared read-only with every fork) plus
/// this session's private overlay. An overlay entry shadows the same key
/// in every frozen layer; it was seeded from the frozen view when first
/// written, so it is always the complete, current state of its key.
///
/// `Layout` is the owning model's slot codec:
///   using Wide = ...;        // u32 form of one entry, with a
///                            // `std::vector<uint32_t> counts` member
///   static constexpr size_t kFlagsOffset;  // u16 flags field in a slot
///   size_t slot_bytes() const;
///   Wide Widen(const std::byte* slot) const;  // null slot: zero entry
/// Every slot holds either the narrow entry or, when its flags carry
/// kWideFlag, a marker whose entry lives in the same layer's overflow
/// map. Lookups are inline and dispatch on no virtual or std::function.
/// Not internally synchronized, like the stores it layers.
template <typename Layout>
class LayeredContextStore {
 public:
  using Wide = typename Layout::Wide;
  using WideTable = std::unordered_map<uint64_t, Wide>;

  /// The effective entry for a key: a narrow slot, a wide entry, or
  /// neither (absent).
  struct Ref {
    const std::byte* slot = nullptr;
    const Wide* wide = nullptr;
    bool found() const { return slot != nullptr || wide != nullptr; }
  };

  /// The overlay entry for a key, ready to update: exactly one of
  /// `slot` and `wide` is set. `fresh` when no layer held the key (the
  /// entry is zero and the caller applies any non-zero prior).
  struct WriteRef {
    std::byte* slot = nullptr;
    Wide* wide = nullptr;
    bool fresh = false;
  };

  /// Blocks come from `pool`, or from an unbounded pool of the store's
  /// own when it is null. `max_base_layers` (>= 1) is the frozen chain
  /// length beyond which Freeze() compacts.
  LayeredContextStore(Layout layout, std::shared_ptr<BlockPool> pool,
                      size_t max_base_layers)
      : layout_(std::move(layout)),
        pool_(pool != nullptr ? std::move(pool)
                              : std::make_shared<BlockPool>()),
        max_base_layers_(max_base_layers),
        local_(NewOverlay()) {
    MC_CHECK(max_base_layers_ >= 1);
  }

  /// A store destroyed while still mutable was a decode session; frozen
  /// stores dying are cache entries / shared bases, not sessions.
  ~LayeredContextStore() {
    if (!frozen_) {
      const MemoryFootprint fp = Footprint();
      pool_->NoteSessionEnd(fp.overlay_bytes, fp.base_bytes);
    }
  }

  LayeredContextStore(const LayeredContextStore&) = delete;
  LayeredContextStore& operator=(const LayeredContextStore&) = delete;

  const std::shared_ptr<BlockPool>& pool() const { return pool_; }
  bool frozen() const { return frozen_; }
  size_t num_base_layers() const { return base_.size(); }

  /// Where the effective entry for a key lives: `ref` is the entry
  /// (overlay first, then frozen top-down) and `local` tells whether it
  /// came from this session's own overlay.
  struct Located {
    uint64_t key = 0;
    Ref ref;
    bool local = false;
  };

  /// Effective entry for `key`, hashed once for every layer.
  Located Locate(uint64_t key) const {
    const uint64_t hash = PagedContextStore::Hash(key);
    const Ref ref = FindIn(local_.get(), overflow_local_, key, hash);
    if (ref.found()) return Located{key, ref, true};
    return Located{key, FindFrozen(key, hash), false};
  }

  /// Writable overlay entry for `key`, seeded from the frozen view on
  /// the session's first write to it. On pool exhaustion the entry
  /// spills to the overlay's overflow map (same integers, same output).
  WriteRef Write(uint64_t key) { return Write(Locate(key)); }

  /// Write for an entry already located, with no second lookup. `at`
  /// must describe this store's current state: no Write, Promote,
  /// Freeze, Reset or ShareBase may have touched `at.key` since Locate.
  /// Writes to other keys do not invalidate it: slots live in blocks
  /// that never move, and overflow entries are unordered_map nodes,
  /// whose references survive a rehash.
  WriteRef Write(const Located& at) {
    MC_CHECK(!frozen_);
    if (at.local) {
      // The entry is in this session's own (mutable) overlay.
      if (at.ref.slot != nullptr) {
        return {const_cast<std::byte*>(at.ref.slot), nullptr, false};
      }
      return {nullptr, const_cast<Wide*>(at.ref.wide), false};
    }
    const uint64_t key = at.key;
    const Ref& under = at.ref;
    if (under.wide != nullptr) {
      // Frozen entry already wide: the overlay copy is wide too. The
      // marker slot is optional (Locate falls through to the map).
      Wide& wide = overflow_local_.emplace(key, *under.wide).first->second;
      if (std::byte* marker = local_->Insert(key)) SetWide(marker);
      return {nullptr, &wide, false};
    }
    std::byte* p = local_->Insert(key);
    if (p == nullptr) {
      Wide& wide =
          overflow_local_.emplace(key, layout_.Widen(under.slot)).first->second;
      return {nullptr, &wide, under.slot == nullptr};
    }
    if (under.slot != nullptr) {
      std::memcpy(p, under.slot, local_->slot_bytes());
    }
    return {p, nullptr, under.slot == nullptr};
  }

  /// Sizes a mutable overlay's index for a decode of `num_tokens`
  /// tokens that writes `orders` keys per token, so the session's writes
  /// do not regrow it. The shallow orders mostly revisit keys the session
  /// already wrote and the deep ones mostly add keys: on the decode_heavy
  /// benchmark 0.02-0.69 of the writes were new, so two thirds covers
  /// nearly every session. Capped, so a huge budget cannot size an index
  /// far beyond what a session touches before it would regrow anyway.
  void ReserveForDecode(size_t num_tokens, size_t orders) {
    constexpr size_t kMaxEntries = size_t{1} << 16;
    if (frozen_) return;
    const size_t entries =
        std::min(num_tokens, kMaxEntries) * orders * 2 / 3;
    local_->Reserve(local_->size() + std::min(entries, kMaxEntries));
  }

  /// Moves the narrow overlay entry in `slot` (returned by Write for
  /// `key`) to the overflow map, for a count about to outgrow u16.
  Wide& Promote(uint64_t key, std::byte* slot) {
    Wide& wide = overflow_local_[key] = layout_.Widen(slot);
    SetWide(slot);
    return wide;
  }

  /// Zero-copy transition: the overlay's blocks become a frozen layer;
  /// chains longer than max_base_layers compact. Idempotent.
  void Freeze() {
    if (frozen_) return;
    frozen_ = true;
    if (local_->size() > 0 || !overflow_local_.empty()) {
      base_.push_back(
          Layer{std::shared_ptr<const PagedContextStore>(std::move(local_)),
                std::make_shared<const WideTable>(std::move(overflow_local_))});
      local_ = NewOverlay();
      overflow_local_ = WideTable{};
    }
    if (base_.size() > max_base_layers_) CompactBase();
  }

  /// Drops every layer: the store becomes empty and mutable.
  void Reset() {
    base_.clear();
    local_ = NewOverlay();
    overflow_local_.clear();
    frozen_ = false;
  }

  /// Makes this (empty, mutable) store a fork of `frozen`: the fork's
  /// refcounts on the frozen layers — and, transitively, their blocks —
  /// are the entire copy.
  void ShareBase(const LayeredContextStore& frozen) {
    MC_CHECK(frozen.frozen_);
    base_ = frozen.base_;
  }

  /// Calls `fn(key, ref)` once per key of the effective (layer-merged)
  /// view. Diagnostics only: builds a map of every key.
  template <typename Fn>
  void ForEachEffective(Fn fn) const {
    std::unordered_map<uint64_t, Ref> effective;
    auto fold = [&](const PagedContextStore* store, const WideTable& wide) {
      if (store != nullptr) {
        store->ForEach([&](uint64_t key, const std::byte* p) {
          if (!IsWide(p)) effective[key] = Ref{p, nullptr};
        });
      }
      for (const auto& [key, entry] : wide) effective[key] = Ref{nullptr, &entry};
    };
    for (const Layer& layer : base_) fold(layer.store.get(), *layer.overflow);
    fold(local_.get(), overflow_local_);
    for (const auto& [key, ref] : effective) fn(key, ref);
  }

  /// Private overlay bytes and (logical) frozen-base bytes.
  MemoryFootprint Footprint() const {
    MemoryFootprint fp;
    fp.overlay_bytes = local_->MemoryBytes() + WideBytes(overflow_local_);
    for (const Layer& layer : base_) fp.base_bytes += LayerBytes(layer);
    return fp;
  }

  /// Adds the overlay, and each frozen layer not yet in `tally`.
  void Tally(MemoryTally* tally) const {
    tally->bytes += local_->MemoryBytes() + WideBytes(overflow_local_);
    for (const Layer& layer : base_) {
      const void* identity =
          layer.store != nullptr
              ? static_cast<const void*>(layer.store.get())
              : static_cast<const void*>(layer.overflow.get());
      if (tally->seen.insert(identity).second) {
        tally->bytes += LayerBytes(layer);
      }
    }
  }

 private:
  static constexpr uint16_t kWideFlag = 1;

  // One frozen level: the paged store (null in an overflow-only layer,
  // the compaction fallback) plus its overflow map.
  struct Layer {
    std::shared_ptr<const PagedContextStore> store;
    std::shared_ptr<const WideTable> overflow;
  };

  static bool IsWide(const std::byte* slot) {
    return (LoadU16(slot, Layout::kFlagsOffset) & kWideFlag) != 0;
  }
  static void SetWide(std::byte* slot) {
    StoreU16(slot, Layout::kFlagsOffset, kWideFlag);
  }

  static Ref FindIn(const PagedContextStore* store, const WideTable& wide,
                    uint64_t key, uint64_t hash) {
    if (store != nullptr) {
      if (const std::byte* p = store->Find(key, hash)) {
        if (!IsWide(p)) return Ref{p, nullptr};
        auto found = wide.find(key);
        MC_CHECK(found != wide.end());
        return Ref{nullptr, &found->second};
      }
    }
    if (!wide.empty()) {
      auto found = wide.find(key);
      if (found != wide.end()) return Ref{nullptr, &found->second};
    }
    return Ref{};
  }

  Ref FindFrozen(uint64_t key, uint64_t hash) const {
    for (auto it = base_.rbegin(); it != base_.rend(); ++it) {
      const Ref ref = FindIn(it->store.get(), *it->overflow, key, hash);
      if (ref.found()) return ref;
    }
    return Ref{};
  }

  std::unique_ptr<PagedContextStore> NewOverlay() const {
    return std::make_unique<PagedContextStore>(pool_, layout_.slot_bytes());
  }

  // Compacts the frozen chain. With no overflow entries in play, the
  // store-level MergeCompact adopts mostly-live blocks by refcount and
  // copies only the rest. With overflow entries (u16-saturated counts
  // or pool-exhaustion spills — both rare by construction) the chain
  // collapses into one overflow-only layer; correct, just not paged.
  // Forks taken earlier keep their own refcounts on the old layers.
  void CompactBase() {
    bool any_overflow = false;
    for (const Layer& layer : base_) {
      any_overflow |= layer.store == nullptr || !layer.overflow->empty();
    }
    if (!any_overflow) {
      std::vector<std::shared_ptr<const PagedContextStore>> stores;
      stores.reserve(base_.size());
      for (const Layer& layer : base_) stores.push_back(layer.store);
      auto merged = PagedContextStore::MergeCompact(stores, pool_);
      if (merged == nullptr) return;  // pool exhausted: keep the chain
      base_.assign(1, Layer{std::move(merged),
                            std::make_shared<const WideTable>()});
      return;
    }
    auto merged = std::make_shared<WideTable>();
    for (const Layer& layer : base_) {
      if (layer.store != nullptr) {
        layer.store->ForEach([&](uint64_t key, const std::byte* p) {
          if (!IsWide(p)) (*merged)[key] = layout_.Widen(p);
        });
      }
      for (const auto& [key, entry] : *layer.overflow) (*merged)[key] = entry;
    }
    base_.assign(1, Layer{nullptr, std::move(merged)});
  }

  // Malloc model (see ApproxMapEntryBytes) of an overflow map.
  static size_t WideBytes(const WideTable& table) {
    size_t bytes = 0;
    for (const auto& [key, entry] : table) {
      (void)key;
      bytes += ApproxMapEntryBytes(
          sizeof(void*) + sizeof(std::pair<const uint64_t, Wide>),
          entry.counts.capacity() * sizeof(uint32_t));
    }
    return bytes;
  }

  static size_t LayerBytes(const Layer& layer) {
    size_t bytes = WideBytes(*layer.overflow);
    if (layer.store != nullptr) bytes += layer.store->MemoryBytes();
    return bytes;
  }

  Layout layout_;
  std::shared_ptr<BlockPool> pool_;
  size_t max_base_layers_;
  std::vector<Layer> base_;
  std::unique_ptr<PagedContextStore> local_;
  WideTable overflow_local_;
  bool frozen_ = false;
};

}  // namespace lm
}  // namespace multicast

#endif  // MULTICAST_LM_PAGED_STORE_H_
