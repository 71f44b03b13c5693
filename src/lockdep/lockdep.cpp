// Out-of-line slow paths of the lockdep graph: sharded class
// allocation, chunk growth, epoch-based retirement/reclamation, cycle
// detection on new edges, and report emission (the verdict routes
// through the response engine, src/response/).
#include "lockdep/lockdep.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "response/response.hpp"

namespace resilock::lockdep {

// The engine's tag space mirrors EventKind; keep them in lock step.
static_assert(static_cast<int>(response::ResponseEvent::kOrderInversion) ==
              static_cast<int>(EventKind::kOrderInversion));
static_assert(static_cast<int>(response::ResponseEvent::kDeadlockCycle) ==
              static_cast<int>(EventKind::kDeadlockCycle));
// The trace ring's "no class attribution" tag is the class table's
// invalid id: exporters may resolve any other value against the table.
static_assert(kNoClassTag == kInvalidClass);

namespace {

// Env-tuned power of two in [lo, hi], or `dflt` when unset/garbage.
std::uint32_t env_pow2(const char* name, std::uint32_t dflt,
                       std::uint32_t lo, std::uint32_t hi) {
  std::uint32_t v = dflt;
  if (const char* raw = platform::env_raw(name)) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(raw, &end, 10);
    if (end != raw && *end == '\0' && parsed > 0) {
      v = static_cast<std::uint32_t>(std::min<unsigned long>(parsed, hi));
    }
  }
  v = std::max(lo, std::min(hi, v));
  // Round down to a power of two so shift/mask indexing works.
  while ((v & (v - 1)) != 0) v &= v - 1;
  return v;
}

constexpr std::uint32_t log2_pow2(std::uint32_t v) {
  std::uint32_t s = 0;
  while ((1u << s) < v) ++s;
  return s;
}

// Per-thread epoch-pin state. The lease returns the reader slot to the
// graph's pool at thread exit (the graph singleton is leaked, so this
// is safe during shutdown).
struct PinTls {
  std::uint32_t depth = 0;
  std::int32_t slot = -2;  // -2 unclaimed, -1 fallback pool
};
thread_local PinTls t_pin;

struct PinLease {
  void touch() {}
  ~PinLease() {
    if (t_pin.slot >= 0) {
      Graph::instance().release_reader_slot(
          static_cast<std::uint32_t>(t_pin.slot));
    }
    t_pin.slot = -2;
    t_pin.depth = 0;
  }
};
thread_local PinLease t_pin_lease;

// Heap scratch for the DFS, grown to the table's live capacity (the
// old stack arrays were a stack-overflow landmine past a few thousand
// classes). Thread-local: DFS runs at most once per distinct edge, so
// only reporting threads ever pay for it.
struct DfsScratch {
  std::uint32_t cap = 0;
  std::unique_ptr<std::uint32_t[]> parent;
  std::unique_ptr<std::uint32_t[]> stack;
  std::unique_ptr<std::uint64_t[]> visited;
};

DfsScratch& dfs_scratch(std::uint32_t cap) {
  thread_local DfsScratch s;
  if (s.cap < cap) {
    s.parent.reset(new std::uint32_t[cap]);
    s.stack.reset(new std::uint32_t[cap]);
    s.visited.reset(new std::uint64_t[(cap + 63) / 64]);
    s.cap = cap;
  }
  std::memset(s.visited.get(), 0,
              ((cap + 63) / 64) * sizeof(std::uint64_t));
  return s;
}

}  // namespace

Graph::Graph()
    : chunk_slots_(env_pow2("RESILOCK_LOCKDEP_CHUNK", 1024,
                            kMinChunkSlots, kMaxChunkSlots)),
      chunk_shift_(log2_pow2(chunk_slots_)),
      chunk_mask_(chunk_slots_ - 1),
      shard_count_(env_pow2("RESILOCK_LOCKDEP_SHARDS", 8, 1, kMaxShards)),
      shard_mask_(shard_count_ - 1) {}

// ---------------------------------------------------------------------
// Epoch pins.
// ---------------------------------------------------------------------

void Graph::pin_epoch() {
  PinTls& p = t_pin;
  if (p.depth++ != 0) return;
  if (p.slot == -2) {
    t_pin_lease.touch();  // arm the thread-exit return of the slot
    p.slot = claim_reader_slot();
  }
  if (p.slot < 0) {
    // Reader pool exhausted: pin coarsely. Any nonzero fallback count
    // blocks all reclamation, which is correct, just not granular.
    fallback_pins_.fetch_add(1, std::memory_order_seq_cst);
    return;
  }
  auto& slot = readers_[p.slot].epoch;
  // Publish the pin, then re-read the epoch: if a retirement advanced
  // it in between, re-pin at the newer epoch. After this loop either
  // the pin was globally visible before any later epoch bump, or it
  // names the bumped epoch — either way no entry retired at >= the
  // pinned epoch can be reclaimed under us (see try_reclaim).
  std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    slot.store(e, std::memory_order_seq_cst);
    const std::uint64_t e2 =
        global_epoch_.load(std::memory_order_seq_cst);
    if (e2 == e) break;
    e = e2;
  }
}

void Graph::unpin_epoch() {
  PinTls& p = t_pin;
  if (--p.depth != 0) return;
  if (p.slot < 0) {
    fallback_pins_.fetch_sub(1, std::memory_order_seq_cst);
    return;
  }
  // A release store is enough here (seq_cst would be a full barrier on
  // every nested acquire): only the pin takes part in the store-load
  // handshake with an epoch bump. try_reclaim loads each slot with
  // seq_cst, so a reclaimer that sees this 0 synchronizes with it, and
  // every row read made under the pin happens before the free.
  readers_[p.slot].epoch.store(0, std::memory_order_release);
}

std::int32_t Graph::claim_reader_slot() {
  for (std::uint32_t w = 0; w < kEpochReaders / 64; ++w) {
    std::uint64_t bits = reader_leased_[w].load(std::memory_order_relaxed);
    while (bits != ~std::uint64_t{0}) {
      const int bit = __builtin_ctzll(~bits);
      if (reader_leased_[w].compare_exchange_weak(
              bits, bits | (std::uint64_t{1} << bit),
              std::memory_order_acq_rel, std::memory_order_relaxed)) {
        return static_cast<std::int32_t>(w * 64 + bit);
      }
    }
  }
  return -1;
}

void Graph::release_reader_slot(std::uint32_t idx) {
  readers_[idx].epoch.store(0, std::memory_order_seq_cst);
  reader_leased_[idx / 64].fetch_and(~(std::uint64_t{1} << (idx % 64)),
                                     std::memory_order_acq_rel);
}

// ---------------------------------------------------------------------
// Allocation: shard freelists -> stealing -> reclaim -> chunk growth.
// ---------------------------------------------------------------------

bool Graph::pop_shard(std::uint32_t shard, std::uint32_t& slot) {
  Shard& s = shards_[shard];
  std::lock_guard<std::mutex> g(s.mu);
  if (s.free_slots.empty()) return false;
  slot = s.free_slots.back();
  s.free_slots.pop_back();
  return true;
}

void Graph::push_shard(std::uint32_t shard, std::uint32_t slot) {
  Shard& s = shards_[shard];
  std::lock_guard<std::mutex> g(s.mu);
  s.free_slots.push_back(slot);
}

std::uint32_t Graph::alloc_slot() {
  const std::uint32_t home = platform::self_pid() & shard_mask_;
  std::uint32_t slot;
  if (pop_shard(home, slot)) return slot;
  for (std::uint32_t i = 1; i < shard_count_; ++i) {
    if (pop_shard((home + i) & shard_mask_, slot)) {
      shard_steals_.fetch_add(1, std::memory_order_relaxed);
      return slot;
    }
  }
  // Every freelist is dry: recycle whatever limbo has matured before
  // paying for a new chunk.
  if (try_reclaim() > 0) {
    for (std::uint32_t i = 0; i < shard_count_; ++i) {
      if (pop_shard((home + i) & shard_mask_, slot)) {
        if (i != 0) shard_steals_.fetch_add(1, std::memory_order_relaxed);
        return slot;
      }
    }
  }
  return grow(home);
}

std::uint32_t Graph::grow(std::uint32_t home_shard) {
  std::lock_guard<std::mutex> g(grow_mutex_);
  // A racing grower may have refilled the shards while we waited.
  std::uint32_t slot;
  if (pop_shard(home_shard, slot)) return slot;
  const std::uint32_t base = capacity_.load(std::memory_order_relaxed);
  const std::uint32_t limit =
      std::min(capacity_limit_.load(std::memory_order_relaxed),
               kMaxClassSlots);
  if (base + chunk_slots_ > limit) {
    // Growth ceiling (test clamp or the 4M directory bound): last
    // sweep across all shards, then fail open.
    for (std::uint32_t i = 1; i < shard_count_; ++i) {
      if (pop_shard((home_shard + i) & shard_mask_, slot)) {
        shard_steals_.fetch_add(1, std::memory_order_relaxed);
        return slot;
      }
    }
    return kNoSlot;
  }
  auto* chunk = new ClassSlot[chunk_slots_];
  chunk_dir_[base >> chunk_shift_].store(chunk,
                                         std::memory_order_release);
  capacity_.store(base + chunk_slots_, std::memory_order_release);
  chunks_.fetch_add(1, std::memory_order_relaxed);
  // Keep the first slot for the caller; deal the rest across the
  // shards in contiguous runs, the grower's own shard first.
  const std::uint32_t spare = chunk_slots_ - 1;
  const std::uint32_t run = spare / shard_count_;
  std::uint32_t next = base + 1;
  for (std::uint32_t i = 0; i < shard_count_; ++i) {
    const std::uint32_t shard = (home_shard + i) & shard_mask_;
    std::uint32_t n = run + (i < spare % shard_count_ ? 1 : 0);
    Shard& s = shards_[shard];
    std::lock_guard<std::mutex> sg(s.mu);
    while (n-- > 0) s.free_slots.push_back(next++);
  }
  return base;
}

ClassId Graph::register_internal(const void* instance, const char* label,
                                 bool shared) {
  const std::uint32_t slot = alloc_slot();
  if (slot == kNoSlot) {
    class_table_full_.fetch_add(1, std::memory_order_relaxed);
    return kUntrackedClass;
  }
  ClassSlot* s = slot_ptr(slot);
  // The slot is exclusively ours (freshly grown or post-grace). Its
  // generation survived retirement in the meta word.
  const std::uint32_t gen =
      meta_gen(s->meta.load(std::memory_order_relaxed));
  s->instance.store(instance, std::memory_order_release);
  s->label.store(label, std::memory_order_release);
  s->meta.store((gen << kMetaGenShift) | kMetaLive |
                    (shared ? kMetaShared : 0u),
                std::memory_order_release);
  classes_registered_.fetch_add(1, std::memory_order_relaxed);
  classes_live_.fetch_add(1, std::memory_order_relaxed);
  return make_class_id(slot, gen);
}

ClassId Graph::register_class(const void* instance, const char* label) {
  return register_internal(instance, label, false);
}

ClassId Graph::register_shared_class(const void* key, const char* label) {
  return register_internal(key, label, true);
}

// ---------------------------------------------------------------------
// Retirement and reclamation.
// ---------------------------------------------------------------------

void Graph::clear_in_edge(const InEdgeNode& in, std::uint32_t dst_slot) {
  ClassSlot* src = slot_ptr(in.src_slot);
  if (src == nullptr) return;
  // seq_cst meta load: if the source class was itself retired (its row
  // detached to limbo, its bits dying with it), a recycled tenant's
  // fresh row must not lose edges to a stale clear. The retire path's
  // meta CAS is seq_cst too, and slot recycling needs a grace period
  // our own epoch pin holds open — so a generation match here means
  // the row we load is still the recorded edge's row.
  const std::uint32_t m = src->meta.load(std::memory_order_seq_cst);
  if (meta_gen(m) != in.src_gen) return;
  Row* row = src->row.load(std::memory_order_seq_cst);
  if (row == nullptr) return;
  EdgeSeg* seg =
      row->segs[dst_slot >> kSegShift].load(std::memory_order_acquire);
  if (seg == nullptr) return;
  const std::uint32_t w = (dst_slot & kSegMask) >> 6;
  const std::uint64_t mask = ~(1ull << (dst_slot & 63));
  seg->bits[w].fetch_and(mask, std::memory_order_seq_cst);
  seg->read_src[w].fetch_and(mask, std::memory_order_relaxed);
  seg->read_dst[w].fetch_and(mask, std::memory_order_relaxed);
}

void Graph::retire_class(ClassId id) {
  if (!class_tracked(id)) return;  // kInvalid/kUntracked: nothing to do
  const std::uint32_t slot = class_slot(id);
  ClassSlot* s = slot_ptr(slot);
  if (s == nullptr) return;
  // Bump the generation first: from here on the id is stale everywhere
  // (label_of, lockstat attribution, response @class scopes all check
  // the stamp), and a racing retire of the same id loses the CAS.
  std::uint32_t meta = s->meta.load(std::memory_order_seq_cst);
  for (;;) {
    if ((meta & kMetaLive) == 0 || meta_gen(meta) != class_gen(id)) {
      return;  // already retired (or a stale id): no-op
    }
    const std::uint32_t bumped =
        ((class_gen(id) + 1) & kClassGenMask) << kMetaGenShift;
    if (s->meta.compare_exchange_weak(meta, bumped,
                                      std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
      break;
    }
  }
  s->instance.store(nullptr, std::memory_order_release);
  s->label.store(nullptr, std::memory_order_release);
  // Clear this class's column — O(in-degree) via the in-edge list the
  // claims maintained, not a sweep of the whole table — and detach its
  // row. Under an epoch pin: the rows we touch may be retired
  // concurrently, and the pin keeps them out of the reclaimer's hands.
  pin_epoch();
  InEdgeNode* in = s->in_edges.exchange(nullptr, std::memory_order_seq_cst);
  while (in != nullptr) {
    InEdgeNode* next = in->next;
    clear_in_edge(*in, slot);
    delete in;
    in = next;
  }
  Row* row = s->row.exchange(nullptr, std::memory_order_seq_cst);
  unpin_epoch();
  // Park the slot (and detached row) in limbo. The epoch advance is
  // made under the limbo lock so the list stays sorted by epoch; a
  // traversal pinned at or before this epoch may still be walking the
  // detached row or stale in-edges naming this slot, so the slot is
  // not recycled — and the row not freed — until all such pins drain.
  // This replaces the old global "wait for every in-flight DFS" spin:
  // retirement no longer blocks on other threads at all.
  auto* lb = new LimboEntry{slot, 0, row, nullptr};
  {
    std::lock_guard<std::mutex> g(limbo_mutex_);
    lb->epoch = global_epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (limbo_tail_ != nullptr) {
      limbo_tail_->next = lb;
    } else {
      limbo_head_ = lb;
    }
    limbo_tail_ = lb;
  }
  limbo_count_.fetch_add(1, std::memory_order_relaxed);
  classes_live_.fetch_sub(1, std::memory_order_relaxed);
  // Opportunistic reclaim keeps limbo bounded under pure churn even if
  // no allocation ever runs dry.
  if (limbo_count_.load(std::memory_order_relaxed) >=
      2ull * chunk_slots_) {
    try_reclaim();
  }
}

std::size_t Graph::try_reclaim() {
  if (limbo_count_.load(std::memory_order_acquire) == 0) return 0;
  if (fallback_pins_.load(std::memory_order_seq_cst) != 0) return 0;
  // The grace-period bound: entries retired strictly before every
  // active pin are invisible to all current readers (a pin taken after
  // the retirement epoch advanced cannot reach the detached row — the
  // detach precedes the advance), and future pins only observe later
  // epochs still.
  std::uint64_t min_pin = global_epoch_.load(std::memory_order_seq_cst);
  for (std::uint32_t i = 0; i < kEpochReaders; ++i) {
    const std::uint64_t e =
        readers_[i].epoch.load(std::memory_order_seq_cst);
    if (e != 0 && e < min_pin) min_pin = e;
  }
  LimboEntry* matured = nullptr;
  LimboEntry** tail = &matured;
  {
    std::lock_guard<std::mutex> g(limbo_mutex_);
    while (limbo_head_ != nullptr && limbo_head_->epoch < min_pin) {
      LimboEntry* e = limbo_head_;
      limbo_head_ = e->next;
      if (limbo_head_ == nullptr) limbo_tail_ = nullptr;
      e->next = nullptr;
      *tail = e;
      tail = &e->next;
    }
  }
  std::size_t n = 0;
  while (matured != nullptr) {
    LimboEntry* e = matured;
    matured = e->next;
    if (e->row != nullptr) {
      for (std::uint32_t si = 0; si < kMaxSegs / 64; ++si) {
        std::uint64_t pres =
            e->row->present[si].load(std::memory_order_relaxed);
        while (pres != 0) {
          const auto b =
              static_cast<std::uint32_t>(__builtin_ctzll(pres));
          pres &= pres - 1;
          delete e->row->segs[si * 64 + b].load(
              std::memory_order_relaxed);
        }
      }
      delete e->row;
    }
    // Deal recycled slots round-robin so reclamation feeds every
    // shard, not just the reclaiming thread's.
    push_shard(reclaim_cursor_.fetch_add(1, std::memory_order_relaxed) &
                   shard_mask_,
               e->slot);
    delete e;
    ++n;
  }
  if (n != 0) {
    limbo_count_.fetch_sub(n, std::memory_order_relaxed);
    reclaimed_.fetch_add(n, std::memory_order_relaxed);
  }
  return n;
}

std::uint32_t Graph::set_capacity_limit(std::uint32_t slots) {
  std::lock_guard<std::mutex> g(grow_mutex_);
  const std::uint32_t prev =
      capacity_limit_.load(std::memory_order_relaxed);
  capacity_limit_.store(std::min(slots, kMaxClassSlots),
                        std::memory_order_relaxed);
  return prev;
}

// ---------------------------------------------------------------------
// Lookup.
// ---------------------------------------------------------------------

ClassId Graph::find_class(std::string_view label) const {
  const std::uint32_t cap = capacity_.load(std::memory_order_acquire);
  for (std::uint32_t base = 0; base < cap; base += chunk_slots_) {
    const ClassSlot* chunk =
        chunk_dir_[base >> chunk_shift_].load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    const std::uint32_t n = std::min(chunk_slots_, cap - base);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t meta =
          chunk[i].meta.load(std::memory_order_acquire);
      if ((meta & kMetaLive) == 0) continue;
      const char* l = chunk[i].label.load(std::memory_order_acquire);
      if (l != nullptr && label == l &&
          chunk[i].instance.load(std::memory_order_acquire) != nullptr) {
        return make_class_id(base + i, meta_gen(meta));
      }
    }
  }
  return kInvalidClass;
}

// ---------------------------------------------------------------------
// Edge claims and cycle detection.
// ---------------------------------------------------------------------

void Graph::claim_edge(ClassId from, ClassId to, const void* lock,
                       std::uint32_t waiters, bool owned,
                       AccessMode from_mode, AccessMode to_mode) {
  const std::uint32_t fs = class_slot(from);
  const std::uint32_t ts = class_slot(to);
  ClassSlot* fsl = slot_ptr(fs);
  ClassSlot* tsl = slot_ptr(ts);
  if (fsl == nullptr || tsl == nullptr) return;
  // Generation gate (seq_cst, pairing with retire's meta CAS): a stale
  // id — its class retired since the caller read it — must not write
  // into the slot's next tenant's bitmaps. Our epoch pin (taken by
  // ensure_edge) means a class retired AFTER this check cannot have
  // its slot recycled before we finish, so at worst we claim an edge
  // for a dying class, which dies with its detached row.
  const std::uint32_t fmeta = fsl->meta.load(std::memory_order_seq_cst);
  const std::uint32_t tmeta = tsl->meta.load(std::memory_order_seq_cst);
  if ((fmeta & kMetaLive) == 0 || meta_gen(fmeta) != class_gen(from) ||
      (tmeta & kMetaLive) == 0 || meta_gen(tmeta) != class_gen(to)) {
    return;
  }
  Row* row = fsl->row.load(std::memory_order_acquire);
  if (row == nullptr) {
    auto* fresh = new Row();
    if (fsl->row.compare_exchange_strong(row, fresh,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      row = fresh;
    } else {
      delete fresh;  // racing claimer installed one; `row` reloaded
    }
  }
  const std::uint32_t seg_idx = ts >> kSegShift;
  EdgeSeg* seg = row->segs[seg_idx].load(std::memory_order_acquire);
  if (seg == nullptr) {
    auto* fresh = new EdgeSeg();
    if (row->segs[seg_idx].compare_exchange_strong(
            seg, fresh, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      seg = fresh;
      row->present[seg_idx >> 6].fetch_or(1ull << (seg_idx & 63),
                                          std::memory_order_release);
    } else {
      delete fresh;
    }
  }
  const std::uint32_t w = (ts & kSegMask) >> 6;
  const std::uint64_t mask = 1ull << (ts & 63);
  // Claim first-occurrence duty: exactly one thread sees the bit flip.
  // seq_cst so two threads inserting the two halves of a cycle cannot
  // both miss each other in the DFS below (store-buffering).
  if (seg->bits[w].fetch_or(mask, std::memory_order_seq_cst) & mask) {
    return;
  }
  // Mode tags for this first occurrence; readers of the tags only
  // consult them for edges whose bit they have already observed.
  if (from_mode == AccessMode::kRead) {
    seg->read_src[w].fetch_or(mask, std::memory_order_release);
  }
  if (to_mode == AccessMode::kRead) {
    seg->read_dst[w].fetch_or(mask, std::memory_order_release);
  }
  // Reverse edge for retire's O(in-degree) column clear. Lock-free
  // push; the list is detached wholesale by retire_class.
  auto* node = new InEdgeNode{fs, class_gen(from), nullptr};
  InEdgeNode* head = tsl->in_edges.load(std::memory_order_relaxed);
  do {
    node->next = head;
  } while (!tsl->in_edges.compare_exchange_weak(
      head, node, std::memory_order_release,
      std::memory_order_relaxed));
  edges_.fetch_add(1, std::memory_order_relaxed);
  check_cycle(fs, ts, lock, waiters, owned);
}

void Graph::check_cycle(std::uint32_t from_slot, std::uint32_t to_slot,
                        const void* lock, std::uint32_t waiters,
                        bool owned) {
  // Iterative DFS from `to` looking for `from`: a path to→…→from plus
  // the just-inserted from→to closes a cycle. Runs only on the first
  // occurrence of an edge, under the caller's epoch pin — so no slot
  // on the walk can be recycled mid-traversal (a stale in-edge can
  // therefore never be stitched to a recycled slot's fresh out-edges;
  // the old design drained a global DFS counter for the same
  // guarantee).
  const std::uint32_t cap = capacity_.load(std::memory_order_acquire);
  if (from_slot >= cap || to_slot >= cap) return;
  DfsScratch& scr = dfs_scratch(cap);
  std::size_t top = 0;
  scr.stack[top++] = to_slot;
  scr.visited[to_slot >> 6] |= 1ull << (to_slot & 63);
  scr.parent[to_slot] = kNoSlot;
  bool found = false;
  while (top > 0 && !found) {
    const std::uint32_t n = scr.stack[--top];
    const ClassSlot* s = slot_ptr(n);
    if (s == nullptr) continue;
    const Row* row = s->row.load(std::memory_order_acquire);
    if (row == nullptr) continue;
    const std::uint32_t live_segs = (cap + kSegSlots - 1) >> kSegShift;
    const std::uint32_t seg_words =
        std::min((live_segs + 63) / 64, kMaxSegs / 64);
    for (std::uint32_t sw = 0; sw < seg_words && !found; ++sw) {
      std::uint64_t pres =
          row->present[sw].load(std::memory_order_acquire);
      while (pres != 0 && !found) {
        const auto sb =
            static_cast<std::uint32_t>(__builtin_ctzll(pres));
        pres &= pres - 1;
        const std::uint32_t seg_idx = sw * 64 + sb;
        const EdgeSeg* seg =
            row->segs[seg_idx].load(std::memory_order_acquire);
        if (seg == nullptr) continue;
        for (std::uint32_t w = 0; w < kSegWords && !found; ++w) {
          const std::uint32_t base = seg_idx * kSegSlots + w * 64;
          if (base >= cap) break;
          std::uint64_t bits =
              seg->bits[w].load(std::memory_order_seq_cst);
          bits &= ~scr.visited[base >> 6];
          while (bits != 0) {
            const auto b =
                static_cast<std::uint32_t>(__builtin_ctzll(bits));
            bits &= bits - 1;
            const std::uint32_t succ = base + b;
            if (succ >= cap) break;
            scr.parent[succ] = n;
            if (succ == from_slot) {
              found = true;
              break;
            }
            scr.visited[base >> 6] |= 1ull << b;
            scr.stack[top++] = succ;
          }
        }
      }
    }
  }
  if (!found) return;

  // The parent chain walks from→…→to backwards through the DFS tree;
  // reversing it yields the stored-edge path to→…→from, and prepending
  // `from` (the new edge's source) closes the printed cycle:
  // from → to → … → from.
  std::vector<std::uint32_t> rev;
  for (std::uint32_t c = from_slot; c != kNoSlot; c = scr.parent[c]) {
    rev.push_back(c);
  }
  std::vector<std::uint32_t> path;
  path.reserve(rev.size() + 1);
  path.push_back(from_slot);
  for (std::size_t i = rev.size(); i-- > 0;) path.push_back(rev[i]);
  report_cycle(path.data(), path.size(), lock, waiters, owned);
}

void Graph::report_cycle(const std::uint32_t* path, std::size_t len,
                         const void* lock, std::uint32_t waiters,
                         bool owned) {
  // len counts nodes including the repeated endpoint: an AB/BA
  // inversion is {A, B, A} (len 3, two distinct classes).
  const bool two_lock = len == 3;
  if (two_lock) {
    inversions_.fetch_add(1, std::memory_order_relaxed);
  } else {
    cycles_.fetch_add(1, std::memory_order_relaxed);
  }
  // Every class on the path is now "entangled in a reported cycle" —
  // the lockdep-state input later misuse verdicts consult. The flag is
  // set under a generation check so a slot retired mid-report does not
  // have its next tenant born pre-flagged.
  for (std::size_t i = 0; i < len; ++i) {
    if (ClassSlot* s = slot_ptr(path[i])) {
      std::uint32_t meta = s->meta.load(std::memory_order_relaxed);
      while ((meta & kMetaLive) != 0 &&
             !s->meta.compare_exchange_weak(meta, meta | kMetaFlagged,
                                            std::memory_order_relaxed,
                                            std::memory_order_relaxed)) {
      }
    }
  }
  const EventKind kind =
      two_lock ? EventKind::kOrderInversion : EventKind::kDeadlockCycle;

  // Generation-stamped ids for attribution (trace consumers resolve
  // them later, when the slot may already have a new tenant).
  const auto stamp = [this](std::uint32_t slot) -> ClassId {
    const ClassSlot* s = slot_ptr(slot);
    if (s == nullptr) return make_class_id(slot, 0);
    return make_class_id(
        slot, meta_gen(s->meta.load(std::memory_order_relaxed)));
  };

  // The verdict pipeline: rules (RESILOCK_POLICY) first, log as the
  // fallback when no rule matches.
  response::EventContext ctx;
  ctx.waiters = waiters;
  // "Held by another thread" is contention too: in the canonical
  // two-thread AB/BA wedge the closing lock has an empty waiter queue
  // (its holder is parked on the OTHER lock), yet the wedge is
  // imminent — exactly what the abort tier exists for.
  ctx.contended = waiters > 0 || owned;
  ctx.in_flagged_cycle = true;
  // The report is attributed to the class of the lock whose acquisition
  // closed the cycle (path[1] — the destination of the new edge), which
  // is what @class=<name>-scoped rules key on: a per-level hierarchy
  // class lets "abort on inversion at hmcs.level1" fire only there.
  ctx.cls = stamp(path[1]);
  ctx.cls_label = label_of(ctx.cls);
  const auto ev = static_cast<response::ResponseEvent>(kind);
  const response::Action action = response::ResponseEngine::instance().decide(
      ev, ctx, response::Action::kLog);

  TraceBuffer::instance().emit(kind, lock, stamp(path[0]),
                               stamp(path[1]),
                               static_cast<std::uint8_t>(action));

  if (action == response::Action::kLog ||
      action == response::Action::kAbort) {
    std::lock_guard<std::mutex> g(report_mutex_);
    std::fprintf(stderr,
                 "resilock[lockdep]: %s detected by thread pid %u on "
                 "lock %p (%u waiter%s) — acquisition order cycle:\n  ",
                 two_lock ? "lock-order inversion (AB/BA)"
                          : "potential deadlock cycle",
                 static_cast<unsigned>(platform::self_pid()), lock,
                 waiters, waiters == 1 ? "" : "s");
    for (std::size_t i = 0; i < len; ++i) {
      const ClassId id = stamp(path[i]);
      const char* label = label_of(id);
      // Mode annotation from the edge tag bitmaps: a node prints (r)
      // when the path traverses it in read mode (as the destination of
      // the incoming edge or the source of the outgoing one). Plain
      // exclusive paths carry no annotation.
      const bool read_here =
          (i > 0 && edge_dst_was_read(make_class_id(path[i - 1], 0),
                                      make_class_id(path[i], 0))) ||
          (i + 1 < len && edge_src_was_read(make_class_id(path[i], 0),
                                            make_class_id(path[i + 1],
                                                          0)));
      std::fprintf(stderr, "%s%s#%u%s", i == 0 ? "" : " -> ",
                   label != nullptr ? label : "lock",
                   static_cast<unsigned>(path[i]),
                   read_here ? "(r)" : "");
    }
    std::fprintf(stderr,
                 "\n  (flagged on first occurrence of this order; the "
                 "threads need never actually wedge)\n");
  }
  if (action == response::Action::kAbort) {
    response::dispatch_abort(ev, lock);
    // A verify/test abort trap returned: degrade to the report-only
    // outcome and let the acquisition proceed.
  }
}

LockdepStats Graph::stats() const {
  LockdepStats s;
  s.classes_registered =
      classes_registered_.load(std::memory_order_relaxed);
  s.classes_live = classes_live_.load(std::memory_order_relaxed);
  s.class_table_full = class_table_full_.load(std::memory_order_relaxed);
  s.edges = edges_.load(std::memory_order_relaxed);
  s.rr_skipped = rr_skipped_.load(std::memory_order_relaxed);
  s.inversions = inversions_.load(std::memory_order_relaxed);
  s.cycles = cycles_.load(std::memory_order_relaxed);
  s.capacity = capacity_.load(std::memory_order_relaxed);
  s.chunks = chunks_.load(std::memory_order_relaxed);
  s.epoch = global_epoch_.load(std::memory_order_relaxed);
  s.limbo = limbo_count_.load(std::memory_order_relaxed);
  s.reclaimed = reclaimed_.load(std::memory_order_relaxed);
  s.shard_steals = shard_steals_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace resilock::lockdep
