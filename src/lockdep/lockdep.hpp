// Lock-dependency subsystem: runtime lock-order graph with incremental
// cycle detection (lockdep, after the Linux kernel facility of the same
// name).
//
// The shield (src/shield/) answers "does the calling thread hold THIS
// lock?" — a per-thread, per-lock question. Deadlocks are a cross-thread,
// cross-lock property: thread 1 takes A then B, thread 2 takes B then A,
// and whether they wedge depends on timing. This subsystem makes the
// hazard timing-independent: every "held H while acquiring L" pair is an
// edge H→L in a global order graph, and an acquisition whose new edge
// closes a cycle is flagged the FIRST time that order is ever observed —
// long before (and whether or not) two threads actually interleave into
// the deadlock.
//
// Structure:
//   * a sharded, chunk-growable class table: every shielded lock
//     instance lazily registers a class id from a per-shard freelist
//     (shard = hash of the registering thread, work-stealing on
//     exhaustion); when every freelist is dry the table grows by one
//     chunk of slots, pointer-published with release semantics, so the
//     hot-path probe stays a wait-free two-load indirection and no
//     existing id ever moves. Ids carry a generation stamp in their
//     upper bits: a retired slot's id is recycled with a bumped
//     generation, so stale ids held by lockstat, traces, or response
//     rules can never alias the slot's next tenant;
//   * the order graph, sharded by source class into per-class bitmap
//     rows that grow by fixed-size segments (no global capacity in the
//     row layout). The hot path — "is this edge already known?" — is a
//     chain of lock-free loads. A NEW edge is claimed with one fetch_or
//     (seq_cst); the claiming thread then runs a DFS over the bitmap
//     rows for a path back. Two threads racing to insert the two halves
//     of a cycle both use seq_cst RMWs, so at least one of them
//     observes the other's edge and reports;
//   * epoch-based reclamation instead of the old global
//     dfs_inflight drain: readers (edge probes, DFS, reports, retire's
//     column clears) pin the global epoch on entry; retire_class parks
//     the dead slot and its detached row on an epoch-stamped limbo list
//     and returns immediately. Limbo entries are physically recycled
//     (row freed, id returned to a shard freelist) only once every
//     active reader pin postdates them — so a traversal can never
//     stitch a dead class's stale in-edge to a recycled id's fresh
//     out-edges, and retirement never blocks on other threads;
//   * no held set of its own: the thread's held record
//     (shield/held_lock_table.hpp), exact at any depth, is shared with
//     the shield and lockstat. An entry's lockdep part (class, hand-off
//     epoch) is set by the hooks below — Shield<L> on its own entry,
//     the combinators on depth-0 level entries. An entry can go stale
//     without its thread releasing (a §5 hand-off, a forwarded
//     non-owner release, a destroyed lock); it is validated against
//     the class table — the slot's generation and instance, and for a
//     shield's own class its hand-off epoch — before it sources an
//     edge, and a stale one loses only its lockdep part. The hot path
//     writes nothing to the shared table: the epoch moves only on
//     those misuse and hand-off paths;
//   * a chain-key cache in front of the edge walk, after Linux
//     lockdep's lock-chain hash: a nested acquire hashes the (class,
//     mode) of its held entries and of the lock it acquires, plus a
//     chain generation, into one 64-bit key and probes one cache line
//     of a fixed lock-free key set. A hit — an order chain already
//     proven — returns with no epoch pin, no held-entry validation and
//     no edge-bit walk; a miss walks and caches the key only when every
//     edge it names is then in the graph (no stale entry, no read/read
//     pair, no class retired under it). retire_class moves the
//     generation whenever it removes edges, so a key in the set always
//     means "all its edges are in the graph now". Combinator climbs
//     (a skip set) and spilled held records are not cached;
//   * verdicts from the response engine's RESILOCK_POLICY rules
//     ("lockdep=abort"), with log as the fallback; RESILOCK_LOCKDEP=off
//     is the tracking switch, runtime-settable like the shield policy.
//
// Tunables: RESILOCK_LOCKDEP_SHARDS (freelist shards, power of two,
// default 8, max 64) and RESILOCK_LOCKDEP_CHUNK (slots mapped per
// growth step, power of two, default 1024, range 256..65536).
//
// Trylocks never add edges: an acquisition that cannot block cannot
// contribute to a deadlock cycle (it can only be held while someone
// else blocks, which the blocking side's edge records).
//
// Mode-tagged edges (the rw refactor): every held-record entry and
// every edge records its AccessMode. Read/read dependencies add NO
// edges — readers never block readers, so holding A in read mode while
// read-acquiring B can never be a deadlock ingredient (Linux lockdep's
// recursive-read rule) — and therefore every edge the graph stores has
// a write-mode (or exclusive) acquisition on at least one end, which is
// exactly the "cycle detection only fires when a write participates"
// property. The first-occurrence mode of each endpoint is kept in
// side bitmaps so reports can annotate the path (A(r) -> B(w)).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "core/access_mode.hpp"
#include "lockdep/event_ring.hpp"
#include "platform/env.hpp"
#include "shield/held_lock_table.hpp"

namespace resilock::lockdep {

// A class id is a table slot plus a generation stamp. The slot names a
// position in the chunk-growable table (it never moves); the generation
// counts how many times the slot has been recycled, so consumers that
// cached an id across a retire can detect the mismatch instead of
// attributing state to the slot's next tenant.
using ClassId = std::uint32_t;

inline constexpr std::uint32_t kClassSlotBits = 22;
inline constexpr std::uint32_t kClassGenBits = 8;
// Hard ceiling on table growth: 4M slots. The table starts empty and
// maps chunks on demand; this only bounds the static directory.
inline constexpr std::uint32_t kMaxClassSlots = 1u << kClassSlotBits;
inline constexpr std::uint32_t kClassSlotMask = kMaxClassSlots - 1;
inline constexpr std::uint32_t kClassGenMask = (1u << kClassGenBits) - 1;

// Not yet registered (lazy registration happens on first acquire).
inline constexpr ClassId kInvalidClass = 0xFFFFFFFFu;
// Registration was attempted while the table was at its growth ceiling;
// the lock participates in nothing (fail-open: no tracking, no false
// reports).
inline constexpr ClassId kUntrackedClass = 0xFFFFFFFEu;

constexpr std::uint32_t class_slot(ClassId id) noexcept {
  return id & kClassSlotMask;
}
constexpr std::uint32_t class_gen(ClassId id) noexcept {
  return (id >> kClassSlotBits) & kClassGenMask;
}
constexpr ClassId make_class_id(std::uint32_t slot,
                                std::uint32_t gen) noexcept {
  return slot | ((gen & kClassGenMask) << kClassSlotBits);
}
// True for real (trackable) ids; false for kInvalidClass /
// kUntrackedClass. This is THE guard every id-indexed path uses — the
// old `id < kMaxClasses` bound died with the fixed table.
constexpr bool class_tracked(ClassId id) noexcept {
  return id < (1u << (kClassSlotBits + kClassGenBits));
}

// ---------------------------------------------------------------------
// Mode: the lockdep analog of the shield's policy engine.
// ---------------------------------------------------------------------

// Whether tracking is engaged. What a report does (log, abort, ...) is
// the response engine's verdict, not a mode.
enum class LockdepMode : std::uint8_t {
  kOff,     // no tracking at all (hooks disengage)
  kReport,  // count + trace each first-seen inversion/cycle (default)
};

constexpr const char* to_string(LockdepMode m) noexcept {
  switch (m) {
    case LockdepMode::kOff: return "off";
    case LockdepMode::kReport: return "report";
  }
  return "?";
}

namespace detail {
// RESILOCK_LOCKDEP=off is the tracking switch; any other value, or none,
// leaves tracking on.
inline bool seed_tracking() {
  const char* v = platform::env_raw("RESILOCK_LOCKDEP");
  return v == nullptr || std::string_view(v) != "off";
}
inline constinit platform::EnvSwitch tracking{seed_tracking};
}  // namespace detail

[[gnu::always_inline]] inline LockdepMode lockdep_mode() noexcept {
  return detail::tracking.on() ? LockdepMode::kReport : LockdepMode::kOff;
}

inline void set_lockdep_mode(LockdepMode m) noexcept {
  detail::tracking.set(m != LockdepMode::kOff);
}

[[gnu::always_inline]] inline bool lockdep_enabled() noexcept {
  return detail::tracking.on();
}

// RAII pin, mirroring ShieldPolicyGuard / MisuseCheckGuard.
class LockdepModeGuard {
 public:
  explicit LockdepModeGuard(LockdepMode m) : previous_(lockdep_mode()) {
    set_lockdep_mode(m);
  }
  ~LockdepModeGuard() { set_lockdep_mode(previous_); }
  LockdepModeGuard(const LockdepModeGuard&) = delete;
  LockdepModeGuard& operator=(const LockdepModeGuard&) = delete;

 private:
  const LockdepMode previous_;
};

// ---------------------------------------------------------------------
// Telemetry.
// ---------------------------------------------------------------------

struct LockdepStats {
  std::uint64_t classes_registered = 0;  // cumulative
  std::uint64_t classes_live = 0;        // currently registered
  std::uint64_t class_table_full = 0;    // registrations refused
  std::uint64_t edges = 0;               // distinct order edges recorded
  std::uint64_t rr_skipped = 0;          // read/read pairs taken edge-free
  std::uint64_t inversions = 0;          // two-class AB/BA reports
  std::uint64_t cycles = 0;              // reports with cycle length >= 3
  std::uint64_t capacity = 0;            // table slots currently mapped
  std::uint64_t chunks = 0;              // chunk mappings (growth steps)
  std::uint64_t epoch = 0;               // global reclamation epoch
  std::uint64_t limbo = 0;               // retired ids awaiting grace
  std::uint64_t reclaimed = 0;           // ids recycled after grace
  std::uint64_t shard_steals = 0;        // cross-shard freelist steals
  std::uint64_t chains = 0;              // chain keys cached
  std::uint64_t chain_walks = 0;         // cacheable attempts that walked
  std::uint64_t chain_set_full = 0;      // chain keys that replaced one

  std::uint64_t reports() const { return inversions + cycles; }
};

// The contention signal a new edge's report carries: the acquired
// lock's live waiters and whether another thread holds it.
struct EdgeStake {
  std::uint32_t waiters = 0;
  bool owned = false;
};

// ---------------------------------------------------------------------
// The global order graph.
// ---------------------------------------------------------------------

class Graph {
 public:
  // One load and a branch, inline; the first call constructs the graph
  // out of line. Deliberately leaked: thread-exit hooks (reader-slot
  // leases) and detached telemetry threads may touch the graph during
  // shutdown.
  [[gnu::always_inline]] static Graph& instance() {
    Graph* g = instance_.load(std::memory_order_acquire);
    return __builtin_expect(g != nullptr, 1) ? *g : create();
  }

  // Allocates a class id (recycling retired ones first — own shard,
  // then stealing, then reclaiming limbo, then growing the table).
  // Returns kUntrackedClass only at the growth ceiling — callers must
  // treat that as "do not track" and carry on.
  ClassId register_class(const void* instance, const char* label);

  // Allocates a class id shared by MANY lock instances (Linux-style
  // static class keys, see class_key.hpp). `key` is registered as the
  // class's instance so reports can name it; the shared bit tells the
  // held-entry validation that neither the instance nor the
  // hand-off epoch can identify individual locks of this class.
  ClassId register_shared_class(const void* key, const char* label);

  // Logically retires the class: bumps the slot's generation (so the
  // id held by the caller — and anyone else — goes stale), clears its
  // in-edges from other rows, detaches its own row, and parks both on
  // the epoch limbo list. Returns immediately; the slot is recycled
  // and the row freed only after every reader pinned at or before the
  // retirement epoch has unpinned. Safe to call with kUntrackedClass /
  // kInvalidClass or an already-stale id (no-op).
  void retire_class(ClassId id);

  // True iff `id` was registered through register_shared_class (and is
  // still the slot's live tenant).
  bool is_shared(ClassId id) const {
    const ClassSlot* s = slot_checked(id);
    return s != nullptr &&
           (s->meta.load(std::memory_order_acquire) & kMetaShared) != 0;
  }

  // True iff `id` sat on the path of a reported inversion/cycle. This
  // is the "lockdep state" input of the response engine: a misuse on a
  // lock whose class is entangled in a known order cycle is graver
  // than the same misuse elsewhere.
  bool is_flagged(ClassId id) const {
    const ClassSlot* s = slot_checked(id);
    return s != nullptr &&
           (s->meta.load(std::memory_order_relaxed) & kMetaFlagged) != 0;
  }

  // ------------------------------------------------------------------
  // Chain-key cache (after Linux lockdep's lock-chain hash): a set of
  // 64-bit keys, each naming one (held classes, acquired class) chain
  // whose every order edge is in the graph. A key is inserted only by
  // an edge walk that found or recorded all of them; retire_class
  // moves the generation that seeds every key whenever it removes
  // edges, so a cached chain never outlives one of its edges.
  // ------------------------------------------------------------------

  // Seeds every chain key (detail::chain_key).
  std::uint64_t chain_generation() const {
    return chain_gen_.load(std::memory_order_acquire);
  }

  // True iff `key` is cached: one bucket, one cache line, no pin.
  [[gnu::always_inline]] bool chain_cached(std::uint64_t key) const {
    const std::atomic<std::uint64_t>* keys =
        chain_keys_.load(std::memory_order_acquire);
    if (keys == nullptr) return false;
    const std::atomic<std::uint64_t>* bucket =
        keys + (key & (kChainSlots - 1) & ~std::uint64_t{kChainBucket - 1});
    for (std::uint32_t i = 0; i < kChainBucket; ++i) {
      const std::uint64_t k = bucket[i].load(std::memory_order_acquire);
      if (k == key) return true;
      if (k == 0) return false;  // slots fill in order and never empty
    }
    return false;
  }

  // A cacheable attempt missed `key` and walked (stats().chain_walks).
  // `complete`: the walk left every edge of the chain in the graph, so
  // the key is cached (stats().chains), replacing a key of its bucket
  // when the bucket is full (stats().chain_set_full). The set is
  // allocated zeroed at the first insert and never freed.
  void chain_walked(std::uint64_t key, bool complete);

  // Hot path: true iff from→to is already recorded (a chain of
  // wait-free loads: chunk → slot → row → segment → word).
  bool has_edge(ClassId from, ClassId to) const {
    if (!class_tracked(from) || !class_tracked(to)) return false;
    EpochPin pin(const_cast<Graph&>(*this));
    const EdgeSeg* seg = seg_of(class_slot(from), class_slot(to));
    if (seg == nullptr) return false;
    const std::uint32_t ts = class_slot(to);
    return (seg->bits[(ts & kSegMask) >> 6].load(
                std::memory_order_acquire) >>
            (ts & 63)) & 1u;
  }

  // Records "held `from` (in `from_mode`) while acquiring `to` (in
  // `to_mode`)" and, when the edge is new, runs cycle detection and the
  // response-engine verdict. `lock` is the lock being acquired (for the
  // report only); `waiters` is its live waiter count at the attempt and
  // `owned` whether another thread currently holds it — together the
  // contention signal the engine keys cycle-with-waiters escalation
  // off. A read/read pair adds NO edge (counted in rr_skipped): readers
  // never block readers, so the dependency cannot wedge — which leaves
  // every stored edge write-involved by construction. True iff the
  // pair needs no edge beyond what the graph now holds: the edge is
  // recorded, or both ends share a slot; false for a read/read pair,
  // an untracked end or a class retired under the caller.
  bool ensure_edge(ClassId from, ClassId to, const void* lock,
                   std::uint32_t waiters = 0, bool owned = false,
                   AccessMode from_mode = AccessMode::kExclusive,
                   AccessMode to_mode = AccessMode::kExclusive) {
    if (!class_tracked(from) || !class_tracked(to)) return false;
    const std::uint32_t fs = class_slot(from);
    const std::uint32_t ts = class_slot(to);
    if (fs == ts) return true;
    if (from_mode == AccessMode::kRead && to_mode == AccessMode::kRead) {
      rr_skipped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // The pin covers every row/segment dereference below (and the DFS
    // inside claim_edge): reclamation frees a detached row only after
    // all pins taken before the retirement epoch are gone. Nested pins
    // (the on_acquire_attempt loop pins once around all its edges)
    // cost one thread-local increment.
    EpochPin pin(*this);
    if (const EdgeSeg* seg = seg_of(fs, ts)) {
      if ((seg->bits[(ts & kSegMask) >> 6].load(
               std::memory_order_acquire) >>
           (ts & 63)) & 1u) {
        return true;  // the order is already known
      }
    }
    return claim_edge(from, to, lock, waiters, owned, from_mode, to_mode);
  }

  // First-occurrence mode tags of a recorded edge: whether the source
  // hold / destination acquisition was read-mode. False for unrecorded
  // edges and write/exclusive endpoints.
  bool edge_src_was_read(ClassId from, ClassId to) const {
    if (!class_tracked(from) || !class_tracked(to)) return false;
    EpochPin pin(const_cast<Graph&>(*this));
    const EdgeSeg* seg = seg_of(class_slot(from), class_slot(to));
    if (seg == nullptr) return false;
    const std::uint32_t ts = class_slot(to);
    return (seg->read_src[(ts & kSegMask) >> 6].load(
                std::memory_order_acquire) >>
            (ts & 63)) & 1u;
  }
  bool edge_dst_was_read(ClassId from, ClassId to) const {
    if (!class_tracked(from) || !class_tracked(to)) return false;
    EpochPin pin(const_cast<Graph&>(*this));
    const EdgeSeg* seg = seg_of(class_slot(from), class_slot(to));
    if (seg == nullptr) return false;
    const std::uint32_t ts = class_slot(to);
    return (seg->read_dst[(ts & kSegMask) >> 6].load(
                std::memory_order_acquire) >>
            (ts & 63)) & 1u;
  }

  // Label of the slot's LIVE tenant; nullptr once the id went stale
  // (retired or recycled) — a recycled slot never answers for its
  // previous tenant.
  const char* label_of(ClassId id) const {
    const ClassSlot* s = slot_checked(id);
    return s != nullptr ? s->label.load(std::memory_order_acquire)
                        : nullptr;
  }

  // First live class registered under `label` (string compare), or
  // kInvalidClass. Cold path only: response-rule installation resolves
  // @class=<name> scopes through here. Scans only mapped chunks.
  ClassId find_class(std::string_view label) const;

  // Lock instance currently registered under `id`; nullptr when the
  // id is stale (or a sentinel).
  const void* instance_of(ClassId id) const {
    const ClassSlot* s = slot_checked(id);
    return s != nullptr ? s->instance.load(std::memory_order_acquire)
                        : nullptr;
  }

  // Hand-off epoch of a per-instance class. The shield bumps it when a
  // release is about to end the lock's current hold behind its owner's
  // back (the §5 escape hatch, a forwarded non-owner release); every
  // held-record entry of the class records it in its lockdep part, so
  // a moved epoch marks that part stale. It lives in the graph's own
  // table, not in the lock, so a thread can validate a possibly-stale
  // entry WITHOUT dereferencing a lock object that may have been
  // destroyed since — and since it moves only on those paths, a
  // correct program's acquires and releases only ever read it. Relaxed
  // is enough: the bump precedes the base release that lets the next
  // holder in, and that hand-off orders it before the next record.
  std::uint32_t handoff_epoch(ClassId id) const {
    const ClassSlot* s = slot_checked(id);
    return s != nullptr ? s->handoff_epoch.load(std::memory_order_relaxed)
                        : 0;
  }
  void bump_handoff_epoch(ClassId id) {
    if (ClassSlot* s = slot_checked(id)) {
      s->handoff_epoch.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // ------------------------------------------------------------------
  // Epoch reclamation (reader side is public: the hooks, the trace
  // exporter, and tests pin around multi-step graph reads).
  // ------------------------------------------------------------------

  // Reentrant per-thread epoch pin. While any thread is pinned at
  // epoch E, no limbo entry retired at an epoch >= E is recycled.
  void pin_epoch();
  void unpin_epoch();

  class EpochPin {
   public:
    explicit EpochPin(Graph& g) : g_(g) { g_.pin_epoch(); }
    ~EpochPin() { g_.unpin_epoch(); }
    EpochPin(const EpochPin&) = delete;
    EpochPin& operator=(const EpochPin&) = delete;

   private:
    Graph& g_;
  };

  // Frees every limbo entry whose grace period has passed (no active
  // pin at or before its retirement epoch): rows are deleted, slots
  // returned to the shard freelists. Called opportunistically by the
  // allocator and retire; public so tests and shutdown sweeps can
  // force it. Returns the number of entries recycled.
  std::size_t try_reclaim();

  // Table slots currently mapped (monotone; capacity never shrinks —
  // chunks are permanent, only their tenants churn).
  std::uint32_t capacity() const {
    return capacity_.load(std::memory_order_acquire);
  }

  // Caps future growth at `slots` (rounded down to a chunk multiple;
  // the ceiling kMaxClassSlots always applies). Already-mapped chunks
  // are unaffected. Returns the previous limit. Tests use this to
  // exercise the table-full fail-open path without mapping 4M slots.
  std::uint32_t set_capacity_limit(std::uint32_t slots);

  LockdepStats stats() const;

 private:
  Graph();
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  [[gnu::cold, gnu::noinline]] static Graph& create();
  static inline constinit std::atomic<Graph*> instance_{nullptr};

  // Chain-key set geometry: 16K keys (128 KiB, mapped on first touch),
  // probed one 8-key bucket — one cache line — at a time.
  static constexpr std::uint64_t kChainSlots = 1u << 14;
  static constexpr std::uint32_t kChainBucket = 8;

  // ------------------------------------------------------------------
  // Table layout.
  // ------------------------------------------------------------------

  // Edge bitmaps grow in fixed 1024-destination segments, deliberately
  // decoupled from the (tunable) class-table chunk size.
  static constexpr std::uint32_t kSegSlots = 1024;
  static constexpr std::uint32_t kSegShift = 10;
  static constexpr std::uint32_t kSegMask = kSegSlots - 1;
  static constexpr std::uint32_t kSegWords = kSegSlots / 64;
  static constexpr std::uint32_t kMaxSegs = kMaxClassSlots / kSegSlots;

  struct EdgeSeg {
    std::atomic<std::uint64_t> bits[kSegWords] = {};
    // Mode tags, valid only where the corresponding `bits` bit is set:
    // the endpoint was read-mode at the edge's first occurrence.
    std::atomic<std::uint64_t> read_src[kSegWords] = {};
    std::atomic<std::uint64_t> read_dst[kSegWords] = {};
  };

  // One row = the successor bitmap of one source class, allocated on
  // its first out-edge. `present` mirrors which segments are mapped so
  // the DFS skips empty space in one word load per 64 segments.
  struct Row {
    std::atomic<std::uint64_t> present[kMaxSegs / 64] = {};
    std::atomic<EdgeSeg*> segs[kMaxSegs] = {};
  };

  // Reverse-edge bookkeeping: each successful first-occurrence claim
  // from→to pushes {from} onto to's in-edge list, so retire_class can
  // clear its column in O(in-degree) instead of sweeping the table.
  struct InEdgeNode {
    std::uint32_t src_slot;
    std::uint32_t src_gen;
    InEdgeNode* next;
  };

  struct ClassSlot {
    std::atomic<const char*> label{nullptr};
    std::atomic<const void*> instance{nullptr};
    std::atomic<std::uint32_t> handoff_epoch{0};
    // bit 0 live, bit 1 shared, bit 2 flagged; bits 8..15 generation.
    std::atomic<std::uint32_t> meta{0};
    std::atomic<Row*> row{nullptr};
    std::atomic<InEdgeNode*> in_edges{nullptr};
  };

  static constexpr std::uint32_t kMetaLive = 1u << 0;
  static constexpr std::uint32_t kMetaShared = 1u << 1;
  static constexpr std::uint32_t kMetaFlagged = 1u << 2;
  static constexpr std::uint32_t kMetaGenShift = 8;

  static constexpr std::uint32_t meta_gen(std::uint32_t meta) noexcept {
    return (meta >> kMetaGenShift) & kClassGenMask;
  }

  // Chunk directory: sized for the smallest permitted chunk so the
  // runtime chunk size only changes how much of it is used. 16384
  // pointers — the only statically-sized piece of the table.
  static constexpr std::uint32_t kMinChunkSlots = 256;
  static constexpr std::uint32_t kMaxChunkSlots = 65536;
  static constexpr std::uint32_t kChunkDirSlots =
      kMaxClassSlots / kMinChunkSlots;

  // Wait-free slot lookup: two dependent loads. Null when the slot's
  // chunk is not mapped (an id from a foreign/corrupt source).
  ClassSlot* slot_ptr(std::uint32_t slot) const {
    ClassSlot* chunk =
        chunk_dir_[slot >> chunk_shift_].load(std::memory_order_acquire);
    return chunk != nullptr ? &chunk[slot & chunk_mask_] : nullptr;
  }

  // slot_ptr plus the generation/liveness check: non-null only while
  // `id` is the slot's current live tenant.
  ClassSlot* slot_checked(ClassId id) const {
    if (!class_tracked(id)) return nullptr;
    ClassSlot* s = slot_ptr(class_slot(id));
    if (s == nullptr) return nullptr;
    const std::uint32_t m = s->meta.load(std::memory_order_acquire);
    if ((m & kMetaLive) == 0 || meta_gen(m) != class_gen(id)) {
      return nullptr;
    }
    return s;
  }

  // Segment holding from→to's bit, or nullptr when any level of the
  // row is unmapped (the edge was certainly never recorded).
  const EdgeSeg* seg_of(std::uint32_t fs, std::uint32_t ts) const {
    const ClassSlot* s = slot_ptr(fs);
    if (s == nullptr) return nullptr;
    const Row* row = s->row.load(std::memory_order_acquire);
    if (row == nullptr) return nullptr;
    return row->segs[ts >> kSegShift].load(std::memory_order_acquire);
  }

  // ------------------------------------------------------------------
  // Slow paths (lockdep.cpp).
  // ------------------------------------------------------------------

  ClassId register_internal(const void* instance, const char* label,
                            bool shared);
  // First-occurrence claim (allocates row/segment as needed, validates
  // both generations, records the in-edge, then runs the DFS). Called
  // with the caller's epoch pin held.
  // True iff the edge's bit is set on return (whoever set it); false
  // when either id went stale.
  bool claim_edge(ClassId from, ClassId to, const void* lock,
                  std::uint32_t waiters, bool owned, AccessMode from_mode,
                  AccessMode to_mode);
  void check_cycle(std::uint32_t from_slot, std::uint32_t to_slot,
                   const void* lock, std::uint32_t waiters, bool owned);
  void report_cycle(const std::uint32_t* path, std::size_t len,
                    const void* lock, std::uint32_t waiters, bool owned);

  std::uint32_t alloc_slot();
  bool pop_shard(std::uint32_t shard, std::uint32_t& slot);
  void push_shard(std::uint32_t shard, std::uint32_t slot);
  std::uint32_t grow(std::uint32_t home_shard);
  void clear_in_edge(const InEdgeNode& in, std::uint32_t dst_slot);
  std::int32_t claim_reader_slot();

 public:
  // Thread-exit hook (reader-slot leases); not part of the API.
  void release_reader_slot(std::uint32_t idx);

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr std::uint32_t kMaxShards = 64;
  static constexpr std::uint32_t kEpochReaders = 512;

  struct alignas(64) Shard {
    std::mutex mu;
    std::vector<std::uint32_t> free_slots;
  };
  struct alignas(64) ReaderSlot {
    std::atomic<std::uint64_t> epoch{0};  // 0 = quiescent
  };
  struct LimboEntry {
    std::uint32_t slot;
    std::uint64_t epoch;  // global epoch at retirement
    Row* row;             // detached row (may be null)
    LimboEntry* next;
  };

  // Geometry, fixed at construction from the env knobs.
  std::uint32_t chunk_slots_;
  std::uint32_t chunk_shift_;
  std::uint32_t chunk_mask_;
  std::uint32_t shard_count_;
  std::uint32_t shard_mask_;

  std::atomic<ClassSlot*> chunk_dir_[kChunkDirSlots] = {};
  std::atomic<std::uint32_t> capacity_{0};
  std::atomic<std::uint32_t> capacity_limit_{kMaxClassSlots};
  std::mutex grow_mutex_;

  // The chain-key set and its generation: read by every nested acquire,
  // written once at allocation and by retirements that remove edges,
  // so they get a line of their own (Shard is line-aligned too).
  alignas(64) std::atomic<std::atomic<std::uint64_t>*> chain_keys_{nullptr};
  std::atomic<std::uint64_t> chain_gen_{1};

  Shard shards_[kMaxShards];
  std::atomic<std::uint32_t> reclaim_cursor_{0};

  // Epoch machinery. Reader slots are leased per thread (returned at
  // thread exit); when the pool is exhausted, extra readers pin via
  // the fallback counter, which blocks ALL reclamation while nonzero
  // (correct, just coarser). The lease bitmap is lock-free: the lease
  // returns from a thread-exit destructor, outside any interposed
  // frame, where a mutex would be adopted by the LD_PRELOAD shim.
  ReaderSlot readers_[kEpochReaders];
  std::atomic<std::uint64_t> global_epoch_{1};
  std::atomic<std::uint32_t> fallback_pins_{0};
  std::atomic<std::uint64_t> reader_leased_[kEpochReaders / 64] = {};

  std::mutex limbo_mutex_;
  LimboEntry* limbo_head_ = nullptr;
  LimboEntry* limbo_tail_ = nullptr;

  // Serializes report formatting so interleaved cycles stay readable.
  std::mutex report_mutex_;

  std::atomic<std::uint64_t> classes_registered_{0};
  std::atomic<std::uint64_t> classes_live_{0};
  std::atomic<std::uint64_t> class_table_full_{0};
  std::atomic<std::uint64_t> edges_{0};
  std::atomic<std::uint64_t> rr_skipped_{0};
  std::atomic<std::uint64_t> inversions_{0};
  std::atomic<std::uint64_t> cycles_{0};
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> limbo_count_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
  std::atomic<std::uint64_t> shard_steals_{0};
  std::atomic<std::uint64_t> chains_{0};
  std::atomic<std::uint64_t> chain_walks_{0};
  std::atomic<std::uint64_t> chain_set_full_{0};
};

// RAII capacity clamp for tests (restores the previous limit).
class CapacityLimitGuard {
 public:
  explicit CapacityLimitGuard(std::uint32_t slots)
      : previous_(Graph::instance().set_capacity_limit(slots)) {}
  ~CapacityLimitGuard() {
    Graph::instance().set_capacity_limit(previous_);
  }
  CapacityLimitGuard(const CapacityLimitGuard&) = delete;
  CapacityLimitGuard& operator=(const CapacityLimitGuard&) = delete;

 private:
  const std::uint32_t previous_;
};

// ---------------------------------------------------------------------
// Hooks, called by Shield<L> and the combinators. The held set they
// read and write is the thread's held record: an entry's lockdep part
// is `ordered` plus its class and hand-off epoch.
// ---------------------------------------------------------------------

using Hold = shield::HeldLockTable::Hold;
static_assert(shield::HeldLockTable::kNoClass == kInvalidClass);

namespace detail {
// The edge walk of one acquire attempt on `lock` (class `cls`), as the
// held record's prune() visitor: one order edge per held entry. Its
// call is forced inline (prune is too), so the walk compiles into one
// loop. `complete` ends true iff every entry's edge is in the graph
// now: no entry was stale, no read/read pair was skipped, no class
// went stale under the walk — the condition for caching its chain.
struct EdgeWalk {
  Graph& g;
  const void* lock;
  ClassId cls;
  std::uint32_t waiters;
  bool owned;
  AccessMode mode;
  const ClassId* skip_src;
  std::size_t skip_n;
  bool complete = true;
  // One pin for the rest of the walk, taken at the first entry that
  // needs the graph: every validity probe and edge claim reads
  // epoch-protected table state, and the nested pins inside
  // ensure_edge collapse to thread-local depth bumps. A combinator's
  // climb, whose held entries are all its own levels, takes none.
  std::optional<Graph::EpochPin> pin;

  [[gnu::always_inline]] void operator()(const void* held_lock,
                                         Hold& held) {
    if (!held.ordered) return;
    // The caller's own levels: no edge, and nothing to validate — they
    // are live classes of the lock being climbed.
    for (std::size_t s = 0; s < skip_n; ++s) {
      if (held.cls == skip_src[s]) return;
    }
    if (!pin) pin.emplace(g);
    // A per-instance held entry sources an edge only while the graph
    // still maps its class to this lock AND no release has ended the
    // hold behind this thread's back since it was recorded (the
    // hand-off epoch is unchanged). A §5 hand-off (cross-thread release
    // with checks disabled), a forwarded non-owner release or a
    // destroyed lock leaves a stale entry that would otherwise record
    // orders this thread never held across — so its lockdep part is
    // cleared lazily here; the shield's own self-heal decides when the
    // rest of the entry goes. Every probe reads the graph's own table,
    // never the (possibly freed) lock object; a recycled slot fails the
    // id's generation check and is cleared the same way.
    //
    // A SHARED (keyed) class maps many instances to one id, so neither
    // the instance nor the epoch can identify this entry; the only
    // check left is that the key itself is still registered. Stale
    // keyed entries are instead bounded by release() clearing them by
    // lock pointer. Read/write holds of rw shields are shared-class by
    // construction (many concurrent readers), so they take this branch
    // too.
    if (g.is_shared(held.cls)
            ? g.instance_of(held.cls) == nullptr
            : (g.instance_of(held.cls) != held_lock ||
               g.handoff_epoch(held.cls) != held.epoch)) {
      held.ordered = false;
      complete = false;
      return;
    }
    complete &=
        g.ensure_edge(held.cls, cls, lock, waiters, owned, held.mode, mode);
  }
};

// One multiply-xorshift round: a bijection that spreads a small input
// over all 64 bits.
inline std::uint64_t chain_mix(std::uint64_t x) {
  x *= 0x9E3779B97F4A7C15ull;
  return x ^ (x >> 29);
}

// Folds one (class, mode) into a chain key. Order-dependent, and for a
// fixed step a bijection of `h`, so two distinct chains share a key
// only by chance (about 2^-64 a pair: the risk Linux lockdep's chain
// hash takes too) — provided `h` is already spread over 64 bits, which
// is why chain_key mixes its seed first. A raw generation XORed with a
// raw first entry would collide by construction: holding class 10 at
// generation 1 and class 11 at generation 5 would share every key.
inline std::uint64_t chain_step(std::uint64_t h, ClassId cls,
                                AccessMode mode) {
  return chain_mix(h ^ ((std::uint64_t{cls} << 2) |
                        static_cast<std::uint64_t>(mode)));
}

// The key of "the ordered entries of `tbl`'s fast slots, in slot order,
// held while acquiring `cls` in `mode`", seeded with the graph's chain
// generation. Never 0 (the set's empty slot).
[[gnu::always_inline]] inline std::uint64_t chain_key(
    const shield::HeldLockTable& tbl, ClassId cls, AccessMode mode,
    std::uint64_t generation) {
  std::uint64_t h = chain_mix(generation);
  tbl.each_fast([&](const Hold& held) {
    if (held.ordered) h = chain_step(h, held.cls, held.mode);
  });
  h = chain_step(h, cls, mode);
  return h != 0 ? h : 1;
}
}  // namespace detail

// Before a BLOCKING acquire attempt: records one order edge per held
// lock and runs the verdict on any new edge — i.e. an imminent
// inversion is flagged before the caller can wedge. Callers gate on
// lockdep_enabled(). `stake()` returns the EdgeStake (the acquired
// lock's live waiters, and whether another thread holds it) forwarded
// to the response engine with a report; it is called once, and only
// when the call walks. `mode` is the AccessMode of THIS acquisition;
// each held entry contributes its own recorded mode, and read/read
// pairs are edge-free (Graph::ensure_edge). `skip_src` / `skip_n`
// suppress edges sourced at the listed classes: combinators whose
// internal levels nest by construction (cohort local -> global, the
// HMCS/HCLH child -> parent climb) pass their own level classes here
// so their internal protocol order never pollutes the graph — an
// arbitrary-depth hierarchy holds EVERY level below the one it is
// climbing into, so the skip set must cover the whole tree, not one
// class.
//
// The hot path is the chain-key cache: a chain this process has
// already proven — every edge it names is in the graph — returns after
// one key hash over the held record and one bucket probe, with no
// epoch pin, no held-entry validation and no stake. A miss reads the
// stake once (the shield's reads lines other threads write), runs the
// edge walk and caches the chain if the walk left it complete. A call
// with a skip set, or a record spilled past its fast slots, always
// walks.
template <typename StakeFn>
inline void on_acquire_attempt(const void* lock, ClassId cls,
                               AccessMode mode, StakeFn&& stake,
                               const ClassId* skip_src = nullptr,
                               std::size_t skip_n = 0) {
  if (!class_tracked(cls)) return;
  shield::HeldLockTable& tbl = shield::HeldLockTable::mine();
  if (tbl.held_count() == 0) return;  // single-lock hot path: no edges
  Graph& g = Graph::instance();
  const bool cacheable = skip_n == 0 && tbl.fast_path_only();
  std::uint64_t key = 0;
  if (cacheable) {
    key = detail::chain_key(tbl, cls, mode, g.chain_generation());
    if (g.chain_cached(key)) return;
  }
  const EdgeStake st = stake();
  detail::EdgeWalk walk{g,    lock,     cls,    st.waiters, st.owned,
                        mode, skip_src, skip_n, true,       {}};
  tbl.prune(walk);
  if (cacheable) g.chain_walked(key, walk.complete);
}

// With a stake known up front (the combinators').
inline void on_acquire_attempt(const void* lock, ClassId cls,
                               std::uint32_t waiters, bool owned,
                               AccessMode mode, const ClassId* skip_src,
                               std::size_t skip_n) {
  on_acquire_attempt(
      lock, cls, mode, [&] { return EdgeStake{waiters, owned}; }, skip_src,
      skip_n);
}

// Single-skip convenience (the two-level cohort shape).
inline void on_acquire_attempt(const void* lock, ClassId cls,
                               std::uint32_t waiters = 0,
                               bool owned = false,
                               AccessMode mode = AccessMode::kExclusive,
                               ClassId skip_src = kInvalidClass) {
  on_acquire_attempt(lock, cls, waiters, owned, mode, &skip_src,
                     skip_src == kInvalidClass ? 0u : 1u);
}

// After the base protocol actually granted the lock (blocking or try
// path): gives the held entry `h` its lockdep part. Callers gate on
// lockdep_enabled(). An entry that already has one keeps it (a
// pass-through relock is held set, not depth). `own_class`: `cls` is
// the lock's own per-instance class, whose hand-off epoch the entry
// records (Graph::handoff_epoch).
inline void on_acquired(Hold& h, ClassId cls, bool own_class) {
  if (!class_tracked(cls) || h.ordered) return;
  h.ordered = true;
  h.cls = cls;
  h.epoch = own_class ? Graph::instance().handoff_epoch(cls) : 0;
}

// A combinator's level `lock` was granted: a lockdep-only, depth-0
// entry under the level's shared class.
inline void on_acquired(const void* lock, ClassId cls) {
  if (!class_tracked(cls)) return;
  shield::HeldLockTable& tbl = shield::HeldLockTable::mine();
  if (Hold* h = tbl.find(lock)) {
    on_acquired(*h, cls, false);
  } else {
    tbl.insert(lock, {.cls = cls, .ordered = true});
  }
}

// A combinator's level `lock` was released: clears its lockdep part.
// NOT gated on lockdep_enabled(): if tracking was on at acquire time
// the part must come off even if the mode changed in between.
inline void on_released(const void* lock) {
  shield::HeldLockTable& tbl = shield::HeldLockTable::mine();
  Hold* h = tbl.find(lock);
  if (h == nullptr) return;
  h->ordered = false;
  if (h->empty()) tbl.erase(lock, *h);
}

}  // namespace resilock::lockdep
