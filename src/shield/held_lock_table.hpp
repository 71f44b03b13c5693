// Per-thread held record — the one place a thread's held locks live:
// the shield's depth and mode, lockdep's edge sources and lockstat's
// sampled hold windows.
//
// Modeled on the glibc `shield_arr` layer from the Lock-Bench companion
// repo (SNIPPETS.md): a small thread-local array of (lock, recursion
// count) entries consulted before every acquire/release, which is both
// the thread's held set and its reentrancy count. Two bugs in that
// exemplar are fixed here:
//
//   1. Off-by-one: its lookup/insert guard is `lock_count <= MAX_LOCKS`,
//      so the insert at `lock_table[lock_count]` writes one past the end
//      of the array when the table is full, and its decrement guard is
//      `lock_count < MAX_LOCKS`, so a release with an *exactly full*
//      table is refused as unbalanced even though the entry is present.
//   2. Overflow loss: once more than MAX_LOCKS locks are held the extra
//      entries are silently dropped, and every later unlock of a dropped
//      lock is misreported as unbalanced.
//
// Here the fixed-size array is only the fast path (kFastSlots covers the
// common "a thread holds a handful of locks" case with zero allocation);
// deeper nests spill into a per-thread hash map, so the record is exact
// at any depth, for every layer. Lock pointers and payload sit in
// separate arrays: a lookup scans one cache line of keys. Everything is
// thread-local: no atomics, no sharing.
//
// An entry (Hold) has one part per layer:
//   * the shield's: recursion depth and the AccessMode of the first
//     acquisition. Depth 0 means the shield does not hold the lock: a
//     combinator's lockdep-only level entry, which holds() ignores;
//   * lockdep's (lockdep/lockdep.hpp): `ordered`, the class and the
//     class's hand-off epoch — the entry sources order edges while set;
//   * lockstat's (observe/lockstat.hpp): the sampled hold-begin time, 0
//     when this hold is not sampled. It reuses `cls`, the lock's class.
// A layer clears only its own part; an entry with no part left is
// dropped at once, so the record never stores an empty entry.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <unordered_map>

#include "core/access_mode.hpp"
#include "platform/cacheline.hpp"

namespace resilock::shield {

class HeldLockTable {
 public:
  // Sized for the common case; PARSEC-style apps rarely nest deeper
  // than a few locks per thread. Beyond this the spill map takes over.
  static constexpr std::size_t kFastSlots = 8;

  // Sentinel returned by note_released() when the calling thread does
  // not hold the lock at all.
  static constexpr int kNotHeld = -1;

  // `cls` of an entry no layer has named a class for (lockdep's
  // kInvalidClass; lockdep.hpp checks the two agree).
  static constexpr std::uint32_t kNoClass = 0xFFFFFFFFu;

  struct Hold {
    std::uint32_t depth = 0;
    std::uint32_t cls = kNoClass;
    std::uint32_t epoch = 0;
    AccessMode mode = AccessMode::kExclusive;
    bool ordered = false;
    std::uint64_t hold_begin_ns = 0;

    bool empty() const {
      return depth == 0 && !ordered && hold_begin_ns == 0;
    }
  };

  // The calling thread's record (lazily constructed thread-local).
  static HeldLockTable& mine() {
    thread_local HeldLockTable table;
    return table;
  }

  // `lock`'s entry, whatever parts it has; nullptr when it has none.
  Hold* find(const void* lock) {
    for (std::size_t i = 0; i < fast_count_; ++i) {
      if (keys_[i] == lock) return &holds_[i];
    }
    if (!spill_.empty()) {
      auto it = spill_.find(lock);
      if (it != spill_.end()) return &it->second;
    }
    return nullptr;
  }
  const Hold* find(const void* lock) const {
    return const_cast<HeldLockTable*>(this)->find(lock);
  }

  // `lock`'s entry while the shield holds it (depth > 0), else nullptr.
  Hold* find_held(const void* lock) {
    Hold* h = find(lock);
    return h != nullptr && h->depth > 0 ? h : nullptr;
  }

  // Recursion depth of `lock`; 0 when not held.
  std::uint32_t depth(const void* lock) const {
    const Hold* h = find(lock);
    return h != nullptr ? h->depth : 0;
  }

  bool holds(const void* lock) const { return depth(lock) > 0; }

  // AccessMode the calling thread holds `lock` under. Only meaningful
  // while holds(lock); kExclusive when the lock is not held.
  AccessMode mode_of(const void* lock) const {
    const Hold* h = find(lock);
    return h != nullptr && h->depth > 0 ? h->mode : AccessMode::kExclusive;
  }

  // Adds `hold` for a lock that has no entry (the caller's find just
  // missed): no second scan.
  Hold& insert(const void* lock, const Hold& hold) {
    if (fast_count_ < kFastSlots) {  // strict <: the exemplar's OOB fix
      keys_[fast_count_] = lock;
      holds_[fast_count_] = hold;
      return holds_[fast_count_++];
    }
    return spill_[lock] = hold;
  }

  // `lock`'s entry, added empty when absent. The caller must give it a
  // part before the record is used again.
  Hold& entry(const void* lock) {
    Hold* h = find(lock);
    return h != nullptr ? *h : insert(lock, Hold{});
  }

  // Records one acquisition in `mode`: a new entry with depth 1, or a
  // recursion bump when already held (absorbed reentrant acquire — the
  // entry keeps the mode of the FIRST acquisition).
  void note_acquired(const void* lock,
                     AccessMode mode = AccessMode::kExclusive) {
    Hold& h = entry(lock);
    if (h.depth++ == 0) h.mode = mode;
  }

  // Records one release. Returns the remaining recursion depth (0 means
  // the lock is now fully released and the entry is gone, with every
  // part it had), or kNotHeld when the calling thread does not hold
  // `lock` — the shield's unbalanced-unlock signal.
  int note_released(const void* lock) {
    Hold* h = find_held(lock);
    if (h == nullptr) return kNotHeld;
    if (--h->depth > 0) return static_cast<int>(h->depth);
    erase(lock, *h);
    return 0;
  }

  // Drops `lock`'s entry `h` (from find), every part with it. The fast
  // path stays full: a spilled entry is promoted into the freed slot.
  void erase(const void* lock, Hold& h) {
    const Hold* const fast = holds_.data();
    const std::less<const Hold*> before;
    if (before(&h, fast) || !before(&h, fast + fast_count_)) {
      spill_.erase(lock);
      return;
    }
    const std::size_t i = static_cast<std::size_t>(&h - fast);
    if (i != --fast_count_) {
      keys_[i] = keys_[fast_count_];
      holds_[i] = holds_[fast_count_];
    }
    if (!spill_.empty()) {
      auto it = spill_.begin();
      keys_[fast_count_] = it->first;
      holds_[fast_count_++] = it->second;
      spill_.erase(it);
    }
  }

  // Calls `f(lock, hold)` on every entry, fast slots first, and drops
  // the entries `f` leaves empty. `f` must not otherwise touch the
  // record. Forced inline: lockdep's edge walk runs through here on
  // every nested acquire.
  template <typename F>
  [[gnu::always_inline]] void prune(F&& f) {
    for (std::size_t i = 0; i < fast_count_;) {
      f(keys_[i], holds_[i]);
      if (holds_[i].empty()) {
        erase(keys_[i], holds_[i]);  // the slot now holds an unvisited entry
      } else {
        ++i;
      }
    }
    for (auto it = spill_.begin(); it != spill_.end();) {
      f(it->first, it->second);
      it = it->second.empty() ? spill_.erase(it) : std::next(it);
    }
  }

  // Number of entries: held locks plus lockdep-only level entries.
  std::size_t held_count() const { return fast_count_ + spill_.size(); }

  // True while every entry fits in the no-allocation fast path.
  bool fast_path_only() const { return spill_.empty(); }

 private:
  // A lookup reads the count and the spill's size (one line), then the
  // keys (the next line); the payload is touched only on a hit.
  std::size_t fast_count_ = 0;
  std::unordered_map<const void*, Hold> spill_;
  alignas(platform::kCacheLineSize)
      std::array<const void*, kFastSlots> keys_{};
  std::array<Hold, kFastSlots> holds_{};
};

}  // namespace resilock::shield
