// Per-thread pool of queue contexts (MCS/CLH/HMCS node, ABQL place,
// cohort context). A context is needed only from the acquire that
// reaches a lock's base until the release that ends that hold, so the
// layer that tracks the hold (the shield, or a bare lock's LentHold in
// core/any_lock.hpp) lends one from the calling thread's pool for that
// span: a thread owns as many contexts as its deepest nesting, not one
// per lock it touched. The authors' glibc shield_arr (SNIPPETS.md) has
// this shape: one thread-local table, and the caller supplies the node.
//   * A context is in exactly one place: its thread's free list or one
//     live hold. Its address is stable while a base may link it.
//   * Thread exit frees only the free list. A context still lent (its
//     thread exits holding the lock, or its hold ended behind its back:
//     a §5 hand-off, a stale held-record entry) stays where it is, since
//     a base may still reference it.
// A context type with no state is never pooled: all holds share one.
#pragma once

#include <cstddef>
#include <type_traits>

namespace resilock {

// True when any instance of `Ctx` serves any hold (NoContext, a cohort
// context over a plain local lock).
template <typename Ctx>
inline constexpr bool kStatelessContext = std::is_empty_v<Ctx>;

template <typename Ctx>
class ContextPool {
 public:
  static Ctx& lend() {
    if constexpr (kStatelessContext<Ctx>) {
      return shared_;
    } else {
      ContextPool& p = mine();
      Slot* const s = p.free_;
      if (s == nullptr) {
        ++p.made_;
        return (new Slot)->ctx;
      }
      p.free_ = s->next;
      return s->ctx;
    }
  }

  // Takes back `ctx` (lent on any thread) once no base references it.
  static void reclaim(Ctx& ctx) {
    if constexpr (!kStatelessContext<Ctx>) {
      ContextPool& p = mine();
      Slot* const s = reinterpret_cast<Slot*>(&ctx);
      if (p.retired_) {
        delete s;  // a lock call from a later thread-exit destructor
        return;
      }
      s->next = p.free_;
      p.free_ = s;
    }
  }

  // Runs `op` on a fresh, never-held context: for a release that ends
  // no hold of the caller's. Out of line, so the hot paths that may
  // need one keep a small frame.
  template <typename Op>
  [[gnu::noinline, gnu::cold]] static bool never_held(Op&& op) {
    Ctx fresh;
    return op(fresh);
  }

  // Contexts the calling thread's pool has allocated.
  static std::size_t made() { return mine().made_; }

  ContextPool(const ContextPool&) = delete;
  ContextPool& operator=(const ContextPool&) = delete;

 private:
  struct Slot {
    Ctx ctx;  // first: reclaim() maps a context back to its slot
    Slot* next = nullptr;
  };
  static_assert(kStatelessContext<Ctx> || std::is_standard_layout_v<Slot>);

  ContextPool() = default;
  // Plain members, so a thread-exit destructor that runs after this one
  // and takes a lock still finds an empty, working pool.
  ~ContextPool() {
    retired_ = true;
    while (Slot* s = free_) {
      free_ = s->next;
      delete s;
    }
  }

  static ContextPool& mine() {
    thread_local ContextPool pool;
    return pool;
  }

  static inline Ctx shared_{};

  Slot* free_ = nullptr;
  std::size_t made_ = 0;
  bool retired_ = false;
};

}  // namespace resilock
