// Type-erased lock: one mutex shape over every algorithm.
//
// This is the in-process equivalent of what LiTL (Guiroux 2018) does via
// LD_PRELOAD interposition (paper §6): application code sees one mutex
// shape; the algorithm behind it is chosen at runtime by name. The
// adapter keeps no per-thread state. A context-carrying lock (MCS, CLH,
// ABQL, HMCS, ...) borrows its queue context from the calling thread's
// ContextPool (core/context_pool.hpp) for the span of one hold: a shield
// lends and reclaims it itself, since it already tracks the hold; for a
// bare lock a LentHold records the holder and the lent context — two
// words per lock, not a table per thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>

#include "core/context_pool.hpp"
#include "core/generic.hpp"
#include "core/resilience.hpp"
#include "platform/thread_registry.hpp"

namespace resilock {

// The one exclusive hold of a bare lock: who holds it and the context
// it was lent. The holder's release runs on that context and gives it
// back; anyone else's runs on a never-held one, so a misuse's damage
// stays on the lock it hit, out of the thread's next hold elsewhere.
template <typename Ctx>
class LentHold {
 public:
  // Runs the base acquire `op(ctx)` (true: granted) on a lent context.
  template <typename Op>
  bool acquire(Op&& op) {
    Ctx& ctx = ContextPool<Ctx>::lend();
    if (!op(ctx)) {
      ContextPool<Ctx>::reclaim(ctx);
      return false;
    }
    ctx_ = &ctx;  // read only by this holder
    owner_.store(me(), std::memory_order_relaxed);
    return true;
  }

  template <typename Op>
  bool release(Op&& op) {
    if (!held_by_me()) return ContextPool<Ctx>::never_held(op);
    owner_.store(kNoOwner, std::memory_order_relaxed);  // before the base
    Ctx& ctx = *ctx_;
    const bool ok = op(ctx);
    ContextPool<Ctx>::reclaim(ctx);
    return ok;
  }

  // Exact for the calling thread: only it writes its own tag.
  bool held_by_me() const {
    return owner_.load(std::memory_order_relaxed) == me();
  }

 private:
  static constexpr std::uint32_t kNoOwner = 0;
  static std::uint32_t me() { return platform::self_pid() + 1; }

  std::atomic<std::uint32_t> owner_{kNoOwner};
  Ctx* ctx_ = nullptr;
};

class AnyLock {
 public:
  virtual ~AnyLock() = default;

  virtual void acquire() = 0;
  // False iff an unbalanced unlock was detected and suppressed.
  virtual bool release() = 0;
  // Falls back to a blocking acquire for algorithms without a native
  // trylock; supports_trylock() reports which one you got.
  virtual bool try_acquire() = 0;
  virtual bool supports_trylock() const = 0;

  virtual const std::string& name() const = 0;
  virtual Resilience resilience() const = 0;

  // Total misuses the wrapped lock has detected so far, when the lock
  // keeps a tally (Shield counters); 0 for bare protocols.
  // Lets interposed programs print detection telemetry without knowing
  // which wrapper (if any) backs the mutex.
  virtual std::uint64_t misuse_total() const { return 0; }

  // Live contention telemetry (core/contention.hpp), when the wrapped
  // lock carries a probe (Shield); 0 for bare protocols.
  // The response engine escalates verdicts on these signals; exposing
  // them here lets harness/verify code observe the same numbers the
  // engine sees, whatever wrapper backs the mutex.
  virtual std::uint32_t waiters() const { return 0; }
  virtual std::uint64_t contended_total() const { return 0; }
};

template <typename L>
class AnyLockAdapter final : public AnyLock {
 public:
  template <typename... Args>
  explicit AnyLockAdapter(std::string name, Args&&... args)
      : name_(std::move(name)), lock_(std::forward<Args>(args)...) {}

  // A PlainLock needs no context from here: a plain base has none, and
  // a shield lends its own. A bare context lock goes through hold_.
  void acquire() override {
    if constexpr (PlainLock<L>) {
      lock_.acquire();
    } else {
      hold_.acquire([this](Context& c) {
        lock_.acquire(c);
        return true;
      });
    }
  }

  bool release() override {
    if constexpr (PlainLock<L>) {
      return lock_.release();
    } else {
      return hold_.release([this](Context& c) { return lock_.release(c); });
    }
  }

  bool try_acquire() override {
    if constexpr (!generic_has_trylock<L>()) {
      acquire();
      return true;
    } else if constexpr (PlainLock<L>) {
      return lock_.try_acquire();
    } else {
      return hold_.acquire(
          [this](Context& c) { return lock_.try_acquire(c); });
    }
  }

  bool supports_trylock() const override {
    return generic_has_trylock<L>();
  }

  std::uint64_t misuse_total() const override {
    if constexpr (requires { lock_.snapshot().total_misuses(); }) {
      return lock_.snapshot().total_misuses();  // Shield counters
    } else {
      return 0;
    }
  }

  std::uint32_t waiters() const override {
    if constexpr (requires { lock_.waiters(); }) {
      return lock_.waiters();
    } else {
      return 0;
    }
  }

  std::uint64_t contended_total() const override {
    if constexpr (requires { lock_.contended_total(); }) {
      return lock_.contended_total();
    } else {
      return 0;
    }
  }

  const std::string& name() const override { return name_; }
  Resilience resilience() const override { return L::resilience(); }

  L& underlying() { return lock_; }

 private:
  using Context = context_of_t<L>;
  struct NoHold {};

  const std::string name_;
  L lock_;
  [[no_unique_address]] std::conditional_t<PlainLock<L>, NoHold,
                                           LentHold<Context>>
      hold_;
};

}  // namespace resilock
