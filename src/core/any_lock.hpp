// Type-erased lock with per-thread context management.
//
// This is the in-process equivalent of what LiTL (Guiroux 2018) does via
// LD_PRELOAD interposition (paper §6): application code sees one mutex
// shape; the algorithm behind it is chosen at runtime by name. Context-
// carrying locks (MCS, CLH, ABQL, HMCS, ...) get a lazily allocated
// per-thread context per lock instance, exactly as LiTL keeps per-thread
// qnode tables.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "core/generic.hpp"
#include "core/resilience.hpp"
#include "platform/thread_registry.hpp"

namespace resilock {

// Lazily allocated per-pid slot table.
template <typename T>
class PerPid {
 public:
  PerPid() {
    for (auto& s : slots_) s.store(nullptr, std::memory_order_relaxed);
  }
  ~PerPid() {
    for (auto& s : slots_) delete s.load(std::memory_order_relaxed);
  }
  PerPid(const PerPid&) = delete;
  PerPid& operator=(const PerPid&) = delete;

  T& mine() {
    auto& slot = slots_[platform::self_pid()];
    T* p = slot.load(std::memory_order_acquire);
    if (p == nullptr) {
      p = new T();
      T* expected = nullptr;
      if (!slot.compare_exchange_strong(expected, p,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        delete p;  // pid slots are recycled; someone else installed one
        p = expected;
      }
    }
    return *p;
  }

 private:
  std::atomic<T*> slots_[platform::ThreadRegistry::kCapacity];
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

  void acquire() override { generic_acquire(lock_, contexts_.mine()); }

  bool release() override { return generic_release(lock_, contexts_.mine()); }

  bool try_acquire() override {
    if constexpr (generic_has_trylock<L>()) {
      return generic_try_acquire(lock_, contexts_.mine());
    } else {
      generic_acquire(lock_, contexts_.mine());
      return true;
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
  const std::string name_;
  L lock_;
  PerPid<context_of_t<L>> contexts_;
};

}  // namespace resilock
