// LiTL-style transparent mutex (paper §6).
//
// LiTL interposes on pthread_mutex_* so an unmodified application runs
// with any lock algorithm, selected by an environment variable, with
// per-thread contexts kept in side tables. This module provides the same
// contract in-process: TransparentMutex has the pthread mutex shape
// (lock/trylock/unlock + condition-variable compatibility), and the
// algorithm behind every instance is chosen at creation time from
// RESILOCK_ALGO / RESILOCK_RESILIENT or explicit arguments. These two
// knobs select nothing else: the pthread shim, and with it the preload,
// always runs shield<MCS> (pthread_shim.hpp).
//
// TransparentMutex satisfies BasicLockable, so std::condition_variable_any
// and std::lock_guard work with it directly — covering LiTL's condition-
// variable interposition for the applications that need it (dedup- and
// ferret-like pipelines).
#pragma once

#include <memory>
#include <string>

#include "core/any_lock.hpp"
#include "core/lock_registry.hpp"
#include "core/resilience.hpp"

namespace resilock::interpose {

// Algorithm selection for mutexes created without explicit arguments:
// RESILOCK_ALGO (default "MCS"), RESILOCK_RESILIENT ("1"/"0", default 1).
// The default constructor wraps that algorithm in the ownership shield
// ("shield<MCS>" by default).
const std::string& default_algorithm();
Resilience default_resilience();

class TransparentMutex {
 public:
  // Algorithm from the environment (LiTL behavior).
  TransparentMutex();
  // Explicit algorithm, overriding the environment.
  TransparentMutex(std::string_view algorithm, Resilience r);

  TransparentMutex(const TransparentMutex&) = delete;
  TransparentMutex& operator=(const TransparentMutex&) = delete;

  void lock() { impl_->acquire(); }

  bool try_lock() { return impl_->try_acquire(); }

  // pthread_mutex_unlock shape: reports detected misuse (errorcheck
  // semantics) instead of silently corrupting.
  bool unlock() { return impl_->release(); }

  const std::string& algorithm() const { return impl_->name(); }
  Resilience resilience() const { return impl_->resilience(); }
  bool has_native_trylock() const { return impl_->supports_trylock(); }

 private:
  std::unique_ptr<AnyLock> impl_;
};

}  // namespace resilock::interpose
