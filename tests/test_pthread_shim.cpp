// Unit tests for the C-style pthread shim: init/lock/trylock/unlock/
// destroy with errorcheck semantics (EPERM on unbalanced unlock, §7),
// and glibc's trylock results for a caller that already holds the lock.
#include <gtest/gtest.h>

#include <cerrno>
#include <thread>

#include "core/resilience.hpp"
#include "interpose/pthread_shim.hpp"
#include "lockdep/lockdep.hpp"
#include "runtime/thread_team.hpp"

using namespace resilock::interpose;

TEST(PthreadShim, InitLockUnlockDestroy) {
  rl_mutex_t m{};
  ASSERT_EQ(rl_mutex_init(&m, "MCS", 1), 0);
  EXPECT_EQ(rl_mutex_lock(&m), 0);
  EXPECT_EQ(rl_mutex_unlock(&m), 0);
  EXPECT_EQ(rl_mutex_destroy(&m), 0);
}

// The shim builds one lock, shield<MCS>: any other algorithm or the
// original flavor is refused, registry names included.
TEST(PthreadShim, OnlyTheShimsOneConfigurationAccepted) {
  rl_mutex_t m{};
  EXPECT_EQ(rl_mutex_init(&m, "NoSuchLock", 1), EINVAL);
  EXPECT_EQ(rl_mutex_init(&m, "Ticket", 1), EINVAL);
  EXPECT_EQ(rl_mutex_init(&m, "shield<MCS>", 1), EINVAL);
  EXPECT_EQ(rl_mutex_init(&m, "MCS", 0), EINVAL);
  EXPECT_EQ(rl_mutex_init(&m, nullptr, 0), EINVAL);
  EXPECT_EQ(rl_mutex_init(nullptr, "MCS", 1), EINVAL);
}

TEST(PthreadShim, NullAlgorithmBuildsTheShimsMutex) {
  rl_mutex_t m{};
  ASSERT_EQ(rl_mutex_init(&m, nullptr, 1), 0);
  EXPECT_EQ(rl_mutex_lock(&m), 0);
  EXPECT_EQ(rl_mutex_unlock(&m), 0);
  EXPECT_EQ(rl_mutex_destroy(&m), 0);
}

TEST(PthreadShim, ErrorcheckSemanticsEPERM) {
  rl_mutex_t m{};
  ASSERT_EQ(rl_mutex_init(&m, nullptr, 1), 0);
  EXPECT_EQ(rl_mutex_unlock(&m), EPERM);  // unlock without lock
  EXPECT_EQ(rl_mutex_lock(&m), 0);
  std::thread t([&] { EXPECT_EQ(rl_mutex_unlock(&m), EPERM); });
  t.join();
  EXPECT_EQ(rl_mutex_unlock(&m), 0);
  EXPECT_EQ(rl_mutex_destroy(&m), 0);
}

TEST(PthreadShim, TrylockEBUSY) {
  rl_mutex_t m{};
  ASSERT_EQ(rl_mutex_init(&m, nullptr, 1), 0);
  EXPECT_EQ(rl_mutex_trylock(&m), 0);
  std::thread t([&] { EXPECT_EQ(rl_mutex_trylock(&m), EBUSY); });
  t.join();
  EXPECT_EQ(rl_mutex_unlock(&m), 0);
  EXPECT_EQ(rl_mutex_destroy(&m), 0);
}

// POSIX: trylock fails when the mutex is locked, "including by the
// current thread". Absorbing it as a relock would leave the mutex held
// after the program's one unlock, and the next locker would wait
// forever.
TEST(PthreadShim, OwnerTrylockEBUSYAndOneUnlockFrees) {
  rl_mutex_t m{};
  ASSERT_EQ(rl_mutex_init(&m, nullptr, 1), 0);
  ASSERT_EQ(rl_mutex_lock(&m), 0);
  EXPECT_EQ(rl_mutex_trylock(&m), EBUSY);
  EXPECT_EQ(rl_mutex_unlock(&m), 0);
  std::thread t([&] {
    EXPECT_EQ(rl_mutex_trylock(&m), 0);
    EXPECT_EQ(rl_mutex_unlock(&m), 0);
  });
  t.join();
  // A trylock's own hold is refused the same way.
  ASSERT_EQ(rl_mutex_trylock(&m), 0);
  EXPECT_EQ(rl_mutex_trylock(&m), EBUSY);
  EXPECT_EQ(rl_mutex_unlock(&m), 0);
  EXPECT_EQ(rl_mutex_unlock(&m), EPERM);  // nothing left to release
  EXPECT_EQ(rl_mutex_destroy(&m), 0);
}

// With checks off (the §5 escape hatch) the base refuses the owner.
TEST(PthreadShim, OwnerTrylockEBUSYWithChecksOff) {
  resilock::MisuseCheckGuard off(false);
  rl_mutex_t m{};
  ASSERT_EQ(rl_mutex_init(&m, nullptr, 1), 0);
  ASSERT_EQ(rl_mutex_lock(&m), 0);
  EXPECT_EQ(rl_mutex_trylock(&m), EBUSY);
  EXPECT_EQ(rl_mutex_unlock(&m), 0);
  EXPECT_EQ(rl_mutex_trylock(&m), 0);
  EXPECT_EQ(rl_mutex_unlock(&m), 0);
  EXPECT_EQ(rl_mutex_destroy(&m), 0);
}

// glibc's recursive kind: the owner's trylock recurses, and each
// grant needs its own unlock.
TEST(PthreadShim, RecursiveTrylockAbsorbsTheOwner) {
  rl_mutex_t m{};
  ASSERT_EQ(rl_mutex_init(&m, nullptr, 1), 0);
  ASSERT_EQ(rl_mutex_lock(&m), 0);
  EXPECT_EQ(rl_mutex_trylock_recursive(&m), 0);
  std::thread t([&] { EXPECT_EQ(rl_mutex_trylock_recursive(&m), EBUSY); });
  t.join();
  EXPECT_EQ(rl_mutex_unlock(&m), 0);
  std::thread still_held([&] { EXPECT_EQ(rl_mutex_trylock(&m), EBUSY); });
  still_held.join();
  EXPECT_EQ(rl_mutex_unlock(&m), 0);
  EXPECT_EQ(rl_mutex_unlock(&m), EPERM);
  EXPECT_EQ(rl_mutex_destroy(&m), 0);
}

TEST(PthreadShim, UseAfterDestroyRejected) {
  rl_mutex_t m{};
  ASSERT_EQ(rl_mutex_init(&m, "MCS", 1), 0);
  ASSERT_EQ(rl_mutex_destroy(&m), 0);
  EXPECT_EQ(rl_mutex_lock(&m), EINVAL);
  EXPECT_EQ(rl_mutex_unlock(&m), EINVAL);
  EXPECT_EQ(rl_mutex_destroy(&m), EBUSY);
}

// ---------------------------------------------------------------------
// pthread_rwlock-shaped trylocks (EBUSY semantics; no lockdep edges).
// ---------------------------------------------------------------------

TEST(RwlockShim, TrylocksUncontendedSucceedAndUnlockRoutes) {
  rl_rwlock_t rw{};
  ASSERT_EQ(rl_rwlock_init(&rw, "np"), 0);
  EXPECT_EQ(rl_rwlock_tryrdlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_unlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_trywrlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_unlock(&rw), 0);
  // Post-trylock misuse is still errorcheck'd.
  EXPECT_EQ(rl_rwlock_unlock(&rw), EPERM);
  EXPECT_EQ(rl_rwlock_destroy(&rw), 0);
}

TEST(RwlockShim, TrylockEBUSYAgainstAWriter) {
  rl_rwlock_t rw{};
  ASSERT_EQ(rl_rwlock_init(&rw, "np"), 0);
  ASSERT_EQ(rl_rwlock_wrlock(&rw), 0);
  std::thread t([&] {
    EXPECT_EQ(rl_rwlock_tryrdlock(&rw), EBUSY);
    EXPECT_EQ(rl_rwlock_trywrlock(&rw), EBUSY);
  });
  t.join();
  EXPECT_EQ(rl_rwlock_unlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_destroy(&rw), 0);
}

TEST(RwlockShim, TrywrlockEBUSYAgainstReadersAndBacksOutCleanly) {
  rl_rwlock_t rw{};
  ASSERT_EQ(rl_rwlock_init(&rw, "np"), 0);
  ASSERT_EQ(rl_rwlock_rdlock(&rw), 0);
  std::thread t([&] {
    // A live reader: the write attempt would spin on the indicator —
    // EBUSY instead, with the cohort lock released on the way out.
    EXPECT_EQ(rl_rwlock_trywrlock(&rw), EBUSY);
    // The backout left the lock fully takeable for readers.
    EXPECT_EQ(rl_rwlock_tryrdlock(&rw), 0);
    EXPECT_EQ(rl_rwlock_unlock(&rw), 0);
  });
  t.join();
  EXPECT_EQ(rl_rwlock_unlock(&rw), 0);
  // ...and for a writer once the readers drained.
  EXPECT_EQ(rl_rwlock_trywrlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_unlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_destroy(&rw), 0);
}

// glibc refuses every trylock by the caller's own write hold, and a
// trywrlock by its own read hold; a tryrdlock by its own read hold is
// granted. A refusal adds no depth: the one unlock frees the lock.
TEST(RwlockShim, OwnerTrylocksFollowGlibc) {
  for (const char* pref : {"np", "rp", "wp"}) {
    rl_rwlock_t rw{};
    ASSERT_EQ(rl_rwlock_init(&rw, pref), 0) << pref;
    ASSERT_EQ(rl_rwlock_wrlock(&rw), 0) << pref;
    EXPECT_EQ(rl_rwlock_tryrdlock(&rw), EBUSY) << pref;
    EXPECT_EQ(rl_rwlock_trywrlock(&rw), EBUSY) << pref;
    EXPECT_EQ(rl_rwlock_unlock(&rw), 0) << pref;
    std::thread t([&] {
      EXPECT_EQ(rl_rwlock_trywrlock(&rw), 0) << pref;
      EXPECT_EQ(rl_rwlock_unlock(&rw), 0) << pref;
    });
    t.join();

    ASSERT_EQ(rl_rwlock_rdlock(&rw), 0) << pref;
    EXPECT_EQ(rl_rwlock_trywrlock(&rw), EBUSY) << pref;
    EXPECT_EQ(rl_rwlock_tryrdlock(&rw), 0) << pref;
    EXPECT_EQ(rl_rwlock_unlock(&rw), 0) << pref;
    EXPECT_EQ(rl_rwlock_unlock(&rw), 0) << pref;
    EXPECT_EQ(rl_rwlock_unlock(&rw), EPERM) << pref;
    EXPECT_EQ(rl_rwlock_trywrlock(&rw), 0) << pref;
    EXPECT_EQ(rl_rwlock_unlock(&rw), 0) << pref;
    EXPECT_EQ(rl_rwlock_destroy(&rw), 0) << pref;
  }
}

// With checks off a write hold handed off to another thread's unlock
// leaves the taker's held entry stale; the lock is free, and the
// taker's own trylocks must see it free.
TEST(RwlockShim, HandedOffWriteHoldIsFreeForTheTakersTrylock) {
  resilock::MisuseCheckGuard off(false);
  rl_rwlock_t rw{};
  ASSERT_EQ(rl_rwlock_init(&rw, "np"), 0);
  ASSERT_EQ(rl_rwlock_wrlock(&rw), 0);
  std::thread t([&] { EXPECT_EQ(rl_rwlock_unlock(&rw), 0); });
  t.join();
  EXPECT_EQ(rl_rwlock_trywrlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_unlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_tryrdlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_unlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_destroy(&rw), 0);
}

TEST(RwlockShim, TrylocksAddNoLockdepEdges) {
  using resilock::lockdep::Graph;
  resilock::lockdep::LockdepModeGuard mode(
      resilock::lockdep::LockdepMode::kReport);
  rl_mutex_t m{};
  rl_rwlock_t rw{};
  ASSERT_EQ(rl_mutex_init(&m, "MCS", 1), 0);
  ASSERT_EQ(rl_rwlock_init(&rw, "np"), 0);
  // Prime both classes (first acquires register them).
  ASSERT_EQ(rl_mutex_lock(&m), 0);
  ASSERT_EQ(rl_mutex_unlock(&m), 0);
  ASSERT_EQ(rl_rwlock_tryrdlock(&rw), 0);
  ASSERT_EQ(rl_rwlock_unlock(&rw), 0);
  const std::uint64_t edges_before = Graph::instance().stats().edges;
  ASSERT_EQ(rl_mutex_lock(&m), 0);
  // Held-while-trylocking: a blocking rdlock would record an order
  // edge here; the trylock must not.
  ASSERT_EQ(rl_rwlock_tryrdlock(&rw), 0);
  ASSERT_EQ(rl_rwlock_unlock(&rw), 0);
  ASSERT_EQ(rl_rwlock_trywrlock(&rw), 0);
  ASSERT_EQ(rl_rwlock_unlock(&rw), 0);
  ASSERT_EQ(rl_mutex_unlock(&m), 0);
  EXPECT_EQ(Graph::instance().stats().edges, edges_before);
  EXPECT_EQ(rl_rwlock_destroy(&rw), 0);
  EXPECT_EQ(rl_mutex_destroy(&m), 0);
}

TEST(RwlockShim, TrylocksAcrossPreferences) {
  // The rp/wp variants route their preference barriers through the try
  // paths too (pending-writer deference, reader backoff).
  for (const char* pref : {"rp", "wp"}) {
    rl_rwlock_t rw{};
    ASSERT_EQ(rl_rwlock_init(&rw, pref), 0) << pref;
    ASSERT_EQ(rl_rwlock_trywrlock(&rw), 0) << pref;
    std::thread t([&] { EXPECT_EQ(rl_rwlock_trywrlock(&rw), EBUSY); });
    t.join();
    EXPECT_EQ(rl_rwlock_unlock(&rw), 0) << pref;
    EXPECT_EQ(rl_rwlock_tryrdlock(&rw), 0) << pref;
    EXPECT_EQ(rl_rwlock_unlock(&rw), 0) << pref;
    EXPECT_EQ(rl_rwlock_destroy(&rw), 0) << pref;
  }
}

TEST(PthreadShim, MutualExclusionThroughShim) {
  rl_mutex_t m{};
  ASSERT_EQ(rl_mutex_init(&m, nullptr, 1), 0);
  std::uint64_t counter = 0;
  resilock::runtime::ThreadTeam::run(4, [&](std::uint32_t) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(rl_mutex_lock(&m), 0);
      ++counter;
      ASSERT_EQ(rl_mutex_unlock(&m), 0);
    }
  });
  EXPECT_EQ(counter, 4000u);
  EXPECT_EQ(rl_mutex_destroy(&m), 0);
}
