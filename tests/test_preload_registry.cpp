// In-process tests for the preload adoption registry — including the
// adopt-once race the LD_PRELOAD fixture cannot exercise under TSan
// (a sanitized .so cannot be preloaded into an unsanitized child, so
// this is the TSan job's view of the static-initializer race).
#include <gtest/gtest.h>

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "interpose/preload_registry.hpp"
#include "interpose/pthread_shim.hpp"

namespace ri = resilock::interpose;
using ri::rl_mutex_t;
using ri::rl_rwlock_t;
using ri::rl_mutex_lock;
using ri::rl_mutex_unlock;
using ri::rl_rwlock_rdlock;
using ri::rl_rwlock_wrlock;
using ri::rl_rwlock_unlock;

namespace {

// The registry singleton is process-wide, so tests assert on DELTAS of
// its counters, and every test uses fresh fake addresses.
ri::PreloadRegistryStats snap() {
  return ri::PreloadRegistry::instance().stats();
}

// Fake "pthread_mutex_t" storage: zeroed bytes, which adoption reads
// as glibc's default mutex kind (PTHREAD_MUTEX_INITIALIZER). (Rwlock
// adoption reads glibc's kind and pshared flag from the lock, so rwlock
// tests use real pthread_rwlock_t storage.)
struct FakeLock {
  alignas(64) unsigned char bytes[64] = {};
};

}  // namespace

TEST(PreloadRegistry, AdoptOnceUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kLocksPerRound = 16;
  const ri::PreloadRegistryStats before = snap();

  std::vector<FakeLock> addrs(kLocksPerRound);
  std::vector<rl_mutex_t*> seen[kThreads];
  std::atomic<int> gate{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.fetch_add(1, std::memory_order_acq_rel);
      while (gate.load(std::memory_order_acquire) < kThreads) {
      }
      for (int i = 0; i < kLocksPerRound; ++i) {
        seen[t].push_back(
            ri::PreloadRegistry::instance().mutex_for(&addrs[i]));
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every thread resolved every address to the same handle.
  for (int i = 0; i < kLocksPerRound; ++i) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[0][i], seen[t][i]) << "addr " << i;
    }
  }
  // And each address was adopted exactly once despite the race.
  const ri::PreloadRegistryStats after = snap();
  EXPECT_EQ(after.adopted_mutexes - before.adopted_mutexes,
            static_cast<std::uint64_t>(kLocksPerRound));
  EXPECT_EQ(after.live_nodes - before.live_nodes,
            static_cast<std::uint64_t>(kLocksPerRound));

  // The adopted handles are real, working locks.
  EXPECT_EQ(rl_mutex_lock(seen[0][0]), 0);
  EXPECT_EQ(rl_mutex_unlock(seen[0][0]), 0);
  for (int i = 0; i < kLocksPerRound; ++i) {
    ri::PreloadRegistry::instance().destroy_mutex(&addrs[i]);
  }
}

TEST(PreloadRegistry, FindOnlySeesAdoptedAddresses) {
  FakeLock a, b;
  EXPECT_EQ(ri::PreloadRegistry::instance().find_mutex(&a), nullptr);
  rl_mutex_t* h = ri::PreloadRegistry::instance().mutex_for(&a);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(ri::PreloadRegistry::instance().find_mutex(&a), h);
  EXPECT_EQ(ri::PreloadRegistry::instance().find_mutex(&b), nullptr);
  ri::PreloadRegistry::instance().destroy_mutex(&a);
  // Tombstoned: invisible to find, but adoptable again.
  EXPECT_EQ(ri::PreloadRegistry::instance().find_mutex(&a), nullptr);
  rl_mutex_t* h2 = ri::PreloadRegistry::instance().mutex_for(&a);
  ASSERT_NE(h2, nullptr);
  EXPECT_EQ(rl_mutex_lock(h2), 0);
  EXPECT_EQ(rl_mutex_unlock(h2), 0);
  ri::PreloadRegistry::instance().destroy_mutex(&a);
}

TEST(PreloadRegistry, InitReplacesLiveHandle) {
  FakeLock a;
  const ri::PreloadRegistryStats before = snap();
  rl_mutex_t* h1 = ri::PreloadRegistry::instance().init_mutex(&a);
  ASSERT_NE(h1, nullptr);
  // Re-init at the same address: same slot, fresh handle underneath
  // (the pointer is stable because nodes are never freed).
  rl_mutex_t* h2 = ri::PreloadRegistry::instance().init_mutex(&a);
  EXPECT_EQ(h1, h2);
  const ri::PreloadRegistryStats after = snap();
  EXPECT_EQ(after.init_mutexes - before.init_mutexes, 2u);
  EXPECT_EQ(after.live_nodes - before.live_nodes, 1u);
  EXPECT_EQ(rl_mutex_lock(h2), 0);
  EXPECT_EQ(rl_mutex_unlock(h2), 0);
  ri::PreloadRegistry::instance().destroy_mutex(&a);
}

TEST(PreloadRegistry, DestroyOfUnknownAddressIsBenign) {
  FakeLock a;
  // Destroy of a never-used static initializer: a no-op, not an error.
  EXPECT_EQ(ri::PreloadRegistry::instance().destroy_mutex(&a), 0);
  EXPECT_EQ(ri::PreloadRegistry::instance().destroy_rwlock(&a), 0);
}

TEST(PreloadRegistry, RwlockAdoptionAndUse) {
  constexpr int kThreads = 4;
  pthread_rwlock_t a = PTHREAD_RWLOCK_INITIALIZER;
  const ri::PreloadRegistryStats before = snap();
  std::atomic<int> gate{0};
  rl_rwlock_t* handles[kThreads] = {};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.fetch_add(1, std::memory_order_acq_rel);
      while (gate.load(std::memory_order_acquire) < kThreads) {
      }
      rl_rwlock_t* h = ri::PreloadRegistry::instance().rwlock_for(&a);
      handles[t] = h;
      // Readers overlap; each holds briefly to overlap the others.
      EXPECT_EQ(rl_rwlock_rdlock(h), 0);
      EXPECT_EQ(rl_rwlock_unlock(h), 0);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(handles[0], handles[t]);
  const ri::PreloadRegistryStats after = snap();
  EXPECT_EQ(after.adopted_rwlocks - before.adopted_rwlocks, 1u);
  // Write side works on the adopted handle too.
  EXPECT_EQ(rl_rwlock_wrlock(handles[0]), 0);
  EXPECT_EQ(rl_rwlock_unlock(handles[0]), 0);
  ri::PreloadRegistry::instance().destroy_rwlock(&a);
}

namespace {
pthread_rwlock_t make_rwlock(int kind, int pshared) {
  pthread_rwlockattr_t attr;
  pthread_rwlockattr_init(&attr);
  pthread_rwlockattr_setkind_np(&attr, kind);
  pthread_rwlockattr_setpshared(&attr, pshared);
  pthread_rwlock_t rw;
  pthread_rwlock_init(&rw, &attr);
  pthread_rwlockattr_destroy(&attr);
  return rw;
}
}  // namespace

// The kind glibc stored in the lock picks the variant; both init and
// lazy adoption read it, and the by-outcome counts add up to the
// adoptions and inits.
TEST(PreloadRegistry, RwlockKindPicksVariant) {
  auto& reg = ri::PreloadRegistry::instance();
  pthread_rwlock_t reader = make_rwlock(PTHREAD_RWLOCK_PREFER_READER_NP,
                                        PTHREAD_PROCESS_PRIVATE);
  pthread_rwlock_t writer_np = make_rwlock(PTHREAD_RWLOCK_PREFER_WRITER_NP,
                                           PTHREAD_PROCESS_PRIVATE);
  pthread_rwlock_t nonrecursive =
      make_rwlock(PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP,
                  PTHREAD_PROCESS_PRIVATE);
  pthread_rwlock_t static_writer =
      PTHREAD_RWLOCK_WRITER_NONRECURSIVE_INITIALIZER_NP;
  const ri::PreloadRegistryStats before = snap();
  rl_rwlock_t* handles[] = {reg.init_rwlock(&reader),
                            reg.init_rwlock(&writer_np),
                            reg.init_rwlock(&nonrecursive),
                            reg.rwlock_for(&static_writer)};
  const ri::PreloadRegistryStats after = snap();
  EXPECT_EQ(after.rwlocks_reader_pref - before.rwlocks_reader_pref, 2u);
  EXPECT_EQ(after.rwlocks_writer_pref - before.rwlocks_writer_pref, 2u);
  EXPECT_EQ(after.rwlocks_passthrough, before.rwlocks_passthrough);
  EXPECT_EQ(after.init_rwlocks - before.init_rwlocks, 3u);
  EXPECT_EQ(after.adopted_rwlocks - before.adopted_rwlocks, 1u);
  for (rl_rwlock_t* h : handles) {
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(rl_rwlock_rdlock(h), 0);
    EXPECT_EQ(rl_rwlock_unlock(h), 0);
    EXPECT_EQ(rl_rwlock_wrlock(h), 0);
    EXPECT_EQ(rl_rwlock_unlock(h), 0);
  }
  for (const pthread_rwlock_t* rw :
       {&reader, &writer_np, &nonrecursive, &static_writer}) {
    reg.destroy_rwlock(rw);
  }
}

// A pshared rwlock gets a pass-through node: no handle on init or on
// any later lookup, counted once. Destroy retires the node, so a
// private lock initialized at the same address is adopted again.
TEST(PreloadRegistry, ProcessSharedRwlockPassesThrough) {
  auto& reg = ri::PreloadRegistry::instance();
  pthread_rwlock_t rw = make_rwlock(PTHREAD_RWLOCK_PREFER_READER_NP,
                                    PTHREAD_PROCESS_SHARED);
  const ri::PreloadRegistryStats before = snap();
  EXPECT_EQ(reg.init_rwlock(&rw), nullptr);
  EXPECT_EQ(reg.rwlock_for(&rw), nullptr);
  EXPECT_EQ(reg.rwlock_for(&rw), nullptr);
  const ri::PreloadRegistryStats mid = snap();
  EXPECT_EQ(mid.rwlocks_passthrough - before.rwlocks_passthrough, 1u);
  EXPECT_EQ(mid.rwlocks_reader_pref, before.rwlocks_reader_pref);
  EXPECT_EQ(mid.live_nodes - before.live_nodes, 1u);
  EXPECT_EQ(reg.destroy_rwlock(&rw), 0);
  EXPECT_EQ(snap().destroyed_rwlocks, mid.destroyed_rwlocks);

  rw = make_rwlock(PTHREAD_RWLOCK_PREFER_READER_NP, PTHREAD_PROCESS_PRIVATE);
  rl_rwlock_t* h = reg.init_rwlock(&rw);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(reg.rwlock_for(&rw), h);
  const ri::PreloadRegistryStats after = snap();
  EXPECT_EQ(after.rwlocks_reader_pref - mid.rwlocks_reader_pref, 1u);
  EXPECT_EQ(after.live_nodes, mid.live_nodes);
  reg.destroy_rwlock(&rw);
}

namespace {
pthread_mutex_t make_mutex(int robust, int protocol, int pshared) {
  pthread_mutexattr_t attr;
  pthread_mutexattr_init(&attr);
  pthread_mutexattr_setrobust(&attr, robust);
  pthread_mutexattr_setprotocol(&attr, protocol);
  pthread_mutexattr_setpshared(&attr, pshared);
  pthread_mutex_t m;
  pthread_mutex_init(&m, &attr);
  pthread_mutexattr_destroy(&attr);
  return m;
}
}  // namespace

// A mutex glibc owes more than exclusion within one process gets a
// pass-through node, counted by its reason (robust first: glibc marks
// every robust mutex pshared too); a default or errorcheck mutex is
// adopted as before.
TEST(PreloadRegistry, RobustPriorityAndSharedMutexesPassThrough) {
  auto& reg = ri::PreloadRegistry::instance();
  pthread_mutex_t robust = make_mutex(PTHREAD_MUTEX_ROBUST, PTHREAD_PRIO_NONE,
                                      PTHREAD_PROCESS_PRIVATE);
  pthread_mutex_t pi = make_mutex(PTHREAD_MUTEX_STALLED, PTHREAD_PRIO_INHERIT,
                                  PTHREAD_PROCESS_PRIVATE);
  pthread_mutex_t pp = make_mutex(PTHREAD_MUTEX_STALLED, PTHREAD_PRIO_PROTECT,
                                  PTHREAD_PROCESS_PRIVATE);
  pthread_mutex_t shared = make_mutex(
      PTHREAD_MUTEX_STALLED, PTHREAD_PRIO_NONE, PTHREAD_PROCESS_SHARED);
  pthread_mutex_t plain = make_mutex(PTHREAD_MUTEX_STALLED, PTHREAD_PRIO_NONE,
                                     PTHREAD_PROCESS_PRIVATE);
  const ri::PreloadRegistryStats before = snap();
  for (pthread_mutex_t* m : {&robust, &pi, &pp, &shared}) {
    EXPECT_EQ(reg.init_mutex(m), nullptr);
    EXPECT_EQ(reg.mutex_for(m), nullptr);
    EXPECT_EQ(reg.find_mutex(m), nullptr);
  }
  rl_mutex_t* h = reg.init_mutex(&plain);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(reg.mutex_for(&plain), h);
  const ri::PreloadRegistryStats after = snap();
  EXPECT_EQ(after.mutexes_robust - before.mutexes_robust, 1u);
  EXPECT_EQ(after.mutexes_prio_inherit - before.mutexes_prio_inherit, 1u);
  EXPECT_EQ(after.mutexes_prio_protect - before.mutexes_prio_protect, 1u);
  EXPECT_EQ(after.mutexes_pshared - before.mutexes_pshared, 1u);
  EXPECT_EQ(after.init_mutexes - before.init_mutexes, 5u);
  for (pthread_mutex_t* m : {&robust, &pi, &pp, &shared, &plain}) {
    EXPECT_EQ(reg.destroy_mutex(m), 0);
    pthread_mutex_destroy(m);
  }
  EXPECT_EQ(snap().destroyed_mutexes - after.destroyed_mutexes, 1u);
}
