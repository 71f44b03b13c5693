// Unit tests for the generic lock machinery: concepts, the uniform
// dispatch helpers, RAII guards, and the per-thread context pool that
// type erasure lends queue contexts from.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/abql.hpp"
#include "core/any_lock.hpp"
#include "core/clh.hpp"
#include "core/cohort.hpp"
#include "core/context_pool.hpp"
#include "core/generic.hpp"
#include "core/hemlock.hpp"
#include "core/hmcs.hpp"
#include "core/lock_concepts.hpp"
#include "core/lock_registry.hpp"
#include "core/mcs.hpp"
#include "core/tas.hpp"
#include "core/ticket.hpp"
#include "lockdep/lockdep.hpp"
#include "runtime/thread_team.hpp"
#include "shield/shield.hpp"

using namespace resilock;

// ----------------------------- concepts ---------------------------------

static_assert(PlainLock<TatasLock>);
static_assert(PlainLock<TicketLockResilient>);
static_assert(PlainLock<Hemlock>);
static_assert(!PlainLock<McsLock>);  // needs a context
static_assert(ContextLock<McsLock>);
static_assert(ContextLock<ClhLockResilient>);
static_assert(ContextLock<AndersonLock>);
static_assert(!ContextLock<TatasLock>);
static_assert(TryLockable<TatasLock>);
static_assert(TryContextLockable<McsLock>);
static_assert(!TryLockable<McsLock>);

static_assert(std::is_same_v<context_of_t<TatasLock>, NoContext>);
static_assert(std::is_same_v<context_of_t<McsLock>, McsLock::QNode>);

static_assert(generic_has_trylock<TatasLock>());
static_assert(generic_has_trylock<McsLock>());
static_assert(!generic_has_trylock<ClhLock>());

TEST(Concepts, CompileTimeChecksHold) { SUCCEED(); }

// ------------------------- generic dispatch -----------------------------

TEST(GenericDispatch, PlainLockRoundTrip) {
  TatasLockResilient lock;
  context_of_t<TatasLockResilient> ctx;
  generic_acquire(lock, ctx);
  EXPECT_TRUE(generic_release(lock, ctx));
  EXPECT_FALSE(generic_release(lock, ctx));
}

TEST(GenericDispatch, ContextLockRoundTrip) {
  McsLockResilient lock;
  context_of_t<McsLockResilient> ctx;
  generic_acquire(lock, ctx);
  EXPECT_TRUE(generic_release(lock, ctx));
  EXPECT_FALSE(generic_release(lock, ctx));
}

TEST(GenericDispatch, TryAcquireBothFamilies) {
  TatasLock plain;
  context_of_t<TatasLock> pc;
  EXPECT_TRUE(generic_try_acquire(plain, pc));
  EXPECT_FALSE(generic_try_acquire(plain, pc));
  EXPECT_TRUE(generic_release(plain, pc));

  McsLock ctx_lock;
  context_of_t<McsLock> a, b;
  EXPECT_TRUE(generic_try_acquire(ctx_lock, a));
  EXPECT_FALSE(generic_try_acquire(ctx_lock, b));
  EXPECT_TRUE(generic_release(ctx_lock, a));
}

TEST(GenericDispatch, CohortHooksBothArities) {
  TicketLock ticket;  // has_waiters() without context
  context_of_t<TicketLock> tc;
  generic_acquire(ticket, tc);
  EXPECT_FALSE(generic_has_waiters(ticket, tc));
  EXPECT_TRUE(generic_owned_by_caller(ticket, tc));  // original: true
  generic_release(ticket, tc);

  McsLockResilient mcs;  // has_waiters(ctx)
  context_of_t<McsLockResilient> mc;
  generic_acquire(mcs, mc);
  EXPECT_FALSE(generic_has_waiters(mcs, mc));
  EXPECT_TRUE(generic_owned_by_caller(mcs, mc));
  generic_release(mcs, mc);
  EXPECT_FALSE(generic_owned_by_caller(mcs, mc));  // resilient: checked
}

// ------------------------------ guards ----------------------------------

TEST(Guards, LockGuardReleasesOnScopeExit) {
  TatasLockResilient lock;
  {
    LockGuard g(lock);
    EXPECT_TRUE(lock.is_locked());
  }
  EXPECT_FALSE(lock.is_locked());
}

TEST(Guards, CtxGuardReleasesOnScopeExit) {
  McsLockResilient lock;
  McsLockResilient::QNode node;
  {
    CtxGuard g(lock, node);
    McsLockResilient::QNode probe;
    EXPECT_FALSE(lock.try_acquire(probe));  // held by the guard
  }
  McsLockResilient::QNode probe;
  EXPECT_TRUE(lock.try_acquire(probe));  // released
  EXPECT_TRUE(lock.release(probe));
}

// --------------------------- context lending -----------------------------

// A type-erased lock keeps no per-thread table: the shield or the bare
// adapter's LentHold borrows a context per hold.
TEST(ContextLending, AdapterCostsBytesNotKilobytes) {
  static_assert(sizeof(AnyLockAdapter<Shield<BasicMcsLock<kResilient>>>) <=
                512);
  static_assert(sizeof(AnyLockAdapter<BasicMcsLock<kResilient>>) <= 256);
  static_assert(kStatelessContext<CTktTktLock<kResilient>::Context>);
  SUCCEED();
}

TEST(ContextLending, PoolReusesWhatItLent) {
  using Ctx = McsLock::QNode;
  std::thread([] {
    Ctx& a = ContextPool<Ctx>::lend();
    Ctx& b = ContextPool<Ctx>::lend();
    EXPECT_NE(&a, &b);
    ContextPool<Ctx>::reclaim(a);
    EXPECT_EQ(&ContextPool<Ctx>::lend(), &a);  // LIFO free list
    ContextPool<Ctx>::reclaim(a);
    ContextPool<Ctx>::reclaim(b);
    EXPECT_EQ(ContextPool<Ctx>::made(), 2u);
  }).join();
}

// A relock the shield absorbs takes no context: the one the lent-shape
// acquire borrowed for it goes straight back to the pool.
TEST(ContextLending, AbsorbedRelockReturnsItsContext) {
  std::thread([] {
    std::unique_ptr<AnyLock> lock = make_lock("shield<MCS>", kResilient);
    for (int i = 0; i < 100; ++i) {
      lock->acquire();
      lock->acquire();  // absorbed as a recursion-depth bump
      ASSERT_TRUE(lock->try_acquire());
      ASSERT_TRUE(lock->release());
      ASSERT_TRUE(lock->release());
      ASSERT_TRUE(lock->release());
    }
    EXPECT_EQ(ContextPool<BasicMcsLock<kResilient>::QNode>::made(), 2u);
  }).join();
}

namespace {

constexpr std::size_t kNest = 10;  // past HeldLockTable::kFastSlots

// Threads nest all `locks` in index order (one global order: no
// deadlock) and release them in a per-round rotation of a scrambled
// order. Each lock guards a plain counter, so a hold that lost mutual
// exclusion loses increments. Every thread starts with an empty pool,
// which must never grow past the nesting depth.
template <typename Ctx>
void nest_out_of_order(const std::string& name, std::uint32_t threads,
                       std::uint32_t rounds) {
  std::vector<std::unique_ptr<AnyLock>> locks;
  for (std::size_t i = 0; i < kNest; ++i) {
    locks.push_back(make_lock(name, kResilient));
  }
  std::array<std::uint64_t, kNest> counters{};
  constexpr std::array<std::size_t, kNest> kScrambled = {3, 7, 1, 9, 0,
                                                         5, 2, 8, 4, 6};
  runtime::ThreadTeam::run(threads, [&](std::uint32_t) {
    for (std::uint32_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < kNest; ++i) {
        locks[i]->acquire();
        ++counters[i];
      }
      for (std::size_t k = 0; k < kNest; ++k) {
        ASSERT_TRUE(locks[kScrambled[(k + r) % kNest]]->release()) << name;
      }
    }
    EXPECT_LE(ContextPool<Ctx>::made(), kNest) << name;
  });
  for (std::uint64_t c : counters) {
    EXPECT_EQ(c, std::uint64_t{threads} * rounds) << name;
  }
}

template <typename Ctx>
void nest_bare_and_shielded(const std::string& name) {
  nest_out_of_order<Ctx>(name, 3, 300);
  nest_out_of_order<Ctx>(shielded_name(name), 3, 300);
  // One thread, 1000 repeated nests: the pool stays at the depth.
  nest_out_of_order<Ctx>(name, 1, 1000);
  nest_out_of_order<Ctx>(shielded_name(name), 1, 1000);
}

}  // namespace

TEST(ContextLending, McsNestedOutOfOrder) {
  nest_bare_and_shielded<BasicMcsLock<kResilient>::QNode>("MCS");
}

TEST(ContextLending, ClhNestedOutOfOrder) {
  nest_bare_and_shielded<BasicClhLock<kResilient>::Context>("CLH");
}

TEST(ContextLending, HmcsNestedOutOfOrder) {
  nest_bare_and_shielded<BasicHmcsLock<kResilient>::Context>("HMCS");
}

TEST(ContextLending, CohortMcsMcsNestedOutOfOrder) {
  // Every cohort's levels share one lockdep class per level, so nesting
  // two cohorts reads as an order cycle through that class. This test
  // is about contexts; keep lockdep's reports out of it.
  lockdep::LockdepModeGuard quiet(lockdep::LockdepMode::kOff);
  nest_bare_and_shielded<CMcsMcsLock<kResilient>::Context>("C-MCS-MCS");
}

// CLH-family nodes move between contexts (a releaser adopts its
// predecessor's node), so a thread's pooled contexts end up carrying
// nodes that came from other threads and other locks. Destroying one
// lock mid-run must free exactly the node it owns: the ASan build
// reports a use-after-free or a leak here.
TEST(ContextLending, ClhNodesSurviveDestroyedLock) {
  for (const char* name : {"CLH", "HCLH", "shield<CLH>", "shield<HCLH>"}) {
    std::unique_ptr<AnyLock> a = make_lock(name, kResilient);
    std::unique_ptr<AnyLock> b = make_lock(name, kResilient);
    std::uint64_t in_a = 0, in_b = 0;
    std::atomic<std::uint32_t> done_with_b{0};
    std::atomic<bool> b_gone{false};
    constexpr std::uint32_t kThreads = 3, kIters = 500;
    runtime::ThreadTeam::run(kThreads, [&](std::uint32_t tid) {
      for (std::uint32_t i = 0; i < kIters; ++i) {
        a->acquire();
        b->acquire();
        ++in_a;
        ++in_b;
        ASSERT_TRUE(b->release());
        ASSERT_TRUE(a->release());
      }
      if (done_with_b.fetch_add(1) + 1 == kThreads) {
        b.reset();
        b_gone.store(true);
      }
      if (tid == 0) {
        while (!b_gone.load()) std::this_thread::yield();
      }
      for (std::uint32_t i = 0; i < kIters; ++i) {
        a->acquire();
        ++in_a;
        ASSERT_TRUE(a->release());
      }
    });
    EXPECT_EQ(in_a, 2u * kThreads * kIters) << name;
    EXPECT_EQ(in_b, std::uint64_t{kThreads} * kIters) << name;
  }
}

// A thread that exits holding a lock leaves its lent context in the
// hold: a waiter that enqueues behind it still links into live memory
// (the ASan build reports a use-after-free otherwise, and the child
// exits with an error instead of the alarm). The waiter never gets the
// lock, so the check runs in a child that the alarm ends.
TEST(ContextLendingDeathTest, WaiterBehindExitedHolderTouchesLiveNode) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* name : {"MCS", "shield<MCS>", "CLH", "HMCS"}) {
    EXPECT_EXIT(
        {
          std::unique_ptr<AnyLock> lock = make_lock(name, kResilient);
          std::thread([&] { lock->acquire(); }).join();
          alarm(1);
          lock->acquire();  // waits behind the exited holder's context
          _exit(0);
        },
        ::testing::KilledBySignal(SIGALRM), "")
        << name;
  }
}

// A release by a thread that holds nothing runs on a never-held
// context: the resilient bases see an unbalanced unlock on it, and
// the thread's lent contexts stay out of it.
TEST(ContextLending, NonHolderReleaseUsesNeverHeldContext) {
  for (const char* name : {"MCS", "CLH", "HMCS", "ABQL", "C-MCS-MCS"}) {
    std::unique_ptr<AnyLock> lock = make_lock(name, kResilient);
    EXPECT_FALSE(lock->release()) << name;
    lock->acquire();
    EXPECT_TRUE(lock->release()) << name;
    EXPECT_FALSE(lock->release()) << name;  // double unlock
    lock->acquire();
    std::thread([&] { EXPECT_FALSE(lock->release()) << name; }).join();
    EXPECT_TRUE(lock->release()) << name;
  }
}
