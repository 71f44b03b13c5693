// Unit tests for the parking tier (src/park/):
//   * the futex fallback backend (exercised directly — Linux builds
//     dispatch to the native futex, but the fallback compiles
//     everywhere and must behave identically);
//   * wait_word/wake_word spin-then-park hand-off, and the per-lock
//     wiring in MCS, CLH, Ticket and HMCS;
//   * misuse-aware wakeup: a parked waiter orphaned by an absorbed
//     unlock-family misuse is broadcast-woken and proceeds;
//   * park_until deadlines, the TimedGate, and the shim's
//     rl_mutex_timedlock / rl_rwlock_timed{rd,wr}lock entry points
//     (ETIMEDOUT, no lockdep edges on timeout);
//   * lockstat park attribution and the parked>=N response condition.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <ctime>
#include <random>
#include <thread>
#include <vector>

#include "core/clh.hpp"
#include "core/hmcs.hpp"
#include "core/mcs.hpp"
#include "core/rw/crw.hpp"
#include "core/ticket.hpp"
#include "interpose/pthread_shim.hpp"
#include "lockdep/lockdep.hpp"
#include "observe/lockstat.hpp"
#include "park/futex.hpp"
#include "park/parking_lot.hpp"
#include "platform/chrono_to_timespec.hpp"
#include "platform/topology.hpp"
#include "response/response.hpp"
#include "shield/rw_shield.hpp"
#include "shield/shield.hpp"
#include "verify/checkers.hpp"

using namespace resilock;
using namespace resilock::park;
using response::ResponseRulesGuard;
namespace rv = resilock::verify;

namespace {

ParkStatsSnapshot stats() { return ParkStats::instance().snapshot(); }

// A CLOCK_REALTIME abstime `ms` milliseconds out, for the shim tests.
timespec realtime_in_ms(long ms) {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  ts.tv_nsec += ms * 1000000L;
  while (ts.tv_nsec >= 1000000000L) {
    ts.tv_sec += 1;
    ts.tv_nsec -= 1000000000L;
  }
  return ts;
}

const platform::Topology& two_domains() {
  static const auto topo = platform::Topology::uniform(2, 2);
  return topo;
}

}  // namespace

// ---------------------------------------------------------------------
// Fallback backend.
// ---------------------------------------------------------------------

TEST(ParkFallback, ValueChangedNeverSleeps) {
  std::atomic<std::uint32_t> word{1};
  EXPECT_EQ(fallback::wait(&word, 0, nullptr),
            WaitResult::kValueChanged);
}

TEST(ParkFallback, TimedWaitTimesOut) {
  std::atomic<std::uint32_t> word{0};
  const std::uint64_t deadline =
      platform::monotonic_now_ns() + 50 * 1000000ull;
  // Condvars may wake spuriously; loop on the deadline like a real
  // waiter would.
  for (;;) {
    timespec rel{};
    if (!platform::relative_until(deadline, platform::monotonic_now_ns(),
                                  rel)) {
      break;
    }
    const WaitResult r = fallback::wait(&word, 0, &rel);
    ASSERT_NE(r, WaitResult::kValueChanged);
    if (r == WaitResult::kTimedOut) break;
  }
  EXPECT_GE(platform::monotonic_now_ns() + 1000000ull, deadline);
}

TEST(ParkFallback, WaitUntilHonorsAbsoluteDeadlineExactly) {
  std::atomic<std::uint32_t> word{0};
  const std::uint64_t deadline =
      platform::monotonic_now_ns() + 20 * 1000000ull;  // 20 ms
  for (;;) {
    // Spurious wakes re-wait with the SAME absolute deadline — no
    // relative re-derivation, which is what the old wait_for path
    // rounded up.
    const WaitResult r = fallback::wait_until(&word, 0, deadline);
    ASSERT_NE(r, WaitResult::kValueChanged);
    if (r == WaitResult::kTimedOut) break;
    if (platform::monotonic_now_ns() >= deadline) break;
  }
  // Sub-deadline precision: never a single nanosecond early. (No
  // tight upper bound — scheduling delay after the wake is unbounded
  // on a loaded CI box.)
  EXPECT_GE(platform::monotonic_now_ns(), deadline);
}

TEST(ParkFallback, WakeReachesWaitUntilSleeper) {
  std::atomic<std::uint32_t> word{0};
  std::thread t([&] {
    const std::uint64_t deadline =
        platform::monotonic_now_ns() + 2000 * 1000000ull;
    while (word.load(std::memory_order_acquire) == 0) {
      if (fallback::wait_until(&word, 0, deadline) ==
          WaitResult::kTimedOut) {
        break;
      }
    }
  });
  word.store(1, std::memory_order_release);
  fallback::wake(&word, 1);
  t.join();
  EXPECT_EQ(word.load(std::memory_order_acquire), 1u);
}

TEST(ParkFutex, WaitUntilTimesOutAtMonotonicDeadline) {
  // The dispatch path (FUTEX_WAIT_BITSET absolute-monotonic on Linux,
  // the condvar fallback elsewhere) — same exactness contract.
  std::atomic<std::uint32_t> word{0};
  const std::uint64_t deadline =
      platform::monotonic_now_ns() + 10 * 1000000ull;  // 10 ms
  for (;;) {
    const WaitResult r = futex_wait_until(&word, 0, deadline);
    ASSERT_NE(r, WaitResult::kValueChanged);
    if (r == WaitResult::kTimedOut) break;
    if (platform::monotonic_now_ns() >= deadline) break;
  }
  EXPECT_GE(platform::monotonic_now_ns(), deadline);
}

TEST(ParkFutex, PlainWakeReachesAbsoluteDeadlineWaiter) {
  // Interop both backends guarantee: a plain futex_wake (what every
  // unlock path issues) must reach a waiter parked with an absolute
  // deadline (bitset MATCH_ANY native; shared stripes in fallback).
  std::atomic<std::uint32_t> word{0};
  std::thread t([&] {
    const std::uint64_t deadline =
        platform::monotonic_now_ns() + 2000 * 1000000ull;
    while (word.load(std::memory_order_acquire) == 0) {
      if (futex_wait_until(&word, 0, deadline) ==
          WaitResult::kTimedOut) {
        break;
      }
    }
  });
  word.store(1, std::memory_order_release);
  futex_wake_one(&word);
  t.join();
  EXPECT_EQ(word.load(std::memory_order_acquire), 1u);
}

TEST(ParkFallback, WakeWakesWaiter) {
  std::atomic<std::uint32_t> word{0};
  std::thread t([&] {
    while (word.load(std::memory_order_acquire) == 0) {
      fallback::wait(&word, 0, nullptr);
    }
  });
  // No handshake needed: wake() serializes with a concurrent wait()'s
  // predicate check through the stripe mutex.
  word.store(1, std::memory_order_release);
  fallback::wake(&word, 1);
  t.join();
}

// ---------------------------------------------------------------------
// wait_word / wake_word.
// ---------------------------------------------------------------------

TEST(ParkWord, GrantedWordReturnsImmediately) {
  ParkingGuard park(true);
  std::atomic<std::uint32_t> word{kWordGranted};
  EXPECT_EQ(wait_word(word, nullptr), kWordGranted);
}

TEST(ParkWord, ParkedWaiterWokenByHandoff) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(4);
  const std::uint64_t parks0 = stats().parks;
  // A waiter already counted in parked_count() may still see the
  // hand-off before it sleeps, and then no park happened: repeat until
  // one really slept.
  for (int attempt = 0; attempt < 20 && stats().parks == parks0;
       ++attempt) {
    std::atomic<std::uint32_t> word{kWordWaiting};
    ParkBay bay;
    std::thread t([&] { EXPECT_EQ(wait_word(word, &bay), kWordGranted); });
    ASSERT_TRUE(rv::wait_for([&] { return bay.parked_count() >= 1; },
                             rv::milliseconds{2000}));
    std::this_thread::sleep_for(rv::milliseconds{5});
    wake_word(word);
    t.join();
    EXPECT_EQ(bay.parked_count(), 0u);
  }
  EXPECT_GE(stats().parks, parks0 + 1);
}

TEST(ParkWord, ParkingDisabledStaysOnSpinPath) {
  ParkingGuard park(false);
  const std::uint64_t parks0 = stats().parks;
  std::atomic<std::uint32_t> word{kWordWaiting};
  ParkBay bay;
  std::thread t([&] { EXPECT_EQ(wait_word(word, &bay), kWordGranted); });
  rv::wait_for([] { return false; }, rv::milliseconds{20});
  EXPECT_EQ(bay.parked_count(), 0u);
  wake_word(word);
  t.join();
  EXPECT_EQ(stats().parks, parks0);
}

// ---------------------------------------------------------------------
// Queue-lock wiring: the contended slow path parks, the hand-off
// wakes, mutual exclusion and counters intact.
// ---------------------------------------------------------------------

TEST(ParkLocks, McsParkedHandoff) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(4);
  McsLockResilient lock;
  McsLockResilient::QNode main_node;
  lock.acquire(main_node);
  std::atomic<bool> entered{false};
  std::thread t([&] {
    McsLockResilient::QNode n;
    lock.acquire(n);
    entered.store(true, std::memory_order_release);
    EXPECT_TRUE(lock.release(n));
  });
  ASSERT_TRUE(rv::wait_for([&] { return lock.parked_waiters() >= 1; },
                           rv::milliseconds{2000}));
  EXPECT_FALSE(entered.load(std::memory_order_acquire));
  EXPECT_TRUE(lock.release(main_node));
  t.join();
  EXPECT_TRUE(entered.load());
  EXPECT_EQ(lock.parked_waiters(), 0u);
}

TEST(ParkLocks, ClhParkedHandoff) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(4);
  ClhLockResilient lock;
  ClhLockResilient::Context main_ctx;
  lock.acquire(main_ctx);
  std::atomic<bool> entered{false};
  std::thread t([&] {
    ClhLockResilient::Context c;
    lock.acquire(c);
    entered.store(true, std::memory_order_release);
    EXPECT_TRUE(lock.release(c));
  });
  ASSERT_TRUE(rv::wait_for([&] { return lock.parked_waiters() >= 1; },
                           rv::milliseconds{2000}));
  EXPECT_FALSE(entered.load(std::memory_order_acquire));
  EXPECT_TRUE(lock.release(main_ctx));
  t.join();
  EXPECT_TRUE(entered.load());
}

TEST(ParkLocks, TicketParkedHandoff) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(4);
  TicketLockResilient lock;
  lock.acquire();
  std::atomic<bool> entered{false};
  std::thread t([&] {
    lock.acquire();
    entered.store(true, std::memory_order_release);
    EXPECT_TRUE(lock.release());
  });
  ASSERT_TRUE(rv::wait_for([&] { return lock.parked_waiters() >= 1; },
                           rv::milliseconds{2000}));
  EXPECT_FALSE(entered.load(std::memory_order_acquire));
  EXPECT_TRUE(lock.release());
  t.join();
  EXPECT_TRUE(entered.load());
}

TEST(ParkLocks, HmcsParkedHandoff) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(4);
  HmcsLockResilient lock(two_domains());
  HmcsLockResilient::Context main_ctx;
  lock.acquire(main_ctx);
  std::atomic<bool> entered{false};
  std::thread t([&] {
    HmcsLockResilient::Context c;
    lock.acquire(c);
    entered.store(true, std::memory_order_release);
    EXPECT_TRUE(lock.release(c));
  });
  ASSERT_TRUE(rv::wait_for([&] { return lock.parked_waiters() >= 1; },
                           rv::milliseconds{2000}));
  EXPECT_FALSE(entered.load(std::memory_order_acquire));
  EXPECT_TRUE(lock.release(main_ctx));
  t.join();
  EXPECT_TRUE(entered.load());
}

TEST(ParkLocks, MutualExclusionUnderParkedContention) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(8);
  McsLockResilient lock;
  std::uint64_t counter = 0;  // intentionally non-atomic
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kIters = 500;
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      McsLockResilient::QNode n;
      for (std::uint64_t k = 0; k < kIters; ++k) {
        lock.acquire(n);
        counter += 1;
        lock.release(n);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

// ---------------------------------------------------------------------
// Misuse-aware wakeup.
// ---------------------------------------------------------------------

TEST(ParkMisuse, ShieldedMisuseWakesParkedWaiter) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(4);
  Shield<McsLockResilient> lock(shield::ShieldPolicy::kSuppress);
  Shield<McsLockResilient>::Context owner_ctx;
  generic_acquire(lock, owner_ctx);
  std::atomic<bool> entered{false};
  std::thread waiter([&] {
    Shield<McsLockResilient>::Context c;
    generic_acquire(lock, c);
    entered.store(true, std::memory_order_release);
    EXPECT_TRUE(generic_release(lock, c));
  });
  ASSERT_TRUE(rv::wait_for([&] { return lock.base().parked_waiters() >= 1; },
                           rv::milliseconds{2000}));
  // A third thread issues a bogus unlock. The shield absorbs it AND
  // broadcast-wakes the parked waiter, which re-checks and re-parks —
  // no wedge, no early entry.
  const std::uint64_t rescues0 = stats().misuse_wakes;
  std::thread bogus([&] {
    Shield<McsLockResilient>::Context c;
    EXPECT_FALSE(generic_release(lock, c));  // intercepted
  });
  bogus.join();
  EXPECT_GE(stats().misuse_wakes, rescues0 + 1);
  EXPECT_FALSE(entered.load(std::memory_order_acquire));
  EXPECT_TRUE(generic_release(lock, owner_ctx));
  waiter.join();
  EXPECT_TRUE(entered.load());
}

TEST(ParkMisuse, HmcsBareMisuseRefusedWakesParkedWaiter) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(4);
  HmcsLockResilient lock(two_domains());
  HmcsLockResilient::Context owner_ctx;
  lock.acquire(owner_ctx);
  std::atomic<bool> entered{false};
  std::thread waiter([&] {
    HmcsLockResilient::Context c;
    lock.acquire(c);
    entered.store(true, std::memory_order_release);
    EXPECT_TRUE(lock.release(c));
  });
  ASSERT_TRUE(rv::wait_for([&] { return lock.parked_waiters() >= 1; },
                           rv::milliseconds{2000}));
  const std::uint64_t rescues0 = stats().misuse_wakes;
  HmcsLockResilient::Context fresh;
  EXPECT_FALSE(lock.release(fresh));  // misuse_refused path
  EXPECT_GE(stats().misuse_wakes, rescues0 + 1);
  EXPECT_TRUE(lock.release(owner_ctx));
  waiter.join();
  EXPECT_TRUE(entered.load());
}

TEST(ParkMisuse, TicketDirectRescueBroadcast) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(4);
  TicketLockResilient lock;
  lock.acquire();
  std::thread waiter([&] {
    lock.acquire();
    EXPECT_TRUE(lock.release());
  });
  ASSERT_TRUE(rv::wait_for([&] { return lock.parked_waiters() >= 1; },
                           rv::milliseconds{2000}));
  const std::uint64_t rescues0 = stats().misuse_wakes;
  lock.misuse_wake();  // advisory broadcast: waiter re-checks, re-parks
  EXPECT_GE(stats().misuse_wakes, rescues0 + 1);
  EXPECT_TRUE(lock.release());
  waiter.join();
}

// HierMisuseFuzz-style randomized interleaving: threads acquire and
// release through the shield with parking on, and a misbehaving thread
// sprays bogus unlocks. Invariants: no lost updates, no wedge (the
// test completing is the assertion), rescue broadcasts absorbed.
TEST(ParkMisuse, RandomizedParkMisuseFuzz) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(8);
  Shield<McsLockResilient> lock(shield::ShieldPolicy::kSuppress);
  std::uint64_t counter = 0;
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kIters = 300;
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      std::mt19937 rng(0xC0FFEE + i);
      Shield<McsLockResilient>::Context ctx;
      for (std::uint64_t k = 0; k < kIters; ++k) {
        if (rng() % 8 == 0) {
          // Bogus unlock while holding nothing: absorbed, and any
          // parked waiter gets a rescue broadcast.
          generic_release(lock, ctx);
          continue;
        }
        generic_acquire(lock, ctx);
        counter += 1;
        EXPECT_TRUE(generic_release(lock, ctx));
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every non-misuse iteration incremented exactly once.
  EXPECT_GT(counter, 0u);
  EXPECT_LE(counter, kThreads * kIters);
}

// ---------------------------------------------------------------------
// park_until and TimedGate.
// ---------------------------------------------------------------------

TEST(ParkTimed, ParkUntilTimesOut) {
  ParkingGuard park(true);
  const std::uint64_t timeouts0 = stats().timeouts;
  std::atomic<std::uint32_t> word{0};
  const std::uint64_t deadline =
      platform::monotonic_now_ns() + 5 * 1000000ull;  // 5 ms
  // A word that never changes: every park_until call eventually
  // reports the deadline.
  while (park_until(word, 0, deadline)) {
  }
  EXPECT_GE(platform::monotonic_now_ns(), deadline);
  EXPECT_GE(stats().timeouts, timeouts0 + 1);
}

TEST(ParkTimed, ParkUntilSeesChange) {
  ParkingGuard park(true);
  std::atomic<std::uint32_t> word{0};
  std::thread t([&] {
    word.store(1, std::memory_order_release);
    futex_wake_all(&word);
  });
  const std::uint64_t deadline =
      platform::monotonic_now_ns() + 2000 * 1000000ull;
  while (word.load(std::memory_order_acquire) == 0) {
    ASSERT_TRUE(park_until(word, 0, deadline));
  }
  t.join();
}

TEST(ParkTimed, TimedGateTimesOutThenAcquires) {
  ParkingGuard park(true);
  TimedGate gate;
  std::atomic<bool> held{true};
  const auto try_lock = [&] {
    bool expected = false;
    return held.compare_exchange_strong(expected, true);
  };
  // Held elsewhere: the gate waits the full deadline and gives up.
  EXPECT_FALSE(gate.acquire_until(
      try_lock, platform::monotonic_now_ns() + 5 * 1000000ull));
  EXPECT_EQ(gate.waiters(), 0u);
  // Released: the next timed attempt succeeds on the fast path.
  held.store(false);
  gate.on_release();
  EXPECT_TRUE(gate.acquire_until(
      try_lock, platform::monotonic_now_ns() + 2000 * 1000000ull));
}

TEST(ParkTimed, TimedGateWokenByRelease) {
  ParkingGuard park(true);
  TimedGate gate;
  std::atomic<bool> held{true};
  const auto try_lock = [&] {
    bool expected = false;
    return held.compare_exchange_strong(expected, true);
  };
  std::thread releaser([&] {
    // Wait until the main thread is registered at the gate.
    rv::wait_for([&] { return gate.waiters() >= 1; },
                 rv::milliseconds{2000});
    held.store(false);
    gate.on_release();
  });
  EXPECT_TRUE(gate.acquire_until(
      try_lock, platform::monotonic_now_ns() + 5000 * 1000000ull));
  releaser.join();
}

// ---------------------------------------------------------------------
// Shim timedlock entry points.
// ---------------------------------------------------------------------

TEST(ShimTimedlock, TimesOutOnHeldMutexWithoutLockdepEdges) {
  ParkingGuard park(true);
  interpose::rl_mutex_t m{};
  ASSERT_EQ(interpose::rl_mutex_init(&m, "MCS", 1), 0);
  ASSERT_EQ(interpose::rl_mutex_lock(&m), 0);
  const std::uint64_t edges0 = lockdep::Graph::instance().stats().edges;
  std::thread t([&] {
    const timespec abs = realtime_in_ms(50);
    EXPECT_EQ(interpose::rl_mutex_timedlock(&m, &abs), ETIMEDOUT);
  });
  t.join();
  // Same contract as trylock: a timed-out acquisition never blocked
  // inside the protocol, so it contributes no order edges.
  EXPECT_EQ(lockdep::Graph::instance().stats().edges, edges0);
  EXPECT_EQ(interpose::rl_mutex_unlock(&m), 0);
  // Uncontended timed lock succeeds immediately.
  const timespec abs = realtime_in_ms(50);
  EXPECT_EQ(interpose::rl_mutex_timedlock(&m, &abs), 0);
  EXPECT_EQ(interpose::rl_mutex_unlock(&m), 0);
  EXPECT_EQ(interpose::rl_mutex_destroy(&m), 0);
}

TEST(ShimTimedlock, WokenByUnlockBeforeDeadline) {
  ParkingGuard park(true);
  interpose::rl_mutex_t m{};
  ASSERT_EQ(interpose::rl_mutex_init(&m, "Ticket", 1), 0);
  ASSERT_EQ(interpose::rl_mutex_lock(&m), 0);
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    const timespec abs = realtime_in_ms(5000);
    EXPECT_EQ(interpose::rl_mutex_timedlock(&m, &abs), 0);
    acquired.store(true, std::memory_order_release);
    EXPECT_EQ(interpose::rl_mutex_unlock(&m), 0);
  });
  rv::wait_for([] { return false; }, rv::milliseconds{20});
  EXPECT_FALSE(acquired.load(std::memory_order_acquire));
  EXPECT_EQ(interpose::rl_mutex_unlock(&m), 0);
  t.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(interpose::rl_mutex_destroy(&m), 0);
}

TEST(ShimTimedlock, InvalidAbstimeRejected) {
  interpose::rl_mutex_t m{};
  ASSERT_EQ(interpose::rl_mutex_init(&m, "MCS", 1), 0);
  EXPECT_EQ(interpose::rl_mutex_timedlock(&m, nullptr), EINVAL);
  const timespec bad{0, 1000000000L};  // tv_nsec out of range
  EXPECT_EQ(interpose::rl_mutex_timedlock(&m, &bad), EINVAL);
  EXPECT_EQ(interpose::rl_mutex_timedlock(nullptr, &bad), EINVAL);
  EXPECT_EQ(interpose::rl_mutex_destroy(&m), 0);
}

TEST(ShimTimedlock, RwTimedVariants) {
  ParkingGuard park(true);
  interpose::rl_rwlock_t rw{};
  ASSERT_EQ(interpose::rl_rwlock_init(&rw, "np", 1), 0);
  ASSERT_EQ(interpose::rl_rwlock_wrlock(&rw), 0);
  std::thread t([&] {
    timespec abs = realtime_in_ms(50);
    EXPECT_EQ(interpose::rl_rwlock_timedrdlock(&rw, &abs), ETIMEDOUT);
    abs = realtime_in_ms(50);
    EXPECT_EQ(interpose::rl_rwlock_timedwrlock(&rw, &abs), ETIMEDOUT);
  });
  t.join();
  ASSERT_EQ(interpose::rl_rwlock_unlock(&rw), 0);
  // Free lock: both timed entry points succeed immediately.
  timespec abs = realtime_in_ms(50);
  EXPECT_EQ(interpose::rl_rwlock_timedrdlock(&rw, &abs), 0);
  ASSERT_EQ(interpose::rl_rwlock_unlock(&rw), 0);
  abs = realtime_in_ms(50);
  EXPECT_EQ(interpose::rl_rwlock_timedwrlock(&rw, &abs), 0);
  ASSERT_EQ(interpose::rl_rwlock_unlock(&rw), 0);
  EXPECT_EQ(interpose::rl_rwlock_destroy(&rw), 0);
}

// ---------------------------------------------------------------------
// Lockstat attribution and response grammar.
// ---------------------------------------------------------------------

TEST(ParkObserve, LockstatCountsParksPerClass) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(4);
  observe::LockstatGuard lockstat(true);
  observe::LockStat::instance().reset();
  Shield<McsLockResilient> lock(shield::ShieldPolicy::kSuppress);
  const std::uint64_t parks0 = stats().parks;
  // A waiter already counted in parked_waiters() may still see the
  // release before it sleeps, and then no park happened: repeat until
  // one really slept.
  for (int attempt = 0; attempt < 20 && stats().parks == parks0;
       ++attempt) {
    Shield<McsLockResilient>::Context owner_ctx;
    generic_acquire(lock, owner_ctx);
    std::thread waiter([&] {
      Shield<McsLockResilient>::Context c;
      generic_acquire(lock, c);
      EXPECT_TRUE(generic_release(lock, c));
    });
    ASSERT_TRUE(
        rv::wait_for([&] { return lock.base().parked_waiters() >= 1; },
                     rv::milliseconds{2000}));
    std::this_thread::sleep_for(rv::milliseconds{5});
    EXPECT_TRUE(generic_release(lock, owner_ctx));
    waiter.join();
  }
  bool found = false;
  for (const auto& r : observe::LockStat::instance().report()) {
    if (r.parks > 0) {
      found = true;
      EXPECT_GE(r.wakes, 1u);
      EXPECT_GT(r.park_time, 0u);
    }
  }
  EXPECT_TRUE(found);
  observe::LockStat::instance().reset();
}

TEST(ParkObserve, ParkedThresholdConditionParses) {
  const auto rules = response::parse_rules("misuse@parked>=2=abort");
  ASSERT_TRUE(rules.has_value());
  ASSERT_EQ(rules->size(), 1u);
  EXPECT_EQ((*rules)[0].cond, response::Condition::kParkedAtLeast);
  EXPECT_EQ((*rules)[0].threshold, 2u);
  EXPECT_FALSE(response::parse_rules("misuse@parked>=0=log").has_value());
  EXPECT_FALSE(response::parse_rules("misuse@parked>=x=log").has_value());

  response::EventContext ctx;
  const std::string no_class;
  ctx.waiters_parked = 3;
  EXPECT_TRUE(response::cond_matches(response::Condition::kParkedAtLeast,
                                     2, no_class, response::kNoClass, ctx));
  ctx.waiters_parked = 1;
  EXPECT_FALSE(response::cond_matches(response::Condition::kParkedAtLeast,
                                      2, no_class, response::kNoClass,
                                      ctx));
}

TEST(ParkObserve, CurrentlyParkedGaugeTracksLiveWaiter) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(4);
  std::atomic<std::uint32_t> word{kWordWaiting};
  ParkBay bay;
  const std::uint64_t before = stats().currently_parked;
  std::thread t([&] { wait_word(word, &bay); });
  ASSERT_TRUE(rv::wait_for(
      [&] { return stats().currently_parked >= before + 1; },
      rv::milliseconds{2000}));
  wake_word(word);
  t.join();
  EXPECT_EQ(stats().currently_parked, before);
}

// ---------------------------------------------------------------------
// C-RW read-side parking: the barrier waits (RP: writer_active_, WP:
// writers_pending_) park on the shared epoch word instead of spinning,
// and every barrier drop broadcast-wakes. These pin the carry-over from
// the futex-tier PR: rw rescue telemetry used to report
// waiters_parked == 0 because the read side never parked.
// ---------------------------------------------------------------------

TEST(ParkLocks, CrwReaderParksOnActiveWriterBarrier) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(4);
  CrwRpLockResilient lock;
  CrwRpLockResilient::Context wctx, rctx;
  lock.wlock(wctx);
  std::atomic<bool> read_entered{false};
  std::thread reader([&] {
    lock.rlock(rctx);
    read_entered.store(true, std::memory_order_release);
    EXPECT_TRUE(lock.runlock(rctx));
  });
  // The reader must actually park (not yield-spin) on the RP barrier.
  ASSERT_TRUE(rv::wait_for([&] { return lock.parked_waiters() >= 1; },
                           rv::milliseconds{2000}));
  EXPECT_FALSE(read_entered.load(std::memory_order_acquire));
  EXPECT_TRUE(lock.wunlock(wctx));  // barrier drop broadcast-wakes
  reader.join();
  EXPECT_TRUE(read_entered.load());
  EXPECT_EQ(lock.parked_waiters(), 0u);
}

TEST(ParkLocks, CrwWpReaderParksOnPendingWriter) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(4);
  CrwWpLockResilient lock;
  CrwWpLockResilient::Context wctx, rctx;
  lock.wlock(wctx);  // writers_pending_ stays raised until wunlock
  std::atomic<bool> read_entered{false};
  std::thread reader([&] {
    lock.rlock(rctx);
    read_entered.store(true, std::memory_order_release);
    EXPECT_TRUE(lock.runlock(rctx));
  });
  ASSERT_TRUE(rv::wait_for([&] { return lock.parked_waiters() >= 1; },
                           rv::milliseconds{2000}));
  EXPECT_FALSE(read_entered.load(std::memory_order_acquire));
  EXPECT_TRUE(lock.wunlock(wctx));
  reader.join();
  EXPECT_TRUE(read_entered.load());
  EXPECT_EQ(lock.parked_waiters(), 0u);
}

// REVIEW fix pin: a WP try_wlock that fails at the cohort still backs
// its writers_pending_ raise out through the wake barrier. The witness
// is the parked reader's re-check: the back-out's epoch bump lands as
// a spurious wake (the count is still held up by the real writer), so
// wakes_spurious must advance. Without the barrier the bump never
// happens — and when the failing trylock's decrement is the 1->0
// transition (reachable racing wunlock's cohort-release window), a
// parked reader sleeps through it forever.
TEST(ParkLocks, CrwWpFailedTryWlockBackoutWakesParkedReaders) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(4);
  CrwWpLockResilient lock;
  CrwWpLockResilient::Context wctx, w2ctx, rctx;
  lock.wlock(wctx);  // holds the cohort, pending = 1
  std::atomic<bool> read_entered{false};
  std::thread reader([&] {
    lock.rlock(rctx);
    read_entered.store(true, std::memory_order_release);
    EXPECT_TRUE(lock.runlock(rctx));
  });
  ASSERT_TRUE(rv::wait_for([&] { return lock.parked_waiters() >= 1; },
                           rv::milliseconds{2000}));
  const std::uint64_t spurious_before = stats().wakes_spurious;
  // Cohort held by the live writer → try_acquire fails → pending
  // back-out 2->1 must broadcast like every other decrement site.
  EXPECT_FALSE(lock.try_wlock(w2ctx));
  ASSERT_TRUE(rv::wait_for(
      [&] { return stats().wakes_spurious >= spurious_before + 1; },
      rv::milliseconds{2000}))
      << "failed try_wlock back-out did not wake parked readers";
  EXPECT_FALSE(read_entered.load(std::memory_order_acquire));
  EXPECT_TRUE(lock.wunlock(wctx));
  reader.join();
  EXPECT_TRUE(read_entered.load());
  EXPECT_EQ(lock.parked_waiters(), 0u);
}

namespace {
std::atomic<int> g_rw_rescue_aborts{0};
void rw_rescue_abort_trap(response::ResponseEvent, const void*) {
  g_rw_rescue_aborts.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

TEST(ParkLocks, RwRescueSeesParkedReadersAndBroadcastWakes) {
  ParkingGuard park(true);
  ParkSpinsGuard spins(4);
  // The rule pair is the assertion: a misuse while a reader is parked
  // must match parked>=1 (suppress); if the read side were not wired
  // into parking the context would carry waiters_parked == 0, fall
  // through to misuse=abort, and trip the trap.
  ResponseRulesGuard rules("misuse@parked>=1=suppress;misuse=abort");
  response::ScopedAbortHandler trap(rw_rescue_abort_trap);
  g_rw_rescue_aborts.store(0, std::memory_order_relaxed);

  shield::RwShield<CrwRpLockResilient> rw;
  CrwRpLockResilient::Context wctx, rctx, mctx;
  rw.wlock(wctx);
  std::atomic<bool> read_entered{false};
  std::thread reader([&] {
    rw.rlock(rctx);
    read_entered.store(true, std::memory_order_release);
    EXPECT_TRUE(rw.unlock(rctx));
  });
  ASSERT_TRUE(rv::wait_for(
      [&] { return rw.base().parked_waiters() >= 1; },
      rv::milliseconds{2000}));

  const std::uint64_t wakes_before = stats().misuse_wakes;
  // Non-holder unlock (the §4 bug) from a third thread: absorbed, and
  // the rescue broadcast re-checks the parked reader.
  std::thread misuser([&] { EXPECT_FALSE(rw.unlock(mctx)); });
  misuser.join();
  EXPECT_EQ(g_rw_rescue_aborts.load(std::memory_order_relaxed), 0)
      << "rescue context reported waiters_parked == 0";
  EXPECT_GE(stats().misuse_wakes, wakes_before + 1);

  // The parked reader is still correct: it stays out until the writer
  // really leaves, then proceeds.
  EXPECT_FALSE(read_entered.load(std::memory_order_acquire));
  EXPECT_TRUE(rw.unlock(wctx));
  reader.join();
  EXPECT_TRUE(read_entered.load());
  EXPECT_EQ(rw.base().parked_waiters(), 0u);
}
