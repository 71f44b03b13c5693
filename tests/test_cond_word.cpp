// park::CondWord, the futex condvar the preload runs inside an app's
// pthread_cond_t, tested in-process: the token arithmetic step by step,
// the release-error and timeout exits, broadcast, and a bounded-queue
// stress whose counts must reconcile exactly with timed waiters timing
// out among the signals. Every test ends with the state word back at
// zero: no waiter registered, no wake token left behind.
#include "park/cond_word.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cerrno>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "platform/chrono_to_timespec.hpp"

namespace park = resilock::park;
namespace platform = resilock::platform;

namespace {

constexpr std::uint64_t kOneWaiter = std::uint64_t{1} << 32;

int wait_on(park::CondWord& cw, std::mutex& mu,
            std::uint64_t deadline = platform::kNsInfinite) {
  return park::cond_wait(
      cw,
      [&mu] {
        mu.unlock();
        return 0;
      },
      [&mu] { mu.lock(); }, deadline);
}

void spin_until_waiters(const park::CondWord& cw, std::uint64_t n) {
  while ((cw.state.load() >> 32) != n) std::this_thread::yield();
}

}  // namespace

TEST(CondWord, ZeroBytesAreAnIdleCondvar) {
  park::CondWord cw;
  EXPECT_EQ(cw.seq.load(), 0u);
  EXPECT_EQ(cw.clock, 0u);
  EXPECT_EQ(cw.state.load(), 0u);
  static_assert(CLOCK_REALTIME == 0, "zero clock must mean REALTIME");
}

TEST(CondWord, SignalWithoutUnsignalledWaiterChangesNothing) {
  park::CondWord cw;
  park::cond_signal(cw);
  park::cond_broadcast(cw);
  EXPECT_EQ(cw.seq.load(), 0u);
  EXPECT_EQ(cw.state.load(), 0u);
}

// The token arithmetic on a hand-set state word: a signal issues one
// token per unsignalled waiter and bumps seq; once wakes == waiters it
// is a no-op; broadcast tops wakes up to waiters.
TEST(CondWord, SignalIssuesOneTokenPerUnsignalledWaiter) {
  park::CondWord cw;
  cw.state.store(2 * kOneWaiter);
  park::cond_signal(cw);
  EXPECT_EQ(cw.state.load(), 2 * kOneWaiter + 1);
  EXPECT_EQ(cw.seq.load(), 1u);
  park::cond_signal(cw);
  EXPECT_EQ(cw.state.load(), 2 * kOneWaiter + 2);
  park::cond_signal(cw);
  EXPECT_EQ(cw.state.load(), 2 * kOneWaiter + 2);
  EXPECT_EQ(cw.seq.load(), 2u);

  cw.state.store(3 * kOneWaiter + 1);
  park::cond_broadcast(cw);
  EXPECT_EQ(cw.state.load(), 3 * kOneWaiter + 3);
  EXPECT_EQ(cw.seq.load(), 3u);
  park::cond_broadcast(cw);
  EXPECT_EQ(cw.seq.load(), 3u);
}

// Departure drops a token whenever one is outstanding, so wakes never
// exceeds waiters and both reach zero together.
TEST(CondWord, DepartureConsumesAnyOutstandingToken) {
  park::CondWord cw;
  cw.state.store(2 * kOneWaiter + 2);
  park::cond_detail::depart(cw);
  EXPECT_EQ(cw.state.load(), kOneWaiter + 1);
  cw.state.store(3 * kOneWaiter + 1);  // e.g. a timed-out waiter leaving
  park::cond_detail::depart(cw);
  EXPECT_EQ(cw.state.load(), 2 * kOneWaiter);
  cw.state.store(2 * kOneWaiter);
  park::cond_detail::depart(cw);
  EXPECT_EQ(cw.state.load(), kOneWaiter);
  park::cond_detail::depart(cw);
  EXPECT_EQ(cw.state.load(), 0u);
}

TEST(CondWord, ReleaseErrorReturnsWithoutWaitingOrReacquiring) {
  park::CondWord cw;
  int reacquired = 0;
  const int rc =
      park::cond_wait(cw, [] { return EPERM; }, [&] { ++reacquired; });
  EXPECT_EQ(rc, EPERM);
  EXPECT_EQ(reacquired, 0);
  EXPECT_EQ(cw.state.load(), 0u);
}

TEST(CondWord, TimedWaitTimesOutHoldingTheMutex) {
  park::CondWord cw;
  std::mutex mu;
  mu.lock();
  const std::uint64_t t0 = platform::monotonic_now_ns();
  int rc;
  do {
    rc = wait_on(cw, mu, t0 + 20'000'000);
  } while (rc == 0);
  EXPECT_EQ(rc, ETIMEDOUT);
  EXPECT_GE(platform::monotonic_now_ns(), t0 + 20'000'000);
  EXPECT_FALSE(mu.try_lock());  // re-acquired by the wait
  mu.unlock();
  EXPECT_EQ(cw.state.load(), 0u);
}

TEST(CondWord, BroadcastWakesEveryWaiter) {
  constexpr int kWaiters = 8;
  park::CondWord cw;
  std::mutex mu;
  bool go = false;
  int woken = 0;
  std::vector<std::thread> ts;
  for (int i = 0; i < kWaiters; ++i) {
    ts.emplace_back([&] {
      std::lock_guard<std::mutex> g(mu);
      while (!go) wait_on(cw, mu);
      ++woken;
    });
  }
  spin_until_waiters(cw, kWaiters);
  {
    std::lock_guard<std::mutex> g(mu);
    go = true;
    park::cond_broadcast(cw);
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(woken, kWaiters);
  EXPECT_EQ(cw.state.load(), 0u);
}

// Two producers and two consumers over a bounded queue (not_full /
// not_empty), plus two timed consumers whose 50 us deadlines keep
// expiring while signals race them. Every item is consumed exactly
// once, the sums agree, and no waiter or token is left at the end.
TEST(CondWord, BoundedQueueCountsReconcileWithTimedWaiters) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr int kTimed = 2;
  constexpr std::uint64_t kPerProducer = 20000;
  constexpr std::size_t kCap = 8;

  park::CondWord not_full, not_empty;
  std::mutex mu;
  std::vector<std::uint64_t> q;
  bool closed = false;
  std::uint64_t consumed = 0, consumed_sum = 0, timeouts = 0;
  std::atomic<std::uint64_t> produced_sum{0};

  auto take = [&](std::uint64_t v) {
    ++consumed;
    consumed_sum += v;
    park::cond_signal(not_full);
  };

  std::vector<std::thread> ts;
  for (int p = 0; p < kProducers; ++p) {
    ts.emplace_back([&, p] {
      for (std::uint64_t i = 1; i <= kPerProducer; ++i) {
        const std::uint64_t v = i * 2 + static_cast<std::uint64_t>(p);
        std::lock_guard<std::mutex> g(mu);
        while (q.size() == kCap) wait_on(not_full, mu);
        q.push_back(v);
        produced_sum.fetch_add(v, std::memory_order_relaxed);
        park::cond_signal(not_empty);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    ts.emplace_back([&] {
      std::lock_guard<std::mutex> g(mu);
      for (;;) {
        while (q.empty() && !closed) wait_on(not_empty, mu);
        if (q.empty()) return;
        const std::uint64_t v = q.back();
        q.pop_back();
        take(v);
      }
    });
  }
  for (int t = 0; t < kTimed; ++t) {
    ts.emplace_back([&] {
      std::lock_guard<std::mutex> g(mu);
      for (;;) {
        while (q.empty() && !closed) {
          const std::uint64_t dl = platform::monotonic_now_ns() + 50'000;
          if (wait_on(not_empty, mu, dl) == ETIMEDOUT) ++timeouts;
        }
        if (q.empty()) return;
        const std::uint64_t v = q.back();
        q.pop_back();
        take(v);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) ts[p].join();
  {
    std::lock_guard<std::mutex> g(mu);
    closed = true;
    park::cond_broadcast(not_empty);
  }
  for (std::size_t i = kProducers; i < ts.size(); ++i) ts[i].join();

  EXPECT_EQ(consumed, kProducers * kPerProducer);
  EXPECT_EQ(consumed_sum, produced_sum.load());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(not_full.state.load(), 0u);
  EXPECT_EQ(not_empty.state.load(), 0u);
  RecordProperty("timeouts", static_cast<int>(timeouts));
}

// Timed waiters leave with tokens meant for others; afterwards plain
// waiters must still be reachable by signals alone (a stranded token
// would turn every later signal into a no-op).
TEST(CondWord, TimedOutWaitersStrandNoToken) {
  constexpr int kTimed = 4;
  constexpr int kPlain = 2;
  constexpr int kRounds = 2000;
  park::CondWord cw;
  std::mutex mu;
  int items = 0;
  int plain_taken = 0;
  int timeouts = 0;
  bool stop_timed = false, done = false;

  std::vector<std::thread> timed, plain;
  for (int i = 0; i < kTimed; ++i) {
    timed.emplace_back([&] {
      std::lock_guard<std::mutex> g(mu);
      while (!stop_timed) {
        const std::uint64_t dl = platform::monotonic_now_ns() + 20'000;
        if (wait_on(cw, mu, dl) == ETIMEDOUT) ++timeouts;
      }
    });
  }
  for (int i = 0; i < kPlain; ++i) {
    plain.emplace_back([&] {
      std::lock_guard<std::mutex> g(mu);
      for (;;) {
        while (items == 0 && !done) wait_on(cw, mu);
        if (items == 0) return;
        --items;
        ++plain_taken;
      }
    });
  }
  // Race: signals with no item behind them, consumed by whoever wakes,
  // until the timed waiters have timed out often enough.
  const std::uint64_t race_end =
      platform::monotonic_now_ns() + 2 * platform::kNsPerSec;
  for (int i = 0;; ++i) {
    std::lock_guard<std::mutex> g(mu);
    if ((i >= kRounds && timeouts >= 200) ||
        platform::monotonic_now_ns() > race_end) {
      break;
    }
    park::cond_signal(cw);
    if (i % 16 == 0) {
      mu.unlock();
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      mu.lock();
    }
  }
  {
    std::lock_guard<std::mutex> g(mu);
    stop_timed = true;
  }
  for (auto& t : timed) t.join();
  // Tail: each item needs its signal to reach a plain waiter.
  for (int i = 0; i < kRounds; ++i) {
    std::lock_guard<std::mutex> g(mu);
    ++items;
    park::cond_signal(cw);
  }
  const std::uint64_t give_up =
      platform::monotonic_now_ns() + 20 * platform::kNsPerSec;
  bool drained = false;
  while (!drained && platform::monotonic_now_ns() < give_up) {
    std::this_thread::yield();
    std::lock_guard<std::mutex> g(mu);
    drained = plain_taken == kRounds;
  }
  EXPECT_TRUE(drained) << "a plain waiter slept through its signal";
  {
    std::lock_guard<std::mutex> g(mu);
    done = true;
    park::cond_broadcast(cw);
  }
  if (!drained) {  // a stranded sleeper ignores broadcast; free it
    cw.seq.fetch_add(1);
    park::futex_wake_all(&cw.seq);
  }
  for (auto& t : plain) t.join();
  EXPECT_EQ(plain_taken, kRounds);
  EXPECT_EQ(cw.state.load(), 0u);
  RecordProperty("timeouts", timeouts);
}
