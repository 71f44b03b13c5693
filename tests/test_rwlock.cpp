// Unit tests for the ReadIndicator variants and the C-RW-NP/RP/WP
// reader-writer locks (§4).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/rw/crw.hpp"
#include "core/rw/read_indicator.hpp"
#include "platform/thread_registry.hpp"
#include "runtime/barrier.hpp"
#include "runtime/thread_team.hpp"
#include "verify/checkers.hpp"

using namespace resilock;
namespace rv = resilock::verify;

namespace {
const platform::Topology& two_domains() {
  static const auto topo = platform::Topology::uniform(2, 2);
  return topo;
}
}  // namespace

// ------------------------- ReadIndicators ------------------------------

template <typename I>
class IndicatorTest : public ::testing::Test {
 public:
  static I make() {
    if constexpr (std::is_constructible_v<I, const platform::Topology&>) {
      return I(two_domains());
    } else {
      return I();
    }
  }
};
using IndicatorTypes =
    ::testing::Types<CentralReadIndicator, SplitReadIndicator,
                     SnziReadIndicator, CheckedReadIndicator>;
TYPED_TEST_SUITE(IndicatorTest, IndicatorTypes);

TYPED_TEST(IndicatorTest, EmptyInitially) {
  auto ind = TestFixture::make();
  EXPECT_TRUE(ind.is_empty());
}

TYPED_TEST(IndicatorTest, ArriveDepartRoundTrip) {
  auto ind = TestFixture::make();
  const auto pid = platform::self_pid();
  EXPECT_TRUE(ind.arrive(pid));
  EXPECT_FALSE(ind.is_empty());
  EXPECT_TRUE(ind.depart(pid));
  EXPECT_TRUE(ind.is_empty());
}

TYPED_TEST(IndicatorTest, ConcurrentReadersBalanceOut) {
  auto ind = TestFixture::make();
  runtime::ThreadTeam::run(4, [&](std::uint32_t) {
    const auto pid = platform::self_pid();
    for (int i = 0; i < 2000; ++i) {
      ind.arrive(pid);
      ind.depart(pid);
    }
  });
  EXPECT_TRUE(ind.is_empty());
}

TYPED_TEST(IndicatorTest, NonEmptyWhileAnyReaderPresent) {
  auto ind = TestFixture::make();
  std::atomic<bool> go_home{false};
  std::atomic<int> in{0};
  runtime::ThreadTeam::run(3, [&](std::uint32_t tid) {
    const auto pid = platform::self_pid();
    if (tid == 0) {
      // Writer-side observer.
      while (in.load() != 2) std::this_thread::yield();
      EXPECT_FALSE(ind.is_empty());
      go_home.store(true);
    } else {
      ind.arrive(pid);
      in.fetch_add(1);
      while (!go_home.load()) std::this_thread::yield();
      ind.depart(pid);
    }
  });
  EXPECT_TRUE(ind.is_empty());
}

TYPED_TEST(IndicatorTest, IngressEgressChurnUnderConcurrentObserver) {
  // Satellite coverage: hammer arrive/depart from several threads while
  // another thread continuously polls is_empty()/approx_readers(). The
  // observer must never crash or wedge, the population estimate must
  // stay within the live-thread bound, and the indicator must balance
  // once everyone leaves.
  auto ind = TestFixture::make();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> polls{0};
  constexpr std::uint32_t kChurners = 3;
  runtime::ThreadTeam::run(kChurners + 1, [&](std::uint32_t tid) {
    const auto pid = platform::self_pid();
    if (tid == 0) {  // observer
      while (!stop.load(std::memory_order_acquire)) {
        // No bound asserted mid-churn: split counters and SNZI helpers
        // legitimately over-report in transients (the estimate is
        // telemetry). The point is that concurrent polling is safe.
        (void)ind.is_empty();
        (void)ind.approx_readers();
        polls.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      for (int i = 0; i < 3000; ++i) {
        ind.arrive(pid);
        if ((i & 7) == 0) std::this_thread::yield();
        ind.depart(pid);
      }
      // The observer may not have been scheduled yet: stop it only
      // after it has polled at least once.
      if (tid == 1) {
        while (polls.load(std::memory_order_relaxed) == 0) {
          std::this_thread::yield();
        }
        stop.store(true, std::memory_order_release);
      }
    }
  });
  EXPECT_GT(polls.load(), 0u);
  EXPECT_TRUE(ind.is_empty());
  EXPECT_EQ(ind.approx_readers(), 0u);
}

TYPED_TEST(IndicatorTest, ApproxReadersTracksPopulation) {
  // The estimate is the rw contention signal the response engine keys
  // escalation off: it must be 0 when empty, positive while readers
  // are inside, and 0 again after they leave. (SNZI's root counts
  // nonempty leaves — a lower bound — so only >0 is asserted there.)
  auto ind = TestFixture::make();
  EXPECT_EQ(ind.approx_readers(), 0u);
  std::atomic<int> in{0};
  std::atomic<bool> out{false};
  runtime::ThreadTeam::run(3, [&](std::uint32_t) {
    const auto pid = platform::self_pid();
    ind.arrive(pid);
    in.fetch_add(1, std::memory_order_acq_rel);
    while (!out.load(std::memory_order_acquire)) {
      if (in.load(std::memory_order_acquire) == 3 &&
          ind.approx_readers() >= 1) {
        out.store(true, std::memory_order_release);
      }
      std::this_thread::yield();
    }
    ind.depart(pid);
  });
  EXPECT_TRUE(out.load());
  EXPECT_EQ(ind.approx_readers(), 0u);
}

TEST(CheckedIndicator, ApproxReadersIsExactPopcount) {
  CheckedReadIndicator ind(8);
  EXPECT_EQ(ind.approx_readers(), 0u);
  ind.arrive(1);
  ind.arrive(2);
  ind.arrive(5);
  EXPECT_EQ(ind.approx_readers(), 3u);
  ind.depart(2);
  EXPECT_EQ(ind.approx_readers(), 2u);
  ind.depart(1);
  ind.depart(5);
  EXPECT_EQ(ind.approx_readers(), 0u);
}

TEST(CheckedIndicator, DetectsDepartWithoutArrive) {
  CheckedReadIndicator ind;
  EXPECT_FALSE(ind.depart(platform::self_pid()));  // misuse detected
  EXPECT_TRUE(ind.is_empty());                     // and suppressed
}

TEST(CheckedIndicator, DetectsDoubleArrive) {
  CheckedReadIndicator ind;
  const auto pid = platform::self_pid();
  EXPECT_TRUE(ind.arrive(pid));
  EXPECT_FALSE(ind.arrive(pid));
  EXPECT_TRUE(ind.depart(pid));
}

TEST(SplitIndicator, MisuseSkewsForever) {
  // §4: a misused depart makes ingress/egress diverge permanently.
  SplitReadIndicator ind(two_domains());
  EXPECT_TRUE(ind.depart(platform::self_pid()));  // undetected
  EXPECT_FALSE(ind.is_empty());                   // skewed: never empty...
  ind.arrive(platform::self_pid());               // ...until rebalanced
  EXPECT_TRUE(ind.is_empty());
}

TEST(SnziIndicator, ManyArrivalsOneEpisode) {
  SnziReadIndicator ind(two_domains());
  const auto pid = platform::self_pid();
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ind.arrive(pid));
  EXPECT_FALSE(ind.is_empty());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ind.depart(pid));
  EXPECT_TRUE(ind.is_empty());
}

// ----------------------------- C-RW locks ------------------------------

template <typename L>
class CrwTest : public ::testing::Test {};
using CrwTypes = ::testing::Types<
    CrwLock<kOriginal, SplitReadIndicator, RwPreference::kNeutral>,
    CrwLock<kResilient, SplitReadIndicator, RwPreference::kNeutral>,
    CrwLock<kOriginal, CentralReadIndicator, RwPreference::kNeutral>,
    CrwLock<kResilient, SnziReadIndicator, RwPreference::kNeutral>,
    CrwLock<kOriginal, SplitReadIndicator, RwPreference::kReader>,
    CrwLock<kResilient, SplitReadIndicator, RwPreference::kReader>,
    CrwLock<kOriginal, SplitReadIndicator, RwPreference::kWriter>,
    CrwLock<kResilient, SplitReadIndicator, RwPreference::kWriter>,
    CrwNpLockChecked>;
TYPED_TEST_SUITE(CrwTest, CrwTypes);

TYPED_TEST(CrwTest, SingleThreadReadThenWrite) {
  TypeParam rw(two_domains());
  typename TypeParam::Context ctx;
  rw.rlock(ctx);
  EXPECT_TRUE(rw.runlock(ctx));
  rw.wlock(ctx);
  EXPECT_TRUE(rw.wunlock(ctx));
}

TYPED_TEST(CrwTest, WriterExcludesWritersAndReaders) {
  // Mixed stress: writers mutate a plain counter; readers verify the
  // invariant (value only changes under a writer).
  TypeParam rw(two_domains());
  std::uint64_t data = 0;
  rv::MutexChecker wchk;
  std::atomic<bool> reader_saw_torn{false};
  runtime::ThreadTeam::run(4, [&](std::uint32_t tid) {
    typename TypeParam::Context ctx;
    if (tid % 2 == 0) {  // writer
      for (int i = 0; i < 400; ++i) {
        rw.wlock(ctx);
        wchk.enter();
        data += 1;
        wchk.exit();
        ASSERT_TRUE(rw.wunlock(ctx));
      }
    } else {  // reader
      for (int i = 0; i < 400; ++i) {
        rw.rlock(ctx);
        const auto a = data;
        const auto b = data;
        if (a != b) reader_saw_torn.store(true);
        ASSERT_TRUE(rw.runlock(ctx));
      }
    }
  });
  EXPECT_EQ(data, 800u);
  EXPECT_EQ(wchk.max_simultaneous(), 1);
  EXPECT_FALSE(reader_saw_torn.load());
}

TYPED_TEST(CrwTest, ConcurrentReadersOverlap) {
  // Two readers must be able to be inside the read CS simultaneously.
  // Deterministic rendezvous: each reader enters the read CS and waits
  // (bounded) for the other one inside it. A reader-writer lock that
  // wrongly serializes readers can never reach in == 2.
  TypeParam rw(two_domains());
  std::atomic<int> in{0};
  std::atomic<bool> both_seen{false};
  runtime::ThreadTeam::run(2, [&](std::uint32_t) {
    typename TypeParam::Context ctx;
    rw.rlock(ctx);
    in.fetch_add(1);
    if (rv::wait_for([&] { return in.load() == 2; },
                     rv::milliseconds{2000})) {
      both_seen.store(true);
    }
    in.fetch_sub(1);
    rw.runlock(ctx);
  });
  EXPECT_TRUE(both_seen.load());
}

TEST(CrwResilient, WUnlockWithoutWLockRefused) {
  CrwNpLockResilient rw(two_domains());
  CrwNpLockResilient::Context ctx;
  EXPECT_FALSE(rw.wunlock(ctx));
  // Still functional.
  rw.wlock(ctx);
  EXPECT_TRUE(rw.wunlock(ctx));
}

TEST(CrwChecked, RUnlockMisuseDetected) {
  CrwNpLockChecked rw(two_domains());
  CrwNpLockChecked::Context ctx;
  EXPECT_FALSE(rw.runlock(ctx));  // depart without arrive: caught
  rw.rlock(ctx);
  EXPECT_TRUE(rw.runlock(ctx));
}

TEST(CrwOriginal, RUnlockMisuseAdmitsWriterOverReader) {
  // §4 mutex violation, deterministically (also exercised by the
  // misuse-matrix engine; kept here as a focused regression).
  CrwLock<kOriginal, SplitReadIndicator, RwPreference::kNeutral> rw(
      platform::Topology::uniform(1, 64));
  using Ctx = decltype(rw)::Context;
  rv::MutexChecker chk;
  std::atomic<bool> r_out{false};
  rv::Probe reader([&] {
    Ctx c;
    rw.rlock(c);
    chk.enter();
    rv::wait_for([&] { return r_out.load(); }, rv::milliseconds{3000});
    chk.exit();
    rw.runlock(c);
  });
  rv::wait_for([&] { return chk.current() == 1; });
  rv::Probe writer([&] {
    Ctx c;
    rw.wlock(c);
    chk.enter();
    chk.exit();
    rw.wunlock(c);
  });
  rv::wait_for([&] { return false; }, rv::milliseconds{50});
  Ctx rogue;
  EXPECT_TRUE(rw.runlock(rogue));  // undetected misuse
  EXPECT_TRUE(rv::wait_for([&] { return chk.max_simultaneous() >= 2; }));
  r_out.store(true);
  reader.join();
  writer.join();
  rw.indicator().arrive(platform::self_pid());  // rebalance for teardown
}
