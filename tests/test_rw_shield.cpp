// Unit + scenario tests for the mode-aware protection stack:
//   * RwShield<CrwLock> interception of the rw misuse kinds
//     (unbalanced read unlock, rw mode mismatch, non-owner write
//     unlock) and absorption of recursive/upgrading acquires;
//   * mode-tagged lockdep edges — R–R is edge-free, write-involved
//     inversions still flag on first occurrence;
//   * the response engine's rw event routing (adaptive preset, rw
//     tokens, reader-count contention signal);
//   * the pthread_rwlock-shaped shim (single mode-aware unlock);
//   * the verify-layer rw matrix across the C-RW configurations;
//   * the pipeline both shields share (shield/shield_core.hpp): parked
//     waiters credited to their lockstat class, one rescue-wake rule,
//     exact write tallies under contention, and the per-instance size
//     budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <thread>

#include "core/cohort.hpp"
#include "core/mcs.hpp"
#include "core/rw/crw.hpp"
#include "core/ticket.hpp"
#include "interpose/pthread_shim.hpp"
#include "lockdep/lockdep.hpp"
#include "observe/lockstat.hpp"
#include "park/parking_lot.hpp"
#include "response/response.hpp"
#include "runtime/thread_team.hpp"
#include "shield/rw_shield.hpp"
#include "shield/shield.hpp"
#include "verify/checkers.hpp"
#include "verify/rw_matrix.hpp"

using namespace resilock;
namespace rv = resilock::verify;
using response::Action;
using response::ResponseEvent;
using response::ResponseRulesGuard;
using shield::RwShield;
using shield::ShieldPolicy;

namespace {

// Environment pins shared by every test in this binary: no rules
// unless a test installs its own, suppress fallback, lockdep report.
class RwShieldTest : public ::testing::Test {
 protected:
  RwShieldTest()
      : rules_(""),
        policy_(ShieldPolicy::kSuppress),
        mode_(lockdep::LockdepMode::kReport) {}

  response::ResponseRulesGuard rules_;
  shield::ShieldPolicyGuard policy_;
  lockdep::LockdepModeGuard mode_;
};

using NpOriginal =
    CrwLock<kOriginal, SplitReadIndicator, RwPreference::kNeutral>;
using NpResilient =
    CrwLock<kResilient, SplitReadIndicator, RwPreference::kNeutral>;

std::uint64_t engine_event_count(ResponseEvent ev) {
  return response::ResponseEngine::instance().stats().by_event[
      static_cast<std::size_t>(ev)];
}

std::uint64_t engine_action_count(Action a) {
  return response::ResponseEngine::instance().stats().by_action[
      static_cast<std::size_t>(a)];
}

}  // namespace

// ---------------------------------------------------------------------
// Balanced operation.
// ---------------------------------------------------------------------

TEST_F(RwShieldTest, BalancedReadAndWriteEpisodes) {
  RwShield<NpOriginal> rw;
  NpOriginal::Context c;
  rw.rlock(c);
  EXPECT_EQ(rw.held_mode(), AccessMode::kRead);
  EXPECT_EQ(rw.held_depth(), 1u);
  EXPECT_TRUE(rw.runlock(c));
  rw.wlock(c);
  EXPECT_EQ(rw.held_mode(), AccessMode::kWrite);
  EXPECT_TRUE(rw.wunlock(c));
  const auto snap = rw.snapshot();
  EXPECT_EQ(snap.read_acquisitions, 1u);
  EXPECT_EQ(snap.write_acquisitions, 1u);
  EXPECT_EQ(snap.total_misuses(), 0u);
}

TEST_F(RwShieldTest, ConcurrentReadersOverlapWritersExclude) {
  RwShield<NpOriginal> rw;
  std::uint64_t data = 0;
  rv::MutexChecker wchk;
  runtime::ThreadTeam::run(4, [&](std::uint32_t tid) {
    NpOriginal::Context c;
    if (tid % 2 == 0) {
      for (int i = 0; i < 300; ++i) {
        rw.wlock(c);
        wchk.enter();
        data += 1;
        wchk.exit();
        ASSERT_TRUE(rw.wunlock(c));
      }
    } else {
      for (int i = 0; i < 300; ++i) {
        rw.rlock(c);
        const auto a = data;
        const auto b = data;
        EXPECT_EQ(a, b);
        ASSERT_TRUE(rw.runlock(c));
      }
    }
  });
  EXPECT_EQ(data, 600u);
  EXPECT_EQ(wchk.max_simultaneous(), 1);
  EXPECT_EQ(rw.snapshot().total_misuses(), 0u);
  EXPECT_TRUE(rw.base().indicator().is_empty());
}

TEST_F(RwShieldTest, WriteTalliesExactUnderContention) {
  // Write-side tallies sit on the holder line and are bumped with a
  // plain load+store: exact, because only the write holder writes them.
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kPairs = 200000;
  RwShield<CrwNpLockResilient> rw;
  runtime::ThreadTeam::run(kThreads, [&](std::uint32_t) {
    CrwNpLockResilient::Context c;
    for (std::uint64_t i = 0; i < kPairs; ++i) {
      rw.wlock(c);
      ASSERT_TRUE(rw.wunlock(c));
    }
  });
  const auto snap = rw.snapshot();
  EXPECT_EQ(snap.write_acquisitions, kThreads * kPairs);
  EXPECT_EQ(snap.write_releases, kThreads * kPairs);
  EXPECT_EQ(snap.total_misuses(), 0u);
}

// ---------------------------------------------------------------------
// Interception: the rw misuse kinds.
// ---------------------------------------------------------------------

TEST_F(RwShieldTest, UnbalancedReadUnlockInterceptedIndicatorIntact) {
  RwShield<NpOriginal> rw;
  NpOriginal::Context c;
  EXPECT_FALSE(rw.runlock(c));  // depart without arrive: refused
  const auto snap = rw.snapshot();
  EXPECT_EQ(snap.count(ResponseEvent::kUnbalancedReadUnlock), 1u);
  EXPECT_EQ(snap.suppressed, 1u);
  // The §4 corruption did NOT happen: indicator balanced, writer gets
  // in immediately instead of starving on a skewed isEmpty().
  EXPECT_TRUE(rw.base().indicator().is_empty());
  rw.wlock(c);
  EXPECT_TRUE(rw.wunlock(c));
}

TEST_F(RwShieldTest, ModeMismatchUnlocksRefusedBothWays) {
  RwShield<NpOriginal> rw;
  NpOriginal::Context c;
  rw.rlock(c);
  EXPECT_FALSE(rw.wunlock(c));  // read hold released as write
  EXPECT_EQ(rw.snapshot().count(ResponseEvent::kRwModeMismatch), 1u);
  EXPECT_TRUE(rw.runlock(c));  // the hold survived the interception
  rw.wlock(c);
  EXPECT_FALSE(rw.runlock(c));  // write hold released as read
  EXPECT_EQ(rw.snapshot().count(ResponseEvent::kRwModeMismatch), 2u);
  EXPECT_TRUE(rw.wunlock(c));
}

TEST_F(RwShieldTest, NonOwnerWriteUnlockClassified) {
  RwShield<NpOriginal> rw;
  std::atomic<bool> held{false}, release{false};
  rv::Probe writer([&] {
    NpOriginal::Context c;
    rw.wlock(c);
    held.store(true, std::memory_order_release);
    rv::wait_for([&] { return release.load(std::memory_order_acquire); },
                 20 * rv::kWatchWindow);
    EXPECT_TRUE(rw.wunlock(c));
  });
  rv::wait_for([&] { return held.load(std::memory_order_acquire); });
  NpOriginal::Context mine;
  EXPECT_FALSE(rw.wunlock(mine));  // another thread write-holds
  EXPECT_EQ(rw.snapshot().count(ResponseEvent::kNonOwnerWriteUnlock), 1u);
  release.store(true, std::memory_order_release);
  writer.join();
}

TEST_F(RwShieldTest, DoubleWriteUnlockClassified) {
  RwShield<NpOriginal> rw;
  NpOriginal::Context c;
  rw.wlock(c);
  EXPECT_TRUE(rw.wunlock(c));
  EXPECT_FALSE(rw.wunlock(c));  // once too often, by the previous writer
  EXPECT_EQ(rw.snapshot().count(ResponseEvent::kDoubleUnlock), 1u);
}

// ---------------------------------------------------------------------
// Absorption: recursive and upgrading acquires.
// ---------------------------------------------------------------------

TEST_F(RwShieldTest, RecursiveReadAbsorbedAsDepthBump) {
  RwShield<NpOriginal> rw;
  NpOriginal::Context c;
  rw.rlock(c);
  rw.rlock(c);  // pthread-style recursive read: absorbed
  EXPECT_EQ(rw.held_depth(), 2u);
  EXPECT_EQ(rw.snapshot().absorbed, 1u);
  EXPECT_EQ(rw.snapshot().count(ResponseEvent::kReentrantRelock), 1u);
  EXPECT_TRUE(rw.runlock(c));
  EXPECT_TRUE(rw.runlock(c));
  EXPECT_TRUE(rw.base().indicator().is_empty());  // one arrive, one depart
}

TEST_F(RwShieldTest, WriteUpgradeAbsorbedInsteadOfSelfDeadlock) {
  // A passthrough upgrade would spin forever: the writer waits for an
  // indicator that contains the caller itself. The shield absorbs it
  // as a mode-mismatch depth bump on the read hold.
  RwShield<NpOriginal> rw;
  NpOriginal::Context c;
  rw.rlock(c);
  rw.wlock(c);  // would self-deadlock if forwarded
  EXPECT_EQ(rw.held_mode(), AccessMode::kRead);  // still a read hold
  EXPECT_EQ(rw.held_depth(), 2u);
  EXPECT_EQ(rw.snapshot().count(ResponseEvent::kRwModeMismatch), 1u);
  EXPECT_TRUE(rw.runlock(c));
  EXPECT_TRUE(rw.runlock(c));
}

TEST_F(RwShieldTest, PassthroughRecursiveReadStaysFaithful) {
  // Regression: a FORWARDED (passthrough) recursive read must not also
  // bump the table — the base saw two arrives, so the base must see
  // two departs, or a counting indicator skews forever.
  RwShield<NpOriginal> rw(ShieldPolicy::kPassThrough);
  NpOriginal::Context c;
  rw.rlock(c);
  rw.rlock(c);  // forwarded: arrive #2, table depth stays 1
  EXPECT_EQ(rw.held_depth(), 1u);
  EXPECT_TRUE(rw.runlock(c));   // depart #1 (balanced entry)
  EXPECT_TRUE(rw.runlock(c));   // not-held misuse, passthrough: depart #2
  EXPECT_TRUE(rw.base().indicator().is_empty());  // no skew
  rw.wlock(c);  // a writer still gets in
  EXPECT_TRUE(rw.wunlock(c));
}

TEST_F(RwShieldTest, DisabledChecksRecursiveReadLeaksNoPhantoms) {
  // Regression: with the §5 escape hatch open, a recursive read is
  // forwarded verbatim — the lockdep stack must not accumulate a
  // phantom duplicate entry and the indicator must balance.
  RwShield<NpOriginal> rw;
  NpOriginal::Context c;
  rw.rlock(c);
  {
    MisuseCheckGuard off(false);
    rw.rlock(c);  // forwarded verbatim: arrive #2, no table bump
    EXPECT_TRUE(rw.runlock(c));  // pops the one entry, depart #1
    EXPECT_TRUE(rw.runlock(c));  // not held: forwarded verbatim, depart #2
  }
  EXPECT_TRUE(rw.base().indicator().is_empty());
  // No phantom stack entry: a nested acquisition on this thread adds
  // no edge sourced at the (fully released) rw lock.
  RwShield<NpOriginal> other;
  other.rlock(c);
  EXPECT_TRUE(other.runlock(c));
  EXPECT_FALSE(lockdep::Graph::instance().has_edge(rw.lockdep_class(),
                                                   other.lockdep_class()));
}

TEST_F(RwShieldTest, ReentrantWriteAbsorbed) {
  RwShield<NpOriginal> rw;
  NpOriginal::Context c;
  rw.wlock(c);
  rw.wlock(c);  // relock of a non-reentrant write side: absorbed
  EXPECT_EQ(rw.held_depth(), 2u);
  EXPECT_TRUE(rw.wunlock(c));
  EXPECT_TRUE(rw.wunlock(c));
  rw.wlock(c);  // still functional
  EXPECT_TRUE(rw.wunlock(c));
}

// ---------------------------------------------------------------------
// The mode-aware single unlock (pthread_rwlock_unlock semantics).
// ---------------------------------------------------------------------

TEST_F(RwShieldTest, UnifiedUnlockRoutesByHeldMode) {
  RwShield<NpOriginal> rw;
  NpOriginal::Context c;
  rw.rlock(c);
  EXPECT_TRUE(rw.unlock(c));  // routes to runlock
  EXPECT_TRUE(rw.base().indicator().is_empty());
  rw.wlock(c);
  EXPECT_TRUE(rw.unlock(c));  // routes to wunlock
  EXPECT_FALSE(rw.unlock(c));  // nothing held: intercepted
  EXPECT_GE(rw.snapshot().total_misuses(), 1u);
}

// ---------------------------------------------------------------------
// Policy precedence and engine routing.
// ---------------------------------------------------------------------

TEST_F(RwShieldTest, ExplicitPassthroughReachesResilientBase) {
  // The native W-side remedy refuses the forwarded misuse, proving the
  // shield really passed it through.
  RwShield<NpResilient> rw(ShieldPolicy::kPassThrough);
  NpResilient::Context c;
  EXPECT_FALSE(rw.wunlock(c));
  const auto snap = rw.snapshot();
  EXPECT_EQ(snap.passed_through, 1u);
  EXPECT_EQ(snap.suppressed, 0u);
}

TEST_F(RwShieldTest, AdaptivePresetLogsRwMisuseEvenUncontended) {
  // The rw tail has no "harmless radius" tier: an unbalanced read
  // unlock skews the indicator forever, so adaptive logs + suppresses
  // it even with nobody else around.
  ResponseRulesGuard rules(response::adaptive_policy_spec());
  RwShield<NpOriginal> rw;
  NpOriginal::Context c;
  const auto log_before = engine_action_count(Action::kLog);
  const auto ev_before =
      engine_event_count(ResponseEvent::kUnbalancedReadUnlock);
  EXPECT_FALSE(rw.runlock(c));  // logged AND suppressed
  EXPECT_EQ(engine_action_count(Action::kLog), log_before + 1);
  EXPECT_EQ(engine_event_count(ResponseEvent::kUnbalancedReadUnlock),
            ev_before + 1);
  EXPECT_EQ(rw.snapshot().suppressed, 1u);
  EXPECT_TRUE(rw.base().indicator().is_empty());
}

TEST_F(RwShieldTest, ReaderCountDrivesWaitersThresholdRule) {
  // waiters>=2 keyed off the rw stake (live readers): with two readers
  // inside, a bogus wunlock crosses the threshold and aborts (trapped);
  // with none, the same misuse only logs.
  static std::atomic<int> trapped{0};
  trapped.store(0);
  ResponseRulesGuard rules(
      "non-owner-write-unlock|unbalanced-unlock@waiters>=2=abort;"
      "misuse=log");
  response::ScopedAbortHandler trap(
      [](ResponseEvent, const void*) { trapped.fetch_add(1); });
  RwShield<NpOriginal> rw;
  std::atomic<int> in{0};
  std::atomic<bool> out{false};
  auto reader = [&] {
    NpOriginal::Context c;
    rw.rlock(c);
    in.fetch_add(1, std::memory_order_acq_rel);
    rv::wait_for([&] { return out.load(std::memory_order_acquire); },
                 20 * rv::kWatchWindow);
    rw.runlock(c);
  };
  rv::Probe r1(reader);
  rv::Probe r2(reader);
  rv::wait_for([&] { return in.load(std::memory_order_acquire) == 2; });
  NpOriginal::Context mine;
  EXPECT_FALSE(rw.wunlock(mine));  // stake >= 2: abort verdict, trapped
  EXPECT_EQ(trapped.load(), 1);
  out.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_FALSE(rw.wunlock(mine));  // stake 0 now: log tier instead
  EXPECT_EQ(trapped.load(), 1);
}

// ---------------------------------------------------------------------
// Mode-tagged lockdep.
// ---------------------------------------------------------------------

TEST_F(RwShieldTest, ReadReadNestingIsEdgeFree) {
  RwShield<NpOriginal> a, b;
  NpOriginal::Context ca, cb;
  const auto skips_before = lockdep::Graph::instance().stats().rr_skipped;
  const auto reports_before = lockdep::Graph::instance().stats().reports();
  a.rlock(ca);
  b.rlock(cb);  // R–R: no edge
  b.runlock(cb);
  a.runlock(ca);
  b.rlock(cb);
  a.rlock(ca);  // reversed R–R: still no edge, no inversion
  a.runlock(ca);
  b.runlock(cb);
  const auto& g = lockdep::Graph::instance();
  EXPECT_GE(g.stats().rr_skipped, skips_before + 2);
  EXPECT_EQ(g.stats().reports(), reports_before);
  EXPECT_FALSE(g.has_edge(a.lockdep_class(), b.lockdep_class()));
  EXPECT_FALSE(g.has_edge(b.lockdep_class(), a.lockdep_class()));
}

TEST_F(RwShieldTest, WriteInvolvedInversionStillFlagged) {
  RwShield<NpOriginal> a, b;
  NpOriginal::Context ca, cb;
  const auto before = lockdep::Graph::instance().stats().inversions;
  a.rlock(ca);
  b.wlock(cb);  // A(r)→B(w): write-involved, recorded
  b.wunlock(cb);
  a.runlock(ca);
  b.rlock(cb);
  a.wlock(ca);  // B(r)→A(w): closes the cycle — flagged here
  a.wunlock(ca);
  b.runlock(cb);
  EXPECT_GT(lockdep::Graph::instance().stats().inversions, before);
  // The edge mode tags recorded the read-mode sources.
  const auto& g = lockdep::Graph::instance();
  EXPECT_TRUE(g.edge_src_was_read(a.lockdep_class(), b.lockdep_class()));
  EXPECT_TRUE(g.edge_src_was_read(b.lockdep_class(), a.lockdep_class()));
}

// ---------------------------------------------------------------------
// Cohort per-level attribution (satellite): app code nesting a mutex
// under a cohort lock gets edges against the level classes; the
// combinator's own local→global nesting stays edge-free.
// ---------------------------------------------------------------------

TEST_F(RwShieldTest, CohortInternalNestingIsEdgeFree) {
  const auto& g = lockdep::Graph::instance();
  CTktTktLock<kOriginal> cohort(platform::Topology::uniform(2, 2));
  CTktTktLock<kOriginal>::Context c;
  cohort.acquire(c);
  cohort.release(c);
  const lockdep::ClassId local = cohort_local_class_key().id();
  const lockdep::ClassId global = cohort_global_class_key().id();
  ASSERT_NE(local, lockdep::kInvalidClass);
  ASSERT_NE(global, lockdep::kInvalidClass);
  EXPECT_FALSE(g.has_edge(local, global));  // suppressed by design
  EXPECT_FALSE(g.has_edge(global, local));  // never occurs internally
}

TEST_F(RwShieldTest, CrossLevelInversionAttributedToLevelClasses) {
  const auto& g = lockdep::Graph::instance();
  CTktTktLock<kOriginal> cohort(platform::Topology::uniform(2, 2));
  CTktTktLock<kOriginal>::Context c;
  Shield<TicketLockResilient> m;
  // mutex → cohort...
  m.acquire();
  cohort.acquire(c);
  cohort.release(c);
  m.release();
  const lockdep::ClassId local = cohort_local_class_key().id();
  ASSERT_NE(local, lockdep::kInvalidClass);
  EXPECT_TRUE(g.has_edge(m.lockdep_class(), local));
  // ...then cohort → mutex: the inversion names the LEVEL class.
  const auto before = g.stats().reports();
  cohort.acquire(c);
  m.acquire();
  m.release();
  cohort.release(c);
  EXPECT_GT(g.stats().reports(), before);
  EXPECT_TRUE(g.has_edge(local, m.lockdep_class()));
}

// ---------------------------------------------------------------------
// pthread_rwlock-shaped shim.
// ---------------------------------------------------------------------

TEST_F(RwShieldTest, RwShimInitLockUnlockDestroy) {
  using namespace resilock::interpose;
  rl_rwlock_t rw{};
  ASSERT_EQ(rl_rwlock_init(&rw, "np", 1), 0);
  EXPECT_EQ(rl_rwlock_rdlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_unlock(&rw), 0);  // mode-aware: releases the read
  EXPECT_EQ(rl_rwlock_wrlock(&rw), 0);
  EXPECT_EQ(rl_rwlock_unlock(&rw), 0);  // releases the write
  EXPECT_EQ(rl_rwlock_unlock(&rw), EPERM);  // nothing held: errorcheck
  EXPECT_EQ(rl_rwlock_destroy(&rw), 0);
  EXPECT_EQ(rl_rwlock_destroy(&rw), EBUSY);
}

TEST_F(RwShieldTest, RwShimPreferencesAndErrors) {
  using namespace resilock::interpose;
  for (const char* pref : {"np", "neutral", "rp", "reader", "wp",
                           "writer", static_cast<const char*>(nullptr)}) {
    rl_rwlock_t rw{};
    ASSERT_EQ(rl_rwlock_init(&rw, pref, 0), 0);
    EXPECT_EQ(rl_rwlock_rdlock(&rw), 0);
    EXPECT_EQ(rl_rwlock_unlock(&rw), 0);
    EXPECT_EQ(rl_rwlock_destroy(&rw), 0);
  }
  rl_rwlock_t rw{};
  EXPECT_EQ(rl_rwlock_init(&rw, "sideways", 0), EINVAL);
  EXPECT_EQ(rl_rwlock_init(nullptr, "np", 0), EINVAL);
  EXPECT_EQ(rl_rwlock_rdlock(nullptr), EINVAL);
  EXPECT_EQ(rl_rwlock_unlock(nullptr), EINVAL);
}

TEST_F(RwShieldTest, RwShimReadersOverlapWritersExclude) {
  using namespace resilock::interpose;
  rl_rwlock_t rw{};
  ASSERT_EQ(rl_rwlock_init(&rw, "np", 1), 0);
  std::uint64_t data = 0;
  rv::MutexChecker wchk;
  runtime::ThreadTeam::run(4, [&](std::uint32_t tid) {
    for (int i = 0; i < 200; ++i) {
      if (tid % 2 == 0) {
        ASSERT_EQ(rl_rwlock_wrlock(&rw), 0);
        wchk.enter();
        ++data;
        wchk.exit();
        ASSERT_EQ(rl_rwlock_unlock(&rw), 0);
      } else {
        ASSERT_EQ(rl_rwlock_rdlock(&rw), 0);
        ASSERT_EQ(rl_rwlock_unlock(&rw), 0);
      }
    }
  });
  EXPECT_EQ(data, 400u);
  EXPECT_EQ(wchk.max_simultaneous(), 1);
  EXPECT_EQ(rl_rwlock_destroy(&rw), 0);
}

// ---------------------------------------------------------------------
// The shared shield pipeline.
// ---------------------------------------------------------------------

namespace {

// A reader parked behind a write hold must show up as a park in the
// rw lock's own lockstat class, like a parked mutex waiter does.
template <typename Rw>
void expect_parked_reader_credited() {
  park::ParkingGuard parking(true);
  park::ParkSpinsGuard spins(4);
  observe::LockstatGuard lockstat(true);
  observe::LockStat::instance().reset();
  RwShield<Rw> rw;
  const auto slept = [] {
    return park::ParkStats::instance().snapshot().parks;
  };
  const std::uint64_t before = slept();
  // A reader already counted in parked_waiters() may still see the
  // wunlock's epoch bump before it sleeps, and then no park happened:
  // repeat until one really slept.
  for (int attempt = 0; attempt < 20 && slept() == before; ++attempt) {
    typename Rw::Context writer;
    rw.wlock(writer);
    std::thread reader([&] {
      typename Rw::Context c;
      rw.rlock(c);
      EXPECT_TRUE(rw.runlock(c));
    });
    ASSERT_TRUE(rv::wait_for([&] { return rw.base().parked_waiters() >= 1; },
                             rv::milliseconds{2000}));
    std::this_thread::sleep_for(rv::milliseconds{5});
    EXPECT_TRUE(rw.wunlock(writer));
    reader.join();
  }
  const std::uint64_t parks = slept() - before;
  ASSERT_GE(parks, 1u);
  std::uint64_t credited = 0;
  for (const auto& r : observe::LockStat::instance().report()) {
    if (r.cls == rw.lockdep_class()) credited += r.parks;
  }
  EXPECT_EQ(credited, parks);
  observe::LockStat::instance().reset();
}

}  // namespace

TEST_F(RwShieldTest, ParkedReaderCreditedToLockstatClass) {
  expect_parked_reader_credited<CrwRpLockResilient>();
  expect_parked_reader_credited<CrwWpLockResilient>();
}

TEST_F(RwShieldTest, AbsorbedRecursiveAcquireWakesNobody) {
  // A recursive read (legal for pthread rwlocks) or write keeps the
  // hold intact: nobody is orphaned, so no rescue broadcast.
  RwShield<CrwRpLockResilient> rw;
  CrwRpLockResilient::Context c;
  const auto wakes = [] {
    return park::ParkStats::instance().snapshot().misuse_wakes;
  };
  const std::uint64_t before = wakes();
  rw.rlock(c);
  rw.rlock(c);
  EXPECT_EQ(rw.snapshot().absorbed, 1u);
  EXPECT_EQ(wakes(), before);
  EXPECT_TRUE(rw.runlock(c));
  EXPECT_TRUE(rw.runlock(c));
  rw.wlock(c);
  rw.wlock(c);
  EXPECT_EQ(rw.snapshot().absorbed, 2u);
  EXPECT_EQ(wakes(), before);
  EXPECT_TRUE(rw.wunlock(c));
  EXPECT_TRUE(rw.wunlock(c));
}

TEST(ShieldSize, MergedPipelineGrowsNoShield) {
  // The preload puts a shield in front of every adopted mutex and
  // rwlock; these are the sizes before the two shields shared a core.
  static_assert(sizeof(Shield<McsLockResilient>) <= 256);
  static_assert(sizeof(RwShield<CrwNpLockResilient>) <= 1280);
  SUCCEED();
}

// ---------------------------------------------------------------------
// The verify-layer matrix: every acceptance gate across the C-RW
// configurations (neutral/ptkt-tkt, reader-pref/tkt-tkt,
// writer-pref/bo-bo).
// ---------------------------------------------------------------------

TEST(RwMatrix, AllGatesAcrossConfigurations) {
  const auto rows = verify::run_rw_matrix();
  verify::print_rw_matrix(rows);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& r : rows) {
    EXPECT_TRUE(r.rr_clean) << r.config;
    EXPECT_TRUE(r.rr_edge_free) << r.config;
    EXPECT_TRUE(r.w_inversion) << r.config;
    EXPECT_TRUE(r.w_inversion_once) << r.config;
    EXPECT_TRUE(r.rw_mixed_inversion) << r.config;
    EXPECT_TRUE(r.mismatch_intercepted) << r.config;
    EXPECT_TRUE(r.unbalanced_read_refused) << r.config;
    EXPECT_TRUE(r.indicator_intact) << r.config;
    EXPECT_TRUE(r.agrees_native) << r.config;
    EXPECT_TRUE(r.all_pass()) << r.config;
  }
}
