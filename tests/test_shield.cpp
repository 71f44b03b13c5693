// Unit tests for the ownership-shield subsystem (src/shield/):
//   * HeldLockTable — fast path, spillover, and the two exemplar bugs
//     fixed (off-by-one at the fast-path boundary, overflow loss);
//   * the full policy matrix — {kSuppress, kAbort, kLogAndSuppress,
//     kPassThrough} x {unbalanced unlock, double unlock, non-owner
//     unlock, reentrant relock} — across three lock families (TAS,
//     Ticket, MCS: one plain word lock, one plain FIFO lock, one
//     context queue lock);
//   * telemetry snapshots, the §5 escape hatch, registry composites,
//     and the shield-vs-native verify matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "core/lock_registry.hpp"
#include "core/mcs.hpp"
#include "core/rw/crw.hpp"
#include "core/tas.hpp"
#include "core/ticket.hpp"
#include "lock_test_util.hpp"
#include "shield/held_lock_table.hpp"
#include "shield/rw_shield.hpp"
#include "shield/shield.hpp"
#include "verify/access.hpp"
#include "verify/misuse_matrix.hpp"

using namespace resilock;
using shield::HeldLockTable;
using shield::MisuseKind;
using shield::ShieldPolicy;
namespace rt = resilock::test;

// Shield<L> must stay inside the lock vocabulary for every family.
static_assert(Lockable<Shield<TatasLock>>);
static_assert(Lockable<Shield<McsLock>>);
static_assert(PlainLock<Shield<TicketLockResilient>>);
static_assert(ContextLock<Shield<McsLockResilient>>);

// ---------------------------------------------------------------------
// HeldLockTable
// ---------------------------------------------------------------------

TEST(HeldLockTable, TracksDepthPerLock) {
  HeldLockTable t;
  int a = 0, b = 0;
  EXPECT_EQ(t.depth(&a), 0u);
  t.note_acquired(&a);
  t.note_acquired(&a);
  t.note_acquired(&b);
  EXPECT_EQ(t.depth(&a), 2u);
  EXPECT_EQ(t.depth(&b), 1u);
  EXPECT_EQ(t.held_count(), 2u);
  EXPECT_EQ(t.note_released(&a), 1);
  EXPECT_EQ(t.note_released(&a), 0);
  EXPECT_EQ(t.depth(&a), 0u);
  EXPECT_EQ(t.note_released(&a), HeldLockTable::kNotHeld);
  EXPECT_EQ(t.note_released(&b), 0);
  EXPECT_EQ(t.held_count(), 0u);
}

TEST(HeldLockTable, ExactlyFullFastPathStillReleases) {
  // The exemplar's DecrementRef guard (`lock_count < MAX_LOCKS`) refused
  // releases when the table was exactly full; ours must not.
  HeldLockTable t;
  int locks[HeldLockTable::kFastSlots];
  for (auto& l : locks) t.note_acquired(&l);
  EXPECT_EQ(t.held_count(), HeldLockTable::kFastSlots);
  EXPECT_TRUE(t.fast_path_only());
  for (auto& l : locks) EXPECT_EQ(t.note_released(&l), 0);
  EXPECT_EQ(t.held_count(), 0u);
}

TEST(HeldLockTable, OverflowSpillsInsteadOfDropping) {
  // The exemplar silently dropped entries past MAX_LOCKS (and wrote one
  // past the array end on the way). Here deep nests spill to the map
  // and every entry stays exact.
  HeldLockTable t;
  constexpr std::size_t kLocks = 3 * HeldLockTable::kFastSlots;
  std::vector<int> locks(kLocks);
  for (auto& l : locks) t.note_acquired(&l);
  EXPECT_EQ(t.held_count(), kLocks);
  EXPECT_FALSE(t.fast_path_only());
  for (auto& l : locks) EXPECT_EQ(t.depth(&l), 1u);
  // Release in reverse order; nothing may be reported missing.
  for (auto it = locks.rbegin(); it != locks.rend(); ++it) {
    EXPECT_EQ(t.note_released(&*it), 0);
  }
  EXPECT_EQ(t.held_count(), 0u);
  EXPECT_TRUE(t.fast_path_only());
}

TEST(HeldLockTable, SpillPromotionKeepsFastPathHot) {
  HeldLockTable t;
  std::vector<int> locks(HeldLockTable::kFastSlots + 2);
  for (auto& l : locks) t.note_acquired(&l);
  // Free a fast slot: one spilled entry must be promoted into it.
  EXPECT_EQ(t.note_released(&locks[0]), 0);
  EXPECT_EQ(t.note_released(&locks[1]), 0);
  EXPECT_TRUE(t.fast_path_only());
  for (std::size_t i = 2; i < locks.size(); ++i) {
    EXPECT_EQ(t.depth(&locks[i]), 1u) << i;
  }
}

// ---------------------------------------------------------------------
// Policy matrix: policy x misuse kind x {TAS, Ticket, MCS}.
// ---------------------------------------------------------------------

// Runs the four misuse scenarios under kSuppress (or kLogAndSuppress)
// and checks interception, counters, and that the base never corrupts.
template <typename Base>
void suppressing_policy_matrix(ShieldPolicy policy) {
  using S = Shield<Base>;

  {  // unbalanced unlock of a free lock
    S s(policy);
    context_of_t<S> ctx;
    EXPECT_FALSE(generic_release(s, ctx));
    const auto snap = s.snapshot();
    EXPECT_EQ(snap.count(MisuseKind::kUnbalancedUnlock), 1u);
    EXPECT_EQ(snap.suppressed, 1u);
    generic_acquire(s, ctx);  // still functional
    EXPECT_TRUE(generic_release(s, ctx));
  }

  {  // double unlock by the previous owner
    S s(policy);
    context_of_t<S> ctx;
    generic_acquire(s, ctx);
    EXPECT_TRUE(generic_release(s, ctx));
    EXPECT_FALSE(generic_release(s, ctx));
    EXPECT_EQ(s.snapshot().count(MisuseKind::kDoubleUnlock), 1u);
  }

  {  // unlock while another thread holds the lock
    S s(policy);
    std::atomic<bool> held{false}, done{false};
    std::thread t([&] {
      context_of_t<S> ctx;
      generic_acquire(s, ctx);
      held.store(true);
      while (!done.load()) std::this_thread::yield();
      EXPECT_TRUE(generic_release(s, ctx));
    });
    while (!held.load()) std::this_thread::yield();
    context_of_t<S> ctx;
    EXPECT_FALSE(generic_release(s, ctx));  // intercepted, owner unharmed
    EXPECT_EQ(s.snapshot().count(MisuseKind::kNonOwnerUnlock), 1u);
    done.store(true);
    t.join();
    generic_acquire(s, ctx);
    EXPECT_TRUE(generic_release(s, ctx));
  }

  {  // reentrant relock, absorbed as a depth bump (§3.9 remedy)
    S s(policy);
    context_of_t<S> ctx;
    generic_acquire(s, ctx);
    generic_acquire(s, ctx);  // would self-deadlock unshielded
    EXPECT_EQ(s.held_depth(), 2u);
    const auto snap = s.snapshot();
    EXPECT_EQ(snap.count(MisuseKind::kReentrantRelock), 1u);
    EXPECT_EQ(snap.reentrant_absorbed, 1u);
    EXPECT_TRUE(generic_release(s, ctx));  // absorbed
    EXPECT_TRUE(generic_release(s, ctx));  // reaches the base
    EXPECT_EQ(s.held_depth(), 0u);
    generic_acquire(s, ctx);
    EXPECT_TRUE(generic_release(s, ctx));
  }
}

TEST(ShieldPolicyMatrix, SuppressTas) {
  suppressing_policy_matrix<TatasLock>(ShieldPolicy::kSuppress);
  suppressing_policy_matrix<TatasLockResilient>(ShieldPolicy::kSuppress);
}
TEST(ShieldPolicyMatrix, SuppressTicket) {
  suppressing_policy_matrix<TicketLock>(ShieldPolicy::kSuppress);
  suppressing_policy_matrix<TicketLockResilient>(ShieldPolicy::kSuppress);
}
TEST(ShieldPolicyMatrix, SuppressMcs) {
  suppressing_policy_matrix<McsLock>(ShieldPolicy::kSuppress);
  suppressing_policy_matrix<McsLockResilient>(ShieldPolicy::kSuppress);
}

TEST(ShieldPolicyMatrix, LogAndSuppressTas) {
  suppressing_policy_matrix<TatasLock>(ShieldPolicy::kLogAndSuppress);
}
TEST(ShieldPolicyMatrix, LogAndSuppressTicket) {
  suppressing_policy_matrix<TicketLock>(ShieldPolicy::kLogAndSuppress);
}
TEST(ShieldPolicyMatrix, LogAndSuppressMcs) {
  suppressing_policy_matrix<McsLock>(ShieldPolicy::kLogAndSuppress);
}

TEST(ShieldPolicyMatrix, LogPolicyWritesDiagnostic) {
  Shield<TatasLock> s(ShieldPolicy::kLogAndSuppress);
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(s.release());
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unbalanced-unlock"), std::string::npos) << err;
}

// kAbort: every misuse kind dies with a diagnostic. Death tests fork,
// so each scenario builds its whole world inside the statement.
template <typename Base>
void abort_policy_matrix() {
  using S = Shield<Base>;
  EXPECT_DEATH(
      {
        S s(ShieldPolicy::kAbort);
        context_of_t<S> ctx;
        generic_release(s, ctx);  // unbalanced unlock
      },
      "unbalanced-unlock");
  EXPECT_DEATH(
      {
        S s(ShieldPolicy::kAbort);
        context_of_t<S> ctx;
        generic_acquire(s, ctx);
        generic_release(s, ctx);
        generic_release(s, ctx);  // double unlock
      },
      "double-unlock");
  EXPECT_DEATH(
      {
        S s(ShieldPolicy::kAbort);
        std::atomic<bool> held{false};
        std::thread t([&] {
          context_of_t<S> ctx;
          generic_acquire(s, ctx);
          held.store(true);
          for (;;) std::this_thread::yield();  // the abort kills us
        });
        while (!held.load()) std::this_thread::yield();
        context_of_t<S> ctx;
        generic_release(s, ctx);  // non-owner unlock
      },
      "non-owner-unlock");
  EXPECT_DEATH(
      {
        S s(ShieldPolicy::kAbort);
        context_of_t<S> ctx;
        generic_acquire(s, ctx);
        generic_acquire(s, ctx);  // reentrant relock
      },
      "reentrant-relock");
}

TEST(ShieldPolicyMatrixDeathTest, AbortTas) { abort_policy_matrix<TatasLock>(); }
TEST(ShieldPolicyMatrixDeathTest, AbortTicket) {
  abort_policy_matrix<TicketLock>();
}
TEST(ShieldPolicyMatrixDeathTest, AbortMcs) { abort_policy_matrix<McsLock>(); }

// kPassThrough over a RESILIENT base: the shield counts, the base's own
// in-protocol check still refuses — observable behavior matches the
// bare resilient lock.
template <typename Base>
void passthrough_over_resilient_matrix() {
  using S = Shield<Base>;

  {  // unbalanced + double unlock reach the base and are refused there
    S s(ShieldPolicy::kPassThrough);
    context_of_t<S> ctx;
    EXPECT_FALSE(generic_release(s, ctx));
    generic_acquire(s, ctx);
    EXPECT_TRUE(generic_release(s, ctx));
    EXPECT_FALSE(generic_release(s, ctx));
    const auto snap = s.snapshot();
    EXPECT_EQ(snap.count(MisuseKind::kUnbalancedUnlock), 1u);
    EXPECT_EQ(snap.count(MisuseKind::kDoubleUnlock), 1u);
    EXPECT_EQ(snap.passed_through, 2u);
    EXPECT_EQ(snap.suppressed, 0u);
  }

  {  // reentrant relock probed via trylock: the base's CAS refuses
    S s(ShieldPolicy::kPassThrough);
    context_of_t<S> ctx;
    generic_acquire(s, ctx);
    EXPECT_FALSE(generic_try_acquire(s, ctx));
    const auto snap = s.snapshot();
    EXPECT_EQ(snap.count(MisuseKind::kReentrantRelock), 1u);
    EXPECT_EQ(snap.reentrant_absorbed, 0u);
    EXPECT_TRUE(generic_release(s, ctx));
  }
}

TEST(ShieldPolicyMatrix, PassThroughTas) {
  passthrough_over_resilient_matrix<TatasLockResilient>();
}
TEST(ShieldPolicyMatrix, PassThroughTicket) {
  passthrough_over_resilient_matrix<TicketLockResilient>();
}
TEST(ShieldPolicyMatrix, PassThroughMcs) {
  passthrough_over_resilient_matrix<McsLockResilient>();
}

TEST(ShieldPolicyMatrix, PassThroughOverOriginalIsFaithful) {
  // Over an ORIGINAL base, pass-through hands the misuse to the
  // protocol untouched: a non-owner release of a TAS lock really frees
  // the word (the paper's §3.1 consequence), and the shield only keeps
  // the tally.
  Shield<TatasLock> s(ShieldPolicy::kPassThrough);
  std::atomic<bool> held{false}, done{false};
  std::thread t([&] {
    s.acquire();
    held.store(true);
    while (!done.load()) std::this_thread::yield();
    s.release();
    done.store(false);
  });
  while (!held.load()) std::this_thread::yield();
  EXPECT_TRUE(s.release());  // original protocol: blind store, "succeeds"
  EXPECT_FALSE(s.base().is_locked());  // corruption passed through
  EXPECT_EQ(s.snapshot().count(MisuseKind::kNonOwnerUnlock), 1u);
  EXPECT_EQ(s.snapshot().passed_through, 1u);
  done.store(true);
  t.join();
}

// ---------------------------------------------------------------------
// Policy engine configuration.
// ---------------------------------------------------------------------

TEST(ShieldPolicyEngine, RuntimeDefaultIsPickedUpAtConstruction) {
  shield::ShieldPolicyGuard pin(ShieldPolicy::kPassThrough);
  Shield<TatasLockResilient> s;
  EXPECT_EQ(s.policy(), ShieldPolicy::kPassThrough);
}

TEST(ShieldPolicyEngine, PolicyGuardRestoresOnScopeExit) {
  const ShieldPolicy before = shield::default_shield_policy();
  {
    shield::ShieldPolicyGuard pin(ShieldPolicy::kAbort);
    EXPECT_EQ(shield::default_shield_policy(), ShieldPolicy::kAbort);
  }
  EXPECT_EQ(shield::default_shield_policy(), before);
}

TEST(ShieldPolicyEngine, PerInstanceOverrideAtRuntime) {
  Shield<TatasLockResilient> s(ShieldPolicy::kSuppress);
  EXPECT_FALSE(s.release());
  EXPECT_EQ(s.snapshot().suppressed, 1u);
  s.set_policy(ShieldPolicy::kPassThrough);
  EXPECT_FALSE(s.release());  // now the base's check answers
  EXPECT_EQ(s.snapshot().passed_through, 1u);
}

TEST(ShieldPolicyEngine, PolicyNames) {
  EXPECT_STREQ(shield::to_string(ShieldPolicy::kSuppress), "suppress");
  EXPECT_STREQ(shield::to_string(ShieldPolicy::kAbort), "abort");
  EXPECT_STREQ(shield::to_string(ShieldPolicy::kLogAndSuppress), "log");
  EXPECT_STREQ(shield::to_string(ShieldPolicy::kPassThrough),
               "passthrough");
  EXPECT_EQ(shield::default_shield_policy(), ShieldPolicy::kSuppress);
}

// ---------------------------------------------------------------------
// Semantics under load, escape hatch, composition.
// ---------------------------------------------------------------------

TEST(Shield, MutualExclusionPreserved) {
  Shield<TicketLock> plain;
  rt::mutex_stress(plain, 4, 1500);
  Shield<McsLockResilient> ctxlock;
  rt::mutex_stress(ctxlock, 4, 1500);
}

TEST(Shield, HolderTalliesExactUnderContention) {
  // The acquisition and release tallies are plain load+store bumps on
  // the holder line: exact because only the base lock's holder writes
  // them, so a contended hand-off must lose none.
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kPairs = 200000;
  Shield<McsLockResilient> s;
  runtime::ThreadTeam::run(kThreads, [&](std::uint32_t) {
    Shield<McsLockResilient>::Context c;
    for (std::uint64_t i = 0; i < kPairs; ++i) {
      s.acquire(c);
      ASSERT_TRUE(s.release(c));
    }
  });
  const auto snap = s.snapshot();
  EXPECT_EQ(snap.acquisitions, kThreads * kPairs);
  EXPECT_EQ(snap.releases, kThreads * kPairs);
  EXPECT_EQ(snap.total_misuses(), 0u);
}

TEST(Shield, ShieldedOriginalSurvivesConcurrentMisuse) {
  // The headline property: an ORIGINAL protocol behind the shield keeps
  // mutual exclusion while a rogue thread hammers unbalanced releases.
  Shield<TicketLock> s(ShieldPolicy::kSuppress);
  verify::MutexChecker chk;
  std::uint64_t counter = 0;
  runtime::ThreadTeam::run(4, [&](std::uint32_t tid) {
    if (tid == 3) {
      for (int i = 0; i < 200; ++i) {
        EXPECT_FALSE(s.release());
        std::this_thread::yield();
      }
      return;
    }
    for (int i = 0; i < 1000; ++i) {
      s.acquire();
      chk.enter();
      ++counter;
      chk.exit();
      ASSERT_TRUE(s.release());
    }
  });
  EXPECT_EQ(chk.max_simultaneous(), 1);
  EXPECT_EQ(counter, 3000u);
  // Concurrent rogue releases classify as non-owner (someone held the
  // lock) or unbalanced (it was free); either way the tally is nonzero.
  EXPECT_GT(s.snapshot().total_misuses(), 0u);
}

TEST(Shield, EscapeHatchDisablesInterception) {
  // §5: with checks off, one thread acquires and another releases, and
  // the shield stays out of the way entirely.
  Shield<TatasLockResilient> s(ShieldPolicy::kAbort);  // loudest policy
  s.acquire();
  {
    MisuseCheckGuard off(false);
    std::thread t([&] { EXPECT_TRUE(s.release()); });
    t.join();
  }
  EXPECT_FALSE(s.base().is_locked());
  EXPECT_EQ(s.snapshot().total_misuses(), 0u);  // nothing was flagged
  // The acquiring thread's table entry went stale when the lock left it
  // cross-thread; the next acquire must self-heal, not flag a relock
  // (which would abort under this policy).
  s.acquire();
  EXPECT_TRUE(s.release());
  EXPECT_EQ(s.snapshot().total_misuses(), 0u);
}

TEST(Shield, StaleEntryCannotReleaseAnotherThreadsLock) {
  // After a §5 hand-off (cross-thread release with checks disabled) the
  // original acquirer's table entry is stale. With checks back on, its
  // erroneous release() must NOT free the lock a third thread now
  // holds — release() validates the entry against the owner tag.
  Shield<TatasLockResilient> s(ShieldPolicy::kSuppress);
  s.acquire();
  {
    MisuseCheckGuard off(false);
    std::thread t([&] { EXPECT_TRUE(s.release()); });  // sanctioned
    t.join();
  }
  std::atomic<bool> held{false}, done{false};
  std::thread holder([&] {
    s.acquire();
    held.store(true);
    while (!done.load()) std::this_thread::yield();
    EXPECT_TRUE(s.release());
  });
  while (!held.load()) std::this_thread::yield();
  EXPECT_FALSE(s.release());  // stale entry: flagged, owner unharmed
  EXPECT_TRUE(s.base().is_locked());
  EXPECT_EQ(s.snapshot().count(MisuseKind::kNonOwnerUnlock), 1u);
  done.store(true);
  holder.join();
}

TEST(Shield, AbsorbedRelockReleasesBaseWithAcquiringContext) {
  // A relock absorbed with a *different* context must not poison the
  // final base release: whatever context the caller passes, the base is
  // released with the one it was acquired with (a foreign MCS qnode
  // would self-deadlock).
  Shield<McsLockResilient> s(ShieldPolicy::kSuppress);
  Shield<McsLockResilient>::Context c1, c2;
  s.acquire(c1);
  s.acquire(c2);  // absorbed; c2 never reaches the base
  EXPECT_EQ(s.held_depth(), 2u);
  EXPECT_TRUE(s.release(c1));  // absorbed
  EXPECT_TRUE(s.release(c2));  // must release the base via c1, not hang
  EXPECT_EQ(s.held_depth(), 0u);
  s.acquire(c2);  // still functional with either context
  EXPECT_TRUE(s.release(c2));
}

TEST(Shield, TrylockSemantics) {
  Shield<TatasLockResilient> s;
  EXPECT_TRUE(s.try_acquire());
  std::thread t([&] { EXPECT_FALSE(s.try_acquire()); });
  t.join();
  EXPECT_TRUE(s.release());
}

TEST(Shield, DeepRecursionBeyondFastPath) {
  // One shield absorbed past the fast-path size: the spillover keeps
  // the depth exact (no false unbalanced report at any depth).
  Shield<TatasLock> s(ShieldPolicy::kSuppress);
  constexpr std::uint32_t kDepth = 3 * HeldLockTable::kFastSlots;
  for (std::uint32_t i = 0; i < kDepth; ++i) s.acquire();
  EXPECT_EQ(s.held_depth(), kDepth);
  for (std::uint32_t i = 0; i < kDepth; ++i) EXPECT_TRUE(s.release());
  EXPECT_EQ(s.held_depth(), 0u);
  EXPECT_FALSE(s.release());  // one more is a genuine misuse again
}

// ---------------------------------------------------------------------
// Layout: one cache line per uncontended hold.
// ---------------------------------------------------------------------

namespace {
constexpr std::size_t kLine = platform::kCacheLineSize;

std::size_t offset_in(const void* outer, const void* inner) {
  return static_cast<std::size_t>(static_cast<const char*>(inner) -
                                  static_cast<const char*>(outer));
}
}  // namespace

// The preload's mutex: the holder words sit in the padding the MCS
// tail and its park bay leave on their line, so an uncontended hold
// dirties that one line; what waiters and misuse write does not share
// it. A bare MCS lock still claims a whole line of its own.
TEST(ShieldLayout, HolderWordsShareTheMcsTailLine) {
  static_assert(alignof(McsLock) == kLine && sizeof(McsLock) == kLine);
  using S = Shield<McsLockResilient>;
  static_assert(alignof(S) == kLine);
  auto s = std::make_unique<S>();
  const std::size_t tail = offset_in(s.get(), &s->base()) +
                           VerifyAccess::mcs_tail_offset(s->base());
  const VerifyAccess::ShieldLayout l = VerifyAccess::shield_layout(*s);
  const std::size_t line = tail / kLine;
  for (std::size_t hot : {l.owner, l.last_owner, l.hold_ctx, l.acquisitions,
                          l.releases}) {
    EXPECT_EQ(hot / kLine, line) << "holder word at " << hot;
  }
  EXPECT_EQ(l.releases + sizeof(std::uint64_t), (line + 1) * kLine);
  for (std::size_t cold : {l.waiters, l.policy, l.counters, l.class_id}) {
    EXPECT_NE(cold / kLine, line) << "cold field at " << cold;
  }
}

// The rwlock keeps its placement: the holder words open a fresh line
// right after the C-RW lock, and the waiter gauge opens the next one.
TEST(ShieldLayout, RwShieldHolderWordsKeepAFreshLine) {
  using Rw = CrwLock<kResilient, SplitReadIndicator, RwPreference::kReader,
                     CPtktTktLock<kResilient>>;
  auto s = std::make_unique<RwShield<Rw>>();
  const std::size_t base_end =
      offset_in(s.get(), &s->base()) + sizeof(Rw);
  const VerifyAccess::ShieldLayout l = VerifyAccess::shield_layout(*s);
  const std::size_t fresh = (base_end + kLine - 1) / kLine * kLine;
  EXPECT_EQ(l.owner, fresh);
  for (std::size_t hot : {l.last_owner, l.hold_ctx, l.acquisitions,
                          l.releases}) {
    EXPECT_EQ(hot / kLine, fresh / kLine) << "holder word at " << hot;
  }
  EXPECT_EQ(l.waiters, fresh + kLine);
}

// ---------------------------------------------------------------------
// Registry composites and interposer routing.
// ---------------------------------------------------------------------

TEST(ShieldRegistry, CompositeNamesRegisteredForEveryBase) {
  for (const auto& name : lock_names()) {
    if (is_shielded_name(name)) continue;
    EXPECT_TRUE(is_lock_name(shielded_name(name))) << name;
  }
}

TEST(ShieldRegistry, NameHelpersRoundTrip) {
  EXPECT_EQ(shielded_name("MCS"), "shield<MCS>");
  EXPECT_TRUE(is_shielded_name("shield<MCS>"));
  EXPECT_EQ(shield_base_name("shield<MCS>"), "MCS");
  EXPECT_FALSE(is_shielded_name("MCS"));
  EXPECT_FALSE(is_shielded_name("shield<>"));
  EXPECT_TRUE(shield_base_name("Ticket").empty());
}

TEST(ShieldRegistry, ShieldedOriginalDetectsThroughTypeErasure) {
  // The registry's whole point: protection for locks with no bespoke
  // resilient variant — the ORIGINAL flavor behind shield<> detects.
  for (const char* name : {"shield<TAS>", "shield<Ticket>", "shield<MCS>",
                           "shield<CLH>", "shield<HMCS>"}) {
    auto lock = make_lock(name, kOriginal);
    EXPECT_FALSE(lock->release()) << name;  // misuse on a free lock
    lock->acquire();
    EXPECT_TRUE(lock->release()) << name;
  }
}

// ---------------------------------------------------------------------
// Shield-vs-native verify matrix.
// ---------------------------------------------------------------------

TEST(ShieldMatrix, ShieldedOriginalMatchesNativeResilient) {
  const auto rows = verify::run_shield_matrix({"TAS", "Ticket", "MCS"});
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    for (int i = 0; i < 4; ++i) {
      const auto& cell = row.shielded[i];
      if (!cell.applicable) continue;
      EXPECT_TRUE(cell.detected) << row.lock << " scenario " << i;
      EXPECT_TRUE(cell.mutex_preserved) << row.lock << " scenario " << i;
      EXPECT_TRUE(cell.functional_after) << row.lock << " scenario " << i;
    }
    EXPECT_TRUE(row.shield_matches_native()) << row.lock;
  }
}
