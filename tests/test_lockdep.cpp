// Unit + scenario tests for the lock-dependency subsystem
// (src/lockdep/):
//   * the order graph — class registration/retirement/recycling, edge
//     dedup, table-full fail-open;
//   * the lockdep part of the per-thread held record: level entries,
//     the shield's own entry, and every order of a 70-deep nest
//     recorded (the record has no depth cap);
//   * the misuse event ring (SPSC semantics, drop accounting, shield
//     violations arriving as timestamped events);
//   * detection semantics through real Shield<L> locks: AB/BA flagged
//     on first occurrence with no wedge, dining-philosophers cycle,
//     no false positives on consistent ordering across TAS/Ticket/MCS,
//     trylock neutrality, §5 escape-hatch record hygiene (the stale
//     entry sources no edge, keeps no lockstat window and self-heals),
//     and the per-class hand-off epoch that retires an entry whose hold
//     a forwarded non-owner unlock ended;
//   * the mode engine (report/abort/off) and the verify-layer
//     scenario matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/lock_registry.hpp"
#include "core/mcs.hpp"
#include "core/tas.hpp"
#include "core/ticket.hpp"
#include "interpose/pthread_shim.hpp"
#include "lockdep/event_ring.hpp"
#include "lockdep/lockdep.hpp"
#include "observe/lockstat.hpp"
#include "response/response.hpp"
#include "shield/held_lock_table.hpp"
#include "shield/shield.hpp"
#include "verify/lockdep_matrix.hpp"

using namespace resilock;
using lockdep::EventKind;
using lockdep::EventRing;
using lockdep::Graph;
using lockdep::LockdepMode;
using lockdep::LockdepModeGuard;
using lockdep::TraceBuffer;
using shield::HeldLockTable;
using shield::ShieldPolicy;

namespace {

lockdep::LockdepStats stats() { return Graph::instance().stats(); }

// The trace buffer is process-global; tests that assert on drained
// events clear leftovers from earlier tests first.
void clear_trace() { TraceBuffer::instance().drain_all(); }

// True while `lock`'s entry in this thread's held record has a lockdep
// part, i.e. would source order edges.
bool sources_edges(const void* lock) {
  const HeldLockTable::Hold* h = HeldLockTable::mine().find(lock);
  return h != nullptr && h->ordered;
}

// Hold windows lockstat recorded for `cls`.
std::uint64_t hold_windows(lockdep::ClassId cls) {
  const observe::ClassStats* s = observe::LockStat::instance().peek(cls);
  return s != nullptr ? s->hold.snapshot().count : 0;
}

}  // namespace

// ---------------------------------------------------------------------
// Mode engine.
// ---------------------------------------------------------------------

TEST(LockdepMode, Names) {
  EXPECT_STREQ(lockdep::to_string(LockdepMode::kOff), "off");
  EXPECT_STREQ(lockdep::to_string(LockdepMode::kReport), "report");
}

TEST(LockdepMode, GuardRestoresOnScopeExit) {
  LockdepModeGuard on(LockdepMode::kReport);
  {
    LockdepModeGuard pin(LockdepMode::kOff);
    EXPECT_EQ(lockdep::lockdep_mode(), LockdepMode::kOff);
    EXPECT_FALSE(lockdep::lockdep_enabled());
  }
  EXPECT_EQ(lockdep::lockdep_mode(), LockdepMode::kReport);
}

// ---------------------------------------------------------------------
// Graph: classes and edges.
// ---------------------------------------------------------------------

TEST(LockdepGraph, RegisterRetireRecycle) {
  auto& g = Graph::instance();
  int x = 0, y = 0;
  const auto live_before = stats().classes_live;
  const lockdep::ClassId a = g.register_class(&x, "A");
  const lockdep::ClassId b = g.register_class(&y, "B");
  ASSERT_TRUE(lockdep::class_tracked(a));
  ASSERT_TRUE(lockdep::class_tracked(b));
  EXPECT_NE(a, b);
  EXPECT_STREQ(g.label_of(a), "A");
  EXPECT_EQ(stats().classes_live, live_before + 2);

  g.ensure_edge(a, b, &y);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_FALSE(g.has_edge(b, a));

  // Retirement clears both the row and the column, so a recycled id
  // starts with no inherited order constraints.
  g.retire_class(a);
  g.retire_class(b);
  EXPECT_EQ(stats().classes_live, live_before);
  const lockdep::ClassId b2 = g.register_class(&y, "B2");
  const lockdep::ClassId a2 = g.register_class(&x, "A2");
  EXPECT_FALSE(g.has_edge(a2, b2));
  EXPECT_FALSE(g.has_edge(b2, a2));
  g.retire_class(a2);
  g.retire_class(b2);
}

TEST(LockdepGraph, EdgeDedupAndSelfEdgeSkip) {
  auto& g = Graph::instance();
  int x = 0, y = 0;
  const auto a = g.register_class(&x, nullptr);
  const auto b = g.register_class(&y, nullptr);
  const auto edges_before = stats().edges;
  g.ensure_edge(a, b, &y);
  g.ensure_edge(a, b, &y);  // duplicate: no new edge
  g.ensure_edge(a, a, &x);  // self edge: skipped
  EXPECT_EQ(stats().edges, edges_before + 1);
  g.retire_class(a);
  g.retire_class(b);
}

TEST(LockdepGraph, TableFullFailsOpen) {
  auto& g = Graph::instance();
  int dummy = 0;
  const auto refused_before = stats().class_table_full;
  // Clamp growth at the currently-mapped capacity, then fill every
  // free slot: the next registration has nowhere to grow to, which is
  // the 4M-slot hard ceiling in miniature.
  lockdep::CapacityLimitGuard clamp(g.capacity());
  std::vector<lockdep::ClassId> ids;
  for (;;) {
    const auto id = g.register_class(&dummy, "filler");
    if (id == lockdep::kUntrackedClass) break;
    ids.push_back(id);
    ASSERT_LE(ids.size(), g.capacity());
  }
  EXPECT_GT(stats().class_table_full, refused_before);
  // Untracked ids are inert everywhere, including the hot-path probe.
  ASSERT_FALSE(ids.empty());
  g.ensure_edge(lockdep::kUntrackedClass, ids.front(), &dummy);
  EXPECT_FALSE(g.has_edge(lockdep::kUntrackedClass, ids.front()));
  EXPECT_FALSE(g.has_edge(ids.front(), lockdep::kInvalidClass));
  g.retire_class(lockdep::kUntrackedClass);
  g.retire_class(lockdep::kInvalidClass);
  for (const auto id : ids) g.retire_class(id);
  // The table works again after retirement: the freed slots sit in
  // epoch limbo until no reader is pinned, then recycle.
  const auto id = g.register_class(&dummy, "post");
  EXPECT_TRUE(lockdep::class_tracked(id));
  g.retire_class(id);
}

// ---------------------------------------------------------------------
// The held record's lockdep part.
// ---------------------------------------------------------------------

TEST(LockdepHeldRecord, LevelEntriesRemoveOutOfOrder) {
  // A fresh thread gets a fresh thread-local record, so this cannot
  // disturb the main thread's (shared with every shield it touches).
  std::thread([] {
    auto& tbl = HeldLockTable::mine();
    int a = 0, b = 0, c = 0;
    EXPECT_EQ(tbl.held_count(), 0u);
    lockdep::on_acquired(&a, 1);
    lockdep::on_acquired(&b, 2);
    lockdep::on_acquired(&c, 3);
    EXPECT_EQ(tbl.held_count(), 3u);
    // Level entries are lockdep-only: depth 0, so the shield's view
    // of the same record says "not held".
    EXPECT_TRUE(sources_edges(&b));
    EXPECT_FALSE(tbl.holds(&b));
    EXPECT_EQ(tbl.depth(&b), 0u);
    // A second grant of a level already recorded keeps the first part.
    lockdep::on_acquired(&b, 7);
    EXPECT_EQ(tbl.find(&b)->cls, 2u);
    lockdep::on_released(&b);  // out-of-LIFO release
    EXPECT_FALSE(sources_edges(&b));
    EXPECT_EQ(tbl.find(&b), nullptr);  // nothing left: entry dropped
    EXPECT_EQ(tbl.held_count(), 2u);
    EXPECT_EQ(tbl.find(&a)->cls, 1u);
    EXPECT_EQ(tbl.find(&c)->cls, 3u);
    lockdep::on_released(&b);  // absent: no-op
    EXPECT_EQ(tbl.held_count(), 2u);
    lockdep::on_released(&a);
    lockdep::on_released(&c);
    EXPECT_EQ(tbl.held_count(), 0u);
    // Untracked classes never enter the record.
    lockdep::on_acquired(&a, lockdep::kUntrackedClass);
    EXPECT_EQ(tbl.held_count(), 0u);
  }).join();
}

TEST(LockdepHeldRecord, ShieldEntryCarriesTheLockdepPart) {
  // One entry per hold: the shield's depth and lockdep's class share
  // it, and the balanced release drops both at once.
  LockdepModeGuard mode(LockdepMode::kReport);
  std::thread([] {
    Shield<TatasLock> s;
    s.acquire();
    const HeldLockTable::Hold* h = HeldLockTable::mine().find(&s);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->depth, 1u);
    EXPECT_TRUE(h->ordered);
    EXPECT_EQ(h->cls, s.lockdep_class());
    EXPECT_EQ(HeldLockTable::mine().held_count(), 1u);
    EXPECT_TRUE(s.release());
    EXPECT_EQ(HeldLockTable::mine().find(&s), nullptr);
    EXPECT_EQ(HeldLockTable::mine().held_count(), 0u);
  }).join();
}

TEST(LockdepHeldRecord, NestPast64RecordsEveryOrder) {
  // The held record is exact at any depth, so every lock of a 70-deep
  // nest sources its edges. A 64-entry held stack would stop tracking
  // (fail-open) past its cap: the orders among the last six locks, and
  // the inversions they close, would go unseen.
  LockdepModeGuard mode(LockdepMode::kReport);
  shield::ShieldPolicyGuard pol(ShieldPolicy::kSuppress);
  constexpr std::size_t kNest = 70;
  std::vector<std::unique_ptr<Shield<TatasLock>>> locks;
  for (std::size_t i = 0; i < kNest; ++i) {
    locks.push_back(std::make_unique<Shield<TatasLock>>());
  }
  for (auto& l : locks) l->acquire();
  for (auto it = locks.rbegin(); it != locks.rend(); ++it) {
    EXPECT_TRUE((*it)->release());
  }
  Graph& g = Graph::instance();
  EXPECT_TRUE(g.has_edge(locks[0]->lockdep_class(),
                         locks[kNest - 1]->lockdep_class()));
  EXPECT_TRUE(g.has_edge(locks[kNest - 2]->lockdep_class(),
                         locks[kNest - 1]->lockdep_class()));
  std::size_t missing = 0;
  for (std::size_t i = 0; i < kNest; ++i) {
    for (std::size_t j = i + 1; j < kNest; ++j) {
      if (!g.has_edge(locks[i]->lockdep_class(),
                      locks[j]->lockdep_class())) {
        ++missing;
      }
    }
  }
  EXPECT_EQ(missing, 0u);
  // Holding the innermost lock, taking the outermost — and the one
  // just outside it — inverts a recorded order each time.
  const auto before = stats().reports();
  locks[kNest - 1]->acquire();
  locks[0]->acquire();
  EXPECT_TRUE(locks[0]->release());
  locks[kNest - 2]->acquire();
  EXPECT_TRUE(locks[kNest - 2]->release());
  EXPECT_TRUE(locks[kNest - 1]->release());
  EXPECT_EQ(stats().reports(), before + 2);
}

// ---------------------------------------------------------------------
// Event ring.
// ---------------------------------------------------------------------

TEST(LockdepEventRing, PushPopWrapAndDrop) {
  EventRing r;
  lockdep::TraceEvent e;
  EXPECT_FALSE(r.pop(e));
  for (std::size_t round = 0; round < 3; ++round) {
    // Partial fill + drain exercises wraparound.
    for (std::size_t i = 0; i < EventRing::kCapacity / 2 + 3; ++i) {
      lockdep::TraceEvent in;
      in.a = static_cast<std::uint16_t>(i);
      EXPECT_TRUE(r.push(in));
    }
    std::size_t n = 0;
    while (r.pop(e)) ++n;
    EXPECT_EQ(n, EventRing::kCapacity / 2 + 3);
  }
  // Overfill: newest events drop, counted.
  for (std::size_t i = 0; i < EventRing::kCapacity + 5; ++i) {
    lockdep::TraceEvent in;
    r.push(in);
  }
  EXPECT_EQ(r.dropped(), 5u);
  std::size_t n = 0;
  while (r.pop(e)) ++n;
  EXPECT_EQ(n, EventRing::kCapacity);
}

TEST(LockdepEventRing, SpscAcrossThreads) {
  EventRing r;
  constexpr std::uint64_t kEvents = 20000;
  std::atomic<bool> done{false};
  std::uint64_t received = 0, last = 0;
  bool ordered = true;
  std::thread consumer([&] {
    lockdep::TraceEvent e;
    auto record = [&] {
      if (e.ns < last) ordered = false;
      last = e.ns;
      ++received;
    };
    for (;;) {
      if (r.pop(e)) {
        record();
        continue;
      }
      if (done.load(std::memory_order_acquire)) {
        while (r.pop(e)) record();  // final drain after the last push
        break;
      }
      std::this_thread::yield();
    }
  });
  std::uint64_t sent = 0;
  for (std::uint64_t i = 1; i <= kEvents; ++i) {
    lockdep::TraceEvent in;
    in.ns = i;
    if (r.push(in)) ++sent;
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(sent + r.dropped(), kEvents);
  EXPECT_EQ(sent, received);
}

TEST(LockdepTraceBuffer, ShieldMisuseArrivesAsEvent) {
  clear_trace();
  Shield<TatasLock> s(ShieldPolicy::kSuppress);
  EXPECT_FALSE(s.release());  // unbalanced unlock
  bool seen = false;
  TraceBuffer::instance().drain([&](const lockdep::TraceEvent& e) {
    if (e.lock == &s && e.kind == EventKind::kUnbalancedUnlock) {
      EXPECT_GT(e.ns, 0u);
      EXPECT_EQ(e.pid, platform::self_pid());
      seen = true;
    }
  });
  EXPECT_TRUE(seen);
}

// ---------------------------------------------------------------------
// Detection semantics through real shields.
// ---------------------------------------------------------------------

TEST(Lockdep, InversionFlaggedOnFirstOccurrenceWithoutWedge) {
  LockdepModeGuard mode(LockdepMode::kReport);
  shield::ShieldPolicyGuard pol(ShieldPolicy::kSuppress);
  clear_trace();
  Shield<TatasLock> a, b;
  const auto before = stats().inversions;
  a.acquire();
  b.acquire();  // edge a→b
  b.release();
  a.release();
  b.acquire();
  a.acquire();  // edge b→a: AB/BA closed — flagged right here, single
  EXPECT_EQ(stats().inversions, before + 1);  // threaded, nothing wedged
  a.release();
  b.release();
  // Same reversed order again: the edge is known, no report spam.
  b.acquire();
  a.acquire();
  a.release();
  b.release();
  EXPECT_EQ(stats().inversions, before + 1);

  // The report was also emitted into the event ring with the two
  // class ids of the cycle.
  bool seen = false;
  TraceBuffer::instance().drain([&](const lockdep::TraceEvent& e) {
    if (e.kind != EventKind::kOrderInversion) return;
    const auto ca = a.lockdep_class();
    const auto cb = b.lockdep_class();
    if ((e.a == ca && e.b == cb) || (e.a == cb && e.b == ca)) seen = true;
  });
  EXPECT_TRUE(seen);
}

TEST(Lockdep, DiningPhilosophersCycleDetectedSequentially) {
  LockdepModeGuard mode(LockdepMode::kReport);
  shield::ShieldPolicyGuard pol(ShieldPolicy::kSuppress);
  constexpr int kPhil = 5;
  Shield<TatasLock> fork[kPhil];
  const auto before = stats().cycles;
  // Each philosopher dines alone, in turn: no two threads, no blocking,
  // yet the last one's left-then-right pickup closes the 5-cycle.
  for (int p = 0; p < kPhil; ++p) {
    fork[p].acquire();
    fork[(p + 1) % kPhil].acquire();
    fork[(p + 1) % kPhil].release();
    fork[p].release();
  }
  EXPECT_EQ(stats().cycles, before + 1);
}

TEST(Lockdep, NoFalsePositiveOnConsistentOrderAcrossLockTypes) {
  // Acceptance gate: consistently ordered nesting across three lock
  // FAMILIES (plain word lock, FIFO counter lock, context queue lock)
  // must never report, from any number of threads.
  LockdepModeGuard mode(LockdepMode::kReport);
  shield::ShieldPolicyGuard pol(ShieldPolicy::kSuppress);
  Shield<TatasLock> outer;
  Shield<TicketLock> middle;
  Shield<McsLock> inner;
  const auto before = stats().reports();
  std::vector<std::thread> team;
  for (int t = 0; t < 3; ++t) {
    team.emplace_back([&] {
      Shield<McsLock>::Context ctx;
      for (int i = 0; i < 200; ++i) {
        outer.acquire();
        middle.acquire();
        inner.acquire(ctx);
        inner.release(ctx);
        middle.release();
        outer.release();
      }
    });
  }
  for (auto& t : team) t.join();
  EXPECT_EQ(stats().reports(), before);
}

TEST(Lockdep, HeterogeneousCycleAcrossLockTypesIsFlagged) {
  // The graph is lock-agnostic: a cycle spanning three different
  // protocols is still a cycle.
  LockdepModeGuard mode(LockdepMode::kReport);
  shield::ShieldPolicyGuard pol(ShieldPolicy::kSuppress);
  Shield<TatasLock> a;
  Shield<TicketLock> b;
  Shield<McsLock> c;
  Shield<McsLock>::Context ctx;
  const auto before = stats().cycles;
  a.acquire();
  b.acquire();
  b.release();
  a.release();
  b.acquire();
  c.acquire(ctx);
  c.release(ctx);
  b.release();
  c.acquire(ctx);
  a.acquire();  // closes a→b→c→a
  EXPECT_EQ(stats().cycles, before + 1);
  a.release();
  c.release(ctx);
}

TEST(Lockdep, TrylockAddsNoEdgesButJoinsHeldSet) {
  LockdepModeGuard mode(LockdepMode::kReport);
  shield::ShieldPolicyGuard pol(ShieldPolicy::kSuppress);
  const auto before = stats().reports();
  {
    // held-while-TRYlocking records no order: a trylock cannot wedge.
    Shield<TatasLock> a, b;
    a.acquire();
    EXPECT_TRUE(b.try_acquire());  // no edge a→b
    b.release();
    a.release();
    b.acquire();
    a.acquire();  // b→a is new but closes nothing
    a.release();
    b.release();
    EXPECT_EQ(stats().reports(), before);
  }
  {
    // ...but a TRY-acquired lock is genuinely held: blocking acquires
    // under it must record edges.
    Shield<TatasLock> x, y;
    EXPECT_TRUE(x.try_acquire());
    y.acquire();  // edge x→y
    y.release();
    x.release();
    y.acquire();
    x.acquire();  // closes x/y inversion
    x.release();
    y.release();
    EXPECT_EQ(stats().reports(), before + 1);
  }
}

TEST(Lockdep, ClassRetiredOnShieldDestruction) {
  LockdepModeGuard mode(LockdepMode::kReport);
  const auto live_before = stats().classes_live;
  {
    Shield<TatasLock> s;
    s.acquire();  // lazily registers the class
    EXPECT_TRUE(lockdep::class_tracked(s.lockdep_class()));
    EXPECT_EQ(stats().classes_live, live_before + 1);
    s.release();
  }
  EXPECT_EQ(stats().classes_live, live_before);
}

TEST(Lockdep, OffModeTracksNothing) {
  LockdepModeGuard mode(LockdepMode::kOff);
  shield::ShieldPolicyGuard pol(ShieldPolicy::kSuppress);
  Shield<TatasLock> a, b;
  const auto before = stats();
  a.acquire();
  b.acquire();
  b.release();
  a.release();
  b.acquire();
  a.acquire();
  a.release();
  b.release();
  EXPECT_EQ(stats().reports(), before.reports());
  EXPECT_EQ(stats().classes_registered, before.classes_registered);
  EXPECT_EQ(a.lockdep_class(), lockdep::kInvalidClass);  // never touched
}

TEST(Lockdep, EscapeHatchHandoffLeavesRecordClean) {
  // §5 hand-off, seen from the original holder: a cross-thread release
  // with checks off ends its hold behind its back. Its record entry
  // must then source no order edge (the next walk clears the lockdep
  // part), keep no lockstat window (the open window is dropped, never
  // recorded as a hold), and self-heal on the thread's next acquire or
  // release of the lock — no accumulation, and held_depth() reads 0
  // afterwards.
  LockdepModeGuard mode(LockdepMode::kReport);
  shield::ShieldPolicyGuard pol(ShieldPolicy::kSuppress);
  observe::LockstatGuard lockstat(true);
  observe::LockstatSampleGuard every_hold(1);
  auto& tbl = HeldLockTable::mine();
  for (const bool heal_by_acquire : {true, false}) {
    SCOPED_TRACE(heal_by_acquire ? "heal by acquire" : "heal by release");
    const auto count_before = tbl.held_count();
    Shield<TatasLock> a;
    Shield<TatasLock> b;
    a.acquire();
    const HeldLockTable::Hold* h = tbl.find(&a);
    ASSERT_NE(h, nullptr);
    EXPECT_TRUE(h->ordered);
    EXPECT_NE(h->hold_begin_ns, 0u);
    {
      MisuseCheckGuard off(false);
      std::thread([&] { EXPECT_TRUE(a.release()); }).join();
    }
    EXPECT_EQ(a.held_depth(), 1u);  // stale until the shield heals it
    b.acquire();  // the walk clears the stale entry's lockdep part only
    EXPECT_FALSE(sources_edges(&a));
    EXPECT_EQ(a.held_depth(), 1u);
    EXPECT_FALSE(
        Graph::instance().has_edge(a.lockdep_class(), b.lockdep_class()));
    EXPECT_TRUE(b.release());
    EXPECT_EQ(tbl.held_count(), count_before + 1);  // stale
    const std::uint64_t windows = hold_windows(a.lockdep_class());
    if (heal_by_acquire) {
      a.acquire();  // heals: stale entry dropped, fresh entry recorded
      EXPECT_EQ(tbl.held_count(), count_before + 1);
      EXPECT_EQ(a.held_depth(), 1u);
      EXPECT_TRUE(sources_edges(&a));
      EXPECT_TRUE(a.release());
      EXPECT_EQ(hold_windows(a.lockdep_class()), windows + 1);  // new hold
    } else {
      // Heals, then refuses: the thread no longer holds the lock.
      EXPECT_FALSE(a.release());
      EXPECT_EQ(hold_windows(a.lockdep_class()), windows);
    }
    EXPECT_EQ(a.held_depth(), 0u);
    EXPECT_EQ(tbl.find(&a), nullptr);
    EXPECT_EQ(tbl.held_count(), count_before);
  }
}

TEST(Lockdep, HandoffStaleEntryFeedsNoBogusEdges) {
  // After a §5 hand-off the acquirer's record entry is stale even though
  // it never reacquires the lock. The entry must not source order
  // edges: without validation, a.acquire-handoff + b.acquire would
  // record a→b here, and the legitimate b-then-a sequence below would
  // be reported as an inversion this thread never created (a spurious
  // abort under RESILOCK_POLICY=lockdep=abort).
  LockdepModeGuard mode(LockdepMode::kReport);
  shield::ShieldPolicyGuard pol(ShieldPolicy::kSuppress);
  Shield<TatasLock> a;
  Shield<TatasLock> b;
  const auto before = stats().reports();
  a.acquire();
  {
    MisuseCheckGuard off(false);
    std::thread t([&] { EXPECT_TRUE(a.release()); });  // sanctioned
    t.join();
  }
  b.acquire();  // stale `a` entry is cleared, NOT recorded as a→b
  EXPECT_FALSE(sources_edges(&a));
  b.release();
  b.acquire();
  a.acquire();  // legitimate first b-then-a order: nothing to invert
  a.release();
  b.release();
  EXPECT_EQ(stats().reports(), before);
}

TEST(Lockdep, ForwardedNonOwnerUnlockRetiresHoldersEntry) {
  // A pinned-passthrough shield forwards another thread's non-owner
  // unlock to the base, which ends this thread's hold behind its back.
  // The hand-off epoch moves, so this thread's next nested acquire
  // clears the stale entry's lockdep part instead of recording an order
  // from a lock it no longer holds. The shield's part stays: the owner
  // tag still names this thread.
  LockdepModeGuard mode(LockdepMode::kReport);
  Shield<TatasLock> l1(ShieldPolicy::kPassThrough);
  Shield<TatasLock> l2;
  l1.acquire();
  std::thread t([&] { EXPECT_TRUE(l1.release()); });  // forwarded
  t.join();
  EXPECT_FALSE(l1.base().is_locked());
  l2.acquire();
  EXPECT_FALSE(sources_edges(&l1));
  EXPECT_EQ(l1.held_depth(), 1u);
  EXPECT_FALSE(
      Graph::instance().has_edge(l1.lockdep_class(), l2.lockdep_class()));
  EXPECT_TRUE(l2.release());
  l1.release();  // drops this thread's own table entry
  EXPECT_EQ(l1.held_depth(), 0u);
}

TEST(Lockdep, ChurnOnOtherLocksKeepsHeldEntryValid) {
  // The hand-off epoch is per class: other threads nesting other locks,
  // and even a forwarded non-owner unlock of another lock, leave this
  // thread's entry for l1 valid, so l1 -> l2 is still recorded.
  LockdepModeGuard mode(LockdepMode::kReport);
  Shield<TatasLock> l1, l2, x, y;
  Shield<TatasLock> z(ShieldPolicy::kPassThrough);
  l1.acquire();
  std::vector<std::thread> churn;
  for (int tid = 0; tid < 3; ++tid) {
    churn.emplace_back([&, tid] {
      for (int i = 0; i < 2000; ++i) {
        x.acquire();
        y.acquire();
        EXPECT_TRUE(y.release());
        EXPECT_TRUE(x.release());
      }
      if (tid == 0) {
        z.acquire();
        std::thread([&] { EXPECT_TRUE(z.release()); }).join();
      }
    });
  }
  for (auto& t : churn) t.join();
  l2.acquire();
  EXPECT_TRUE(sources_edges(&l1));
  EXPECT_TRUE(
      Graph::instance().has_edge(l1.lockdep_class(), l2.lockdep_class()));
  EXPECT_TRUE(l2.release());
  EXPECT_TRUE(l1.release());
}

TEST(LockdepDeathTest, AbortRuleDiesBeforeTheWedge) {
  EXPECT_DEATH(
      {
        response::ResponseRulesGuard rules("lockdep=abort");
        shield::set_default_shield_policy(ShieldPolicy::kSuppress);
        Shield<TatasLock> a;
        Shield<TatasLock> b;
        a.acquire();
        b.acquire();
        b.release();
        a.release();
        b.acquire();
        a.acquire();  // aborts here — both locks are FREE, nothing
                      // has wedged yet
      },
      "lock-order inversion");
}

// ---------------------------------------------------------------------
// Interposition: lockdep for free through the preload's mutex.
// ---------------------------------------------------------------------

TEST(Lockdep, InterposedMutexGetsDetectionForFree) {
  LockdepModeGuard mode(LockdepMode::kReport);
  shield::ShieldPolicyGuard pol(ShieldPolicy::kSuppress);
  interpose::rl_mutex_t a, b;  // shield<MCS>, as the preload builds it
  ASSERT_EQ(interpose::rl_mutex_init(&a, nullptr, 1), 0);
  ASSERT_EQ(interpose::rl_mutex_init(&b, nullptr, 1), 0);
  const auto before = stats().inversions;
  EXPECT_EQ(interpose::rl_mutex_lock(&a), 0);
  EXPECT_EQ(interpose::rl_mutex_lock(&b), 0);
  EXPECT_EQ(interpose::rl_mutex_unlock(&b), 0);
  EXPECT_EQ(interpose::rl_mutex_unlock(&a), 0);
  EXPECT_EQ(interpose::rl_mutex_lock(&b), 0);
  EXPECT_EQ(interpose::rl_mutex_lock(&a), 0);
  EXPECT_EQ(stats().inversions, before + 1);
  EXPECT_EQ(interpose::rl_mutex_unlock(&a), 0);
  EXPECT_EQ(interpose::rl_mutex_unlock(&b), 0);
  EXPECT_EQ(interpose::rl_mutex_destroy(&a), 0);
  EXPECT_EQ(interpose::rl_mutex_destroy(&b), 0);
}

// ---------------------------------------------------------------------
// Verify-layer scenario matrix.
// ---------------------------------------------------------------------

TEST(LockdepMatrix, AllScenariosPassForTasTicketMcs) {
  const auto rows = verify::run_lockdep_matrix();
  verify::print_lockdep_matrix(rows);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& r : rows) {
    EXPECT_TRUE(r.ordered_clean) << r.lock;
    EXPECT_TRUE(r.inversion_flagged) << r.lock;
    EXPECT_TRUE(r.inversion_once) << r.lock;
    EXPECT_TRUE(r.cycle_flagged) << r.lock;
    if (r.wedge_applicable) {
      EXPECT_TRUE(r.wedge_forewarned) << r.lock;
      EXPECT_TRUE(r.probes_joined) << r.lock;
    }
    EXPECT_TRUE(r.all_pass()) << r.lock;
  }
  // TAS and Ticket have rescue tooling; the wedge scenario must have
  // actually run somewhere.
  EXPECT_TRUE(rows[0].wedge_applicable);
  EXPECT_TRUE(rows[1].wedge_applicable);
}
