#include "verify/misuse_matrix.hpp"

#include <atomic>
#include <cstdio>
#include <memory>

#include "core/hbo.hpp"
#include "core/hclh.hpp"
#include "core/lock_registry.hpp"
#include "core/rw/crw.hpp"
#include "core/sw/bakery.hpp"
#include "core/sw/fischer.hpp"
#include "core/sw/lamport_fast.hpp"
#include "core/sw/peterson.hpp"
#include "platform/thread_registry.hpp"
#include "response/response.hpp"
#include "shield/policy.hpp"
#include "verify/access.hpp"
#include "verify/checkers.hpp"

namespace resilock::verify {
namespace {

using platform::self_pid;

// Scenario outcome for one flavor.
struct FlavorOutcome {
  bool violated = false;
  bool tm_starved = false;
  bool others_starved = false;
  bool detected = false;
  bool functional_after = false;
};

// ---------------------------------------------------------------------
// Generic script for plain locks whose misuse can only admit an extra
// thread (TAS family, HBO, Fischer, Lamport): T1 holds; Tm (this thread)
// misuses release(); T2 tries to enter. Original: T2 gets in (violation).
// Resilient: the misuse is refused and T2 stays out until T1 leaves.
// ---------------------------------------------------------------------
template <typename Lock>
FlavorOutcome plain_violation_script(Lock& lock) {
  FlavorOutcome out;
  MutexChecker chk;
  std::atomic<bool> t1_out{false};
  Probe t1([&] {
    lock.acquire();
    chk.enter();
    wait_for([&] { return t1_out.load(); }, milliseconds{5000});
    chk.exit();
    lock.release();
  });
  wait_for([&] { return chk.current() == 1; }, milliseconds{2000});

  out.detected = !lock.release();  // the unbalanced unlock

  Probe t2([&] {
    lock.acquire();
    chk.enter();
    chk.exit();
    lock.release();
  });
  out.violated = wait_for([&] { return chk.max_simultaneous() >= 2; });
  t1_out.store(true);
  t1.join();
  t2.join();

  // Only the resilient flavor is expected to stay functional (an
  // original ticket lock, e.g., has skipped tickets at this point and a
  // fresh acquire would never return).
  if constexpr (Lock::resilience() == kResilient) {
    lock.acquire();
    out.functional_after = lock.release();
  }
  return out;
}

MisuseReport make_report(const char* name, const FlavorOutcome& orig,
                         const FlavorOutcome& res, bool pv, bool pt, bool po,
                         bool pd, const char* remedy) {
  MisuseReport r;
  r.lock = name;
  r.violates_mutex = orig.violated;
  r.tm_starves = orig.tm_starved;
  r.others_starve = orig.others_starved;
  r.detected = res.detected;
  r.prevented = !res.violated && !res.tm_starved && !res.others_starved &&
                res.functional_after;
  r.paper_violates = pv;
  r.paper_tm = pt;
  r.paper_others = po;
  r.paper_detectable = pd;
  r.remedy = remedy;
  return r;
}

// ---------------------------------------------------------------------
// TAS (§3.1)
// ---------------------------------------------------------------------
template <Resilience R>
FlavorOutcome run_tas() {
  BasicTasLock<R, TasVariant::kTatas> lock;
  return plain_violation_script(lock);
}

// ---------------------------------------------------------------------
// Ticket (§3.2): violation + permanent skip of issued tickets.
// ---------------------------------------------------------------------
template <Resilience R>
FlavorOutcome run_ticket() {
  BasicTicketLock<R> lock;
  FlavorOutcome out = plain_violation_script(lock);
  if constexpr (R == kOriginal) {
    // plain_violation_script's functional check re-acquired once; after
    // the violation nowServing has leapt past nextTicket, so reproduce
    // the starvation from a clean slate.
    BasicTicketLock<R> l2;
    MutexChecker chk;
    std::atomic<bool> t1_out{false};
    Probe t1([&] {
      l2.acquire();
      chk.enter();
      wait_for([&] { return t1_out.load(); }, milliseconds{5000});
      chk.exit();
      l2.release();
    });
    wait_for([&] { return chk.current() == 1; }, milliseconds{2000});
    l2.release();  // misuse: nowServing leaps ahead
    Probe t2([&] { l2.acquire(); l2.release(); });
    wait_for([&] { return t2.done(); });
    t1_out.store(true);
    t1.join();
    // After T1 and T2, nowServing > nextTicket: the next ticket holder
    // is skipped forever.
    Probe t3([&] {
      l2.acquire();
      l2.release();
    });
    out.others_starved = !t3.finished_within();
    if (out.others_starved) {
      // Rescue: realign nowServing with the oldest pending ticket.
      VerifyAccess::ticket_force_serving(
          l2, VerifyAccess::ticket_next(l2) - 1);
    }
    t3.join();
    // The misbehaving thread itself did not starve (it is this thread).
    out.tm_starved = false;
    // The generic functional check above already passed before the lock
    // state diverged; after the leap the lock is NOT functional — record
    // that by reporting others_starved (Table 1's "starves others").
  }
  return out;
}

// ---------------------------------------------------------------------
// Anderson ABQL (§3.3.1): uninitialized myPlace wakes a waiting slot.
// ---------------------------------------------------------------------
template <Resilience R>
FlavorOutcome run_abql() {
  BasicAndersonLock<R> lock(8);
  FlavorOutcome out;
  MutexChecker chk;
  typename BasicAndersonLock<R>::Place p1;
  std::atomic<bool> t1_out{false};
  Probe t1([&] {
    lock.acquire(p1);
    chk.enter();
    wait_for([&] { return t1_out.load(); }, milliseconds{5000});
    chk.exit();
    lock.release(p1);
  });
  wait_for([&] { return chk.current() == 1; }, milliseconds{2000});

  typename BasicAndersonLock<R>::Place rogue;  // never acquired
  out.detected = !lock.release(rogue);  // misuse: releases slot 1

  typename BasicAndersonLock<R>::Place p2;
  Probe t2([&] {
    lock.acquire(p2);
    chk.enter();
    chk.exit();
    lock.release(p2);
  });
  out.violated = wait_for([&] { return chk.max_simultaneous() >= 2; });
  t1_out.store(true);
  t1.join();
  t2.join();

  typename BasicAndersonLock<R>::Place p3;
  lock.acquire(p3);
  out.functional_after = lock.release(p3);
  return out;
}

// ---------------------------------------------------------------------
// Graunke–Thakkar (§3.3.2): the double toggle makes a successor miss the
// flip and wait forever; mutual exclusion is never violated.
// ---------------------------------------------------------------------
template <Resilience R>
FlavorOutcome run_gt() {
  BasicGraunkeThakkarLock<R> lock(64);
  FlavorOutcome out;
  const std::uint32_t my_pid = self_pid();

  lock.acquire();
  lock.release();                   // legitimate round: slot toggled
  out.detected = !lock.release();   // misuse: toggles the slot back

  MutexChecker chk;
  Probe t2([&] {
    lock.acquire();
    chk.enter();
    chk.exit();
    lock.release();
  });
  // Original: T2's tail snapshot says "wait until my slot differs from
  // its pre-toggle value" — which the double toggle restored.
  out.others_starved = !t2.finished_within();
  out.violated = chk.max_simultaneous() > 1;
  if (out.others_starved) {
    VerifyAccess::gt_toggle_slot(lock, my_pid);  // rescue the waiter
  }
  t2.join();
  out.functional_after = !out.others_starved || R == kOriginal;
  if constexpr (R == kResilient) {
    lock.acquire();
    out.functional_after = lock.release();
  }
  return out;
}

// ---------------------------------------------------------------------
// MCS (§3.4): case 1 (Tm spins forever on a successor-less node) and
// case 3 (stale I.next releases a re-enqueued waiter: violation).
// ---------------------------------------------------------------------
template <Resilience R>
FlavorOutcome run_mcs() {
  using Lock = BasicMcsLock<R>;
  using QNode = typename Lock::QNode;
  FlavorOutcome out;

  {  // --- case 1: Tm starvation ---
    Lock lock;
    QNode fresh, dummy;
    Probe tm([&] { lock.release(fresh); });
    out.tm_starved = !tm.finished_within();
    if (out.tm_starved) {
      VerifyAccess::mcs_link_successor<R>(fresh, dummy);  // rescue
    } else if constexpr (R == kResilient) {
      out.detected = true;  // returned promptly because it refused
    }
    tm.join();
  }

  {  // --- case 3: stale-next violation ---
    Lock lock;
    QNode a, b, d;
    MutexChecker chk;

    // Episode 1: leave a.next pointing at b.
    std::atomic<bool> t2_out{false};
    lock.acquire(a);
    Probe t2([&] {
      lock.acquire(b);
      chk.enter();
      wait_for([&] { return t2_out.load(); }, milliseconds{5000});
      chk.exit();
      lock.release(b);
    });
    wait_for([&] { return VerifyAccess::mcs_tail(lock) == &b; },
             milliseconds{2000});
    lock.release(a);  // grants b; original leaves a.next == &b
    t2_out.store(true);
    t2.join();

    // Episode 2: T3 holds via d; b is re-enqueued and spinning.
    std::atomic<bool> t3_out{false}, t2b_out{false};
    Probe t3([&] {
      lock.acquire(d);
      chk.enter();
      wait_for([&] { return t3_out.load(); }, milliseconds{5000});
      chk.exit();
      lock.release(d);
    });
    wait_for([&] { return chk.current() == 1; }, milliseconds{2000});
    Probe t2b([&] {
      lock.acquire(b);
      chk.enter();
      wait_for([&] { return t2b_out.load(); }, milliseconds{5000});
      chk.exit();
      lock.release(b);
    });
    wait_for([&] { return VerifyAccess::mcs_tail(lock) == &b; },
             milliseconds{2000});

    const bool detected = !lock.release(a);  // MISUSE with stale next
    out.detected = out.detected || detected;
    out.violated = wait_for([&] { return chk.max_simultaneous() >= 2; });
    t3_out.store(true);
    t2b_out.store(true);
    t3.join();
    t2b.join();

    QNode f;
    lock.acquire(f);
    out.functional_after = lock.release(f);
  }
  return out;
}

// ---------------------------------------------------------------------
// CLH (§3.5, Figure 8): a misused release adopts a node another context
// still owns; double-enqueueing that node releases two waiters at once.
// ---------------------------------------------------------------------
template <Resilience R>
FlavorOutcome run_clh() {
  using Lock = BasicClhLock<R>;
  using Context = typename Lock::Context;
  FlavorOutcome out;

  Lock lock;
  auto c1 = std::make_unique<Context>();
  auto cm = std::make_unique<Context>();
  auto cx = std::make_unique<Context>();
  auto cy = std::make_unique<Context>();
  MutexChecker chk;

  // Episode 1 (Figure 8a): T1 then Tm lock/unlock cleanly; ownership of
  // T1's node migrates to Tm's context.
  Probe t1([&] {
    lock.acquire(*c1);
    lock.release(*c1);
  });
  t1.join();
  lock.acquire(*cm);
  lock.release(*cm);

  // The misuse: Tm releases again. Original: Tm's context adopts a node
  // that c1 also owns (aliasing). Resilient: refused (prev is null).
  out.detected = !lock.release(*cm);

  // Episode 2 (Figure 8b): both owners of the shared node re-enqueue it.
  std::atomic<bool> t2_in{false}, t2_out{false};
  Probe t2([&] {
    lock.acquire(*c1);
    chk.enter();
    t2_in.store(true);
    wait_for([&] { return t2_out.load(); }, milliseconds{5000});
    chk.exit();
    lock.release(*c1);
  });
  wait_for([&] { return t2_in.load(); }, milliseconds{2000});

  // tx/ty dwell inside the CS until they see a peer (or a short timeout)
  // so that the simultaneous wake-up is observable as overlap.
  auto dwell_cs = [&chk, &lock](typename Lock::Context& c) {
    lock.acquire(c);
    chk.enter();
    wait_for([&] { return chk.current() >= 2; }, milliseconds{300});
    chk.exit();
    lock.release(c);
  };

  Probe tx([&] { dwell_cs(*cx); });
  wait_for([&] {
    return VerifyAccess::clh_tail(lock) == VerifyAccess::clh_node<R>(*cx);
  }, milliseconds{2000});

  Probe tm2([&] { dwell_cs(*cm); });  // original: re-enqueues aliased node
  wait_for([&] {
    return VerifyAccess::clh_tail(lock) == VerifyAccess::clh_node<R>(*cm);
  }, milliseconds{2000});

  Probe ty([&] { dwell_cs(*cy); });
  wait_for([&] {
    return VerifyAccess::clh_tail(lock) == VerifyAccess::clh_node<R>(*cy);
  }, milliseconds{2000});

  // T2's release clears succ_must_wait on the doubly-enqueued node:
  // with the original protocol both tx and ty wake simultaneously.
  t2_out.store(true);
  out.violated = wait_for([&] { return chk.max_simultaneous() >= 2; });

  // Rescue anything still waiting (the aliased queue can strand nodes).
  // The window must cover three back-to-back CS dwells of the clean
  // (resilient) run.
  if (!wait_for([&] { return tx.done() && ty.done() && tm2.done(); },
                milliseconds{2500})) {
    out.others_starved = true;
    VerifyAccess::clh_force_release<R>(lock, VerifyAccess::clh_node<R>(*cx));
    VerifyAccess::clh_force_release<R>(lock, VerifyAccess::clh_node<R>(*cm));
    VerifyAccess::clh_force_release<R>(lock, VerifyAccess::clh_node<R>(*cy));
    VerifyAccess::clh_force_release<R>(lock, VerifyAccess::clh_node<R>(*c1));
  }
  t2.join();
  tx.join();
  tm2.join();
  ty.join();

  if constexpr (R == kResilient) {
    typename Lock::Context cf;
    lock.acquire(cf);
    out.functional_after = lock.release(cf);
  }

  if constexpr (R == kOriginal) {
    // §3.5 "Starvation": when both owners of the aliased node race —
    // one releasing (flag := false) while the other re-enqueues it
    // (flag := true) — a waiter can miss the hand-off and spin forever.
    // The interleaving is racy; retry bounded attempts on fresh locks.
    for (int attempt = 0; attempt < 30 && !out.others_starved; ++attempt) {
      Lock l2;
      auto a1 = std::make_unique<Context>();
      auto am = std::make_unique<Context>();
      auto ax = std::make_unique<Context>();
      // Build the alias: a1 and am end up owning the same node.
      l2.acquire(*a1);
      l2.release(*a1);
      l2.acquire(*am);
      l2.release(*am);
      l2.release(*am);  // misuse

      std::atomic<bool> holder_go{false};
      std::atomic<int> ready{0};
      Probe holder([&] {
        l2.acquire(*a1);  // enqueues the shared node; holds the lock
        ready.fetch_add(1);
        wait_for([&] { return holder_go.load(); }, milliseconds{2000});
        l2.release(*a1);  // races with tm's re-enqueue of the same node
      });
      wait_for([&] { return ready.load() == 1; }, milliseconds{2000});
      Probe waiter([&] {
        l2.acquire(*ax);  // spins on the shared node
        l2.release(*ax);
      });
      // No direct way to observe "spinning"; give it a moment to enqueue.
      wait_for([&] { return false; }, milliseconds{20});
      Probe tm([&] {
        wait_for([&] { return holder_go.load(); }, milliseconds{2000});
        l2.acquire(*am);  // re-sets succ_must_wait on the shared node
        l2.release(*am);
      });
      holder_go.store(true);  // fire both sides of the race
      if (!wait_for([&] { return waiter.done(); }, milliseconds{250})) {
        out.others_starved = true;  // waiter missed the flip
        // Rescue every node either context might be spinning on.
        VerifyAccess::clh_force_release<R>(l2, VerifyAccess::clh_node<R>(*a1));
        VerifyAccess::clh_force_release<R>(l2, VerifyAccess::clh_node<R>(*am));
        VerifyAccess::clh_force_release<R>(l2, VerifyAccess::clh_node<R>(*ax));
        wait_for([&] { return waiter.done() && tm.done(); },
                 milliseconds{500});
        // Repeat rescues until everyone is out (aliasing can re-arm).
        for (int i = 0; i < 50 && !(waiter.done() && tm.done() &&
                                    holder.done()); ++i) {
          VerifyAccess::clh_force_release<R>(l2, VerifyAccess::clh_node<R>(*a1));
          VerifyAccess::clh_force_release<R>(l2, VerifyAccess::clh_node<R>(*am));
          VerifyAccess::clh_force_release<R>(l2, VerifyAccess::clh_node<R>(*ax));
          wait_for([&] { return false; }, milliseconds{10});
        }
      }
      holder.join();
      waiter.join();
      tm.join();
      // De-alias before the contexts and lock are destroyed.
      VerifyAccess::clh_node<R>(*a1) = new typename Lock::QNode;
      VerifyAccess::clh_node<R>(*am) = new typename Lock::QNode;
      VerifyAccess::clh_node<R>(*ax) = new typename Lock::QNode;
    }
  }

  // De-alias contexts before destruction: after a misuse several
  // contexts can own the same node, and each destructor frees its node.
  // Hand every context a fresh node and deliberately leak the tangled
  // ones (bounded: a handful of nodes, once, in an experiment that ends
  // with the lock destroyed). The lock's own tail node is distinct from
  // the fresh nodes, so its destructor stays safe.
  if constexpr (R == kOriginal) {
    VerifyAccess::clh_node<R>(*c1) = new typename Lock::QNode;
    VerifyAccess::clh_node<R>(*cm) = new typename Lock::QNode;
    VerifyAccess::clh_node<R>(*cx) = new typename Lock::QNode;
    VerifyAccess::clh_node<R>(*cy) = new typename Lock::QNode;
  }
  return out;
}

// ---------------------------------------------------------------------
// MCS-K42 (§3.6): misuse while held-no-waiters frees the lock under the
// holder (violation) and the holder's own release then spins forever.
// ---------------------------------------------------------------------
template <Resilience R>
FlavorOutcome run_mcs_k42() {
  using Lock = BasicMcsK42Lock<R>;
  FlavorOutcome out;

  {  // --- Tm starvation: misuse on a free lock ---
    Lock lock;
    typename VerifyAccess::K42Node<R> dummy;
    Probe tm([&] { lock.release(); });
    out.tm_starved = !tm.finished_within();
    if (out.tm_starved) VerifyAccess::k42_publish_head(lock, dummy);
    tm.join();
  }

  {  // --- violation + any-thread starvation ---
    Lock lock;
    MutexChecker chk;
    std::atomic<bool> t1_out{false};
    Probe t1([&] {
      lock.acquire();
      chk.enter();
      wait_for([&] { return t1_out.load(); }, milliseconds{5000});
      chk.exit();
      lock.release();  // original: spins forever after the misuse below
    });
    wait_for([&] { return chk.current() == 1; }, milliseconds{2000});

    const bool detected = !lock.release();  // misuse: lock appears free
    out.detected = detected;

    Probe t2([&] {
      lock.acquire();
      chk.enter();
      chk.exit();
      lock.release();
    });
    out.violated = wait_for([&] { return chk.max_simultaneous() >= 2; });
    wait_for([&] { return t2.done(); });
    t1_out.store(true);

    typename VerifyAccess::K42Node<R> dummy;
    if (!t1.finished_within()) {
      out.others_starved = true;  // the legitimate holder starved
      VerifyAccess::k42_publish_head(lock, dummy);
    }
    t1.join();
    t2.join();
    if constexpr (R == kResilient) {
      lock.acquire();
      out.functional_after = lock.release();
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Hemlock (§3.7): the misbehaving thread starves itself; lock state and
// all other threads are untouched.
// ---------------------------------------------------------------------
template <Resilience R>
FlavorOutcome run_hemlock() {
  BasicHemlock<R> lock;
  FlavorOutcome out;
  MutexChecker chk;
  std::atomic<bool> t1_out{false};
  Probe t1([&] {
    lock.acquire();
    chk.enter();
    wait_for([&] { return t1_out.load(); }, milliseconds{5000});
    chk.exit();
    lock.release();
  });
  wait_for([&] { return chk.current() == 1; }, milliseconds{2000});

  std::atomic<std::atomic<void*>*> tm_cell{nullptr};
  std::atomic<bool> tm_detected{false};
  Probe tm([&] {
    tm_cell.store(VerifyAccess::hemlock_cell_of_current_thread());
    tm_detected.store(!lock.release());  // the misuse
  });
  out.tm_starved = !tm.finished_within();
  if (out.tm_starved) {
    tm_cell.load()->store(nullptr, std::memory_order_release);  // rescue
  }
  tm.join();
  out.detected = tm_detected.load();

  // Other threads unaffected: T2 enters once T1 leaves; never before.
  Probe t2([&] {
    lock.acquire();
    chk.enter();
    chk.exit();
    lock.release();
  });
  out.violated = wait_for([&] { return chk.max_simultaneous() >= 2; },
                          milliseconds{200});
  t1_out.store(true);
  t1.join();
  t2.join();
  lock.acquire();
  out.functional_after = lock.release() && !out.violated;
  return out;
}

// ---------------------------------------------------------------------
// HMCS (§3.8.1): MCS's stale-next violation reproduced at the leaf, and
// Tm starvation walking up the tree.
// ---------------------------------------------------------------------
template <Resilience R>
FlavorOutcome run_hmcs() {
  using Lock = BasicHmcsLock<R>;
  using Context = typename Lock::Context;
  static const platform::Topology topo = platform::Topology::uniform(1, 64);
  FlavorOutcome out;

  {  // --- Tm starvation on a fresh lock ---
    Lock lock(topo);
    Context fresh;
    typename Lock::QNode dummy1, dummy2;
    Probe tm([&] { lock.release(fresh); });
    out.tm_starved = !tm.finished_within();
    if (out.tm_starved) {
      // Two spin points: the root-level release, then the leaf release.
      VerifyAccess::hmcs_leaf_node(lock, 0).next.store(
          &dummy1, std::memory_order_release);
      wait_for([&] { return tm.done(); }, milliseconds{200});
      VerifyAccess::hmcs_ctx_node<R>(fresh).next.store(
          &dummy2, std::memory_order_release);
    }
    tm.join();
  }

  {  // --- stale-next violation at the leaf ---
    Lock lock(topo);
    Context cm, c2, ca;
    MutexChecker chk;

    // Episode 1: Tm holds, T2 queues behind, handoff leaves
    // cm.node.next == &c2.node.
    lock.acquire(cm);
    std::atomic<bool> t2_out{false};
    Probe t2a([&] {
      lock.acquire(c2);
      chk.enter();
      wait_for([&] { return t2_out.load(); }, milliseconds{5000});
      chk.exit();
      lock.release(c2);
    });
    wait_for([&] {
      return VerifyAccess::hmcs_ctx_node<R>(cm).next.load(
                 std::memory_order_acquire) != nullptr;
    }, milliseconds{2000});
    lock.release(cm);  // passes within cohort
    t2_out.store(true);
    t2a.join();

    // Episode 2: Ta holds; T2 re-enqueues the same context and waits.
    std::atomic<bool> ta_out{false}, t2b_out{false};
    Probe ta([&] {
      lock.acquire(ca);
      chk.enter();
      wait_for([&] { return ta_out.load(); }, milliseconds{5000});
      chk.exit();
      lock.release(ca);
    });
    wait_for([&] { return chk.current() == 1; }, milliseconds{2000});
    Probe t2b([&] {
      lock.acquire(c2);
      chk.enter();
      wait_for([&] { return t2b_out.load(); }, milliseconds{5000});
      chk.exit();
      lock.release(c2);
    });
    wait_for([&] {
      return VerifyAccess::hmcs_ctx_node<R>(ca).next.load(
                 std::memory_order_acquire) != nullptr;
    }, milliseconds{2000});

    out.detected = !lock.release(cm);  // MISUSE: stale next at the leaf
    out.violated = wait_for([&] { return chk.max_simultaneous() >= 2; });
    ta_out.store(true);
    t2b_out.store(true);
    ta.join();
    t2b.join();

    Context cf;
    lock.acquire(cf);
    out.functional_after = lock.release(cf);
  }
  return out;
}

// ---------------------------------------------------------------------
// HCLH (§3.8.2): immune — the misused node is not enqueued; clearing its
// flag is invisible.
// ---------------------------------------------------------------------
template <Resilience R>
FlavorOutcome run_hclh() {
  static const platform::Topology topo = platform::Topology::uniform(2, 2);
  BasicHclhLock<R> lock(topo);
  typename BasicHclhLock<R>::Context cm;
  // Warm the misbehaving context with one clean round first (the paper's
  // caveat: misuse with a *never-used* context only touches idle state).
  lock.acquire(cm);
  lock.release(cm);
  auto misuse = [&] { return lock.release(cm); };

  FlavorOutcome out;
  MutexChecker chk;
  std::atomic<bool> t1_out{false};
  Probe t1([&] {
    typename BasicHclhLock<R>::Context c;
    lock.acquire(c);
    chk.enter();
    wait_for([&] { return t1_out.load(); }, milliseconds{5000});
    chk.exit();
    lock.release(c);
  });
  wait_for([&] { return chk.current() == 1; }, milliseconds{2000});
  out.detected = !misuse();  // HCLH has nothing to detect: returns true
  Probe t2([&] {
    typename BasicHclhLock<R>::Context c;
    lock.acquire(c);
    chk.enter();
    chk.exit();
    lock.release(c);
  });
  out.violated = wait_for([&] { return chk.max_simultaneous() >= 2; },
                          milliseconds{200});
  t1_out.store(true);
  t1.join();
  t2.join();
  lock.acquire(cm);
  out.functional_after = lock.release(cm) && !out.violated;
  return out;
}

// ---------------------------------------------------------------------
// HBO (§3.8.3): TAS semantics with NUMA backoff.
// ---------------------------------------------------------------------
template <Resilience R>
FlavorOutcome run_hbo() {
  static const platform::Topology topo = platform::Topology::uniform(2, 2);
  BasicHboLock<R> lock(topo);
  return plain_violation_script(lock);
}

// ---------------------------------------------------------------------
// Cohort C-TKT-TKT (§3.8.4): the misuse lands on the local ticket lock
// and, unchecked, propagates to the global lock.
// ---------------------------------------------------------------------
template <Resilience R>
FlavorOutcome run_cohort() {
  static const platform::Topology topo = platform::Topology::uniform(1, 64);
  using Lock = CTktTktLock<R>;
  Lock lock(topo);
  FlavorOutcome out;
  MutexChecker chk;
  typename Lock::Context c1, cm, c2;
  std::atomic<bool> t1_out{false};
  Probe t1([&] {
    lock.acquire(c1);
    chk.enter();
    wait_for([&] { return t1_out.load(); }, milliseconds{5000});
    chk.exit();
    lock.release(c1);
  });
  wait_for([&] { return chk.current() == 1; }, milliseconds{2000});

  out.detected = !lock.release(cm);  // misuse via a never-acquired context

  Probe t2([&] {
    lock.acquire(c2);
    chk.enter();
    chk.exit();
    lock.release(c2);
  });
  out.violated = wait_for([&] { return chk.max_simultaneous() >= 2; });
  t1_out.store(true);
  t1.join();
  t2.join();

  if constexpr (R == kOriginal) {
    // Both ticket levels now have nowServing ahead of nextTicket; later
    // acquirers starve. Observe, then rescue by realigning.
    typename Lock::Context c3;
    Probe t3([&] {
      lock.acquire(c3);
      lock.release(c3);
    });
    out.others_starved = !t3.finished_within();
    if (out.others_starved) {
      // t3 is stuck inside the LOCAL acquire (its ticket is already
      // issued: realign to next-1); it has not taken a GLOBAL ticket yet
      // (realign to next so its upcoming ticket is served immediately).
      // Read the global next BEFORE the local realign lets t3 take it.
      auto& local = VerifyAccess::cohort_local(lock, 0);
      auto& global = VerifyAccess::cohort_global(lock);
      const std::uint64_t global_next = VerifyAccess::ticket_next(global);
      VerifyAccess::ticket_force_serving(
          local, VerifyAccess::ticket_next(local) - 1);
      VerifyAccess::ticket_force_serving(global, global_next);
    }
    t3.join();
  } else {
    typename Lock::Context c3;
    lock.acquire(c3);
    out.functional_after = lock.release(c3);
  }
  return out;
}

// ---------------------------------------------------------------------
// C-RW-NP (§4): a misbehaving RUnlock lets a waiting writer overlap the
// reader, and the reader's own departure corrupts the indicator so all
// later writers starve.
// ---------------------------------------------------------------------
template <Resilience R, typename Indicator>
FlavorOutcome run_crw() {
  static const platform::Topology topo = platform::Topology::uniform(1, 64);
  using Lock = CrwLock<R, Indicator, RwPreference::kNeutral>;
  Lock rw(topo);
  FlavorOutcome out;
  MutexChecker chk;
  typename Lock::Context cr, cw, cm, cw2;

  std::atomic<bool> r_out{false};
  Probe reader([&] {
    rw.rlock(cr);
    chk.enter();
    wait_for([&] { return r_out.load(); }, milliseconds{5000});
    chk.exit();
    rw.runlock(cr);
  });
  wait_for([&] { return chk.current() == 1; }, milliseconds{2000});

  Probe writer([&] {
    rw.wlock(cw);
    chk.enter();
    chk.exit();
    rw.wunlock(cw);
  });
  // Give the writer time to take the cohort lock and block on isEmpty.
  wait_for([&] { return false; }, milliseconds{100});

  out.detected = !rw.runlock(cm);  // MISUSE: depart without arrive

  out.violated = wait_for([&] { return chk.max_simultaneous() >= 2; });
  r_out.store(true);
  reader.join();
  writer.join();

  // Indicator now unbalanced (unless checked): later writers starve.
  Probe writer2([&] {
    rw.wlock(cw2);
    rw.wunlock(cw2);
  });
  out.others_starved = !writer2.finished_within();
  if (out.others_starved) {
    rw.indicator().arrive(self_pid());  // rescue: rebalance
  }
  writer2.join();
  out.functional_after = !out.others_starved && !out.violated;
  return out;
}

// ---------------------------------------------------------------------
// Software-only locks (§5, Appendix).
// ---------------------------------------------------------------------
FlavorOutcome run_peterson() {
  PetersonLock lock;
  FlavorOutcome out;
  MutexChecker chk;
  std::atomic<bool> t0_out{false};
  Probe t0([&] {
    lock.acquire(0);
    chk.enter();
    wait_for([&] { return t0_out.load(); }, milliseconds{5000});
    chk.exit();
    lock.release(0);
  });
  wait_for([&] { return chk.current() == 1; }, milliseconds{2000});
  out.detected = !lock.release(1);  // misuse by the idle thread: no-op
  Probe t1([&] {
    lock.acquire(1);
    chk.enter();
    chk.exit();
    lock.release(1);
  });
  out.violated = wait_for([&] { return chk.max_simultaneous() >= 2; },
                          milliseconds{200});
  t0_out.store(true);
  t0.join();
  t1.join();
  out.functional_after = !out.violated;
  return out;
}

template <Resilience R>
FlavorOutcome run_fischer() {
  BasicFischerLock<R> lock(512);
  return plain_violation_script(lock);
}

template <Resilience R>
FlavorOutcome run_lamport1() {
  BasicLamportFast1Lock<R> lock(512);
  return plain_violation_script(lock);
}

template <Resilience R>
FlavorOutcome run_lamport2() {
  BasicLamportFast2Lock<R> lock(64);
  return plain_violation_script(lock);
}

FlavorOutcome run_bakery() {
  BakeryLock lock(64);
  // Misuse by an idle thread resets its own (already zero) number: no-op.
  FlavorOutcome out;
  MutexChecker chk;
  std::atomic<bool> t1_out{false};
  Probe t1([&] {
    lock.acquire();
    chk.enter();
    wait_for([&] { return t1_out.load(); }, milliseconds{5000});
    chk.exit();
    lock.release();
  });
  wait_for([&] { return chk.current() == 1; }, milliseconds{2000});
  out.detected = !lock.release();  // immune; nothing to detect
  Probe t2([&] {
    lock.acquire();
    chk.enter();
    chk.exit();
    lock.release();
  });
  out.violated = wait_for([&] { return chk.max_simultaneous() >= 2; },
                          milliseconds{200});
  t1_out.store(true);
  t1.join();
  t2.join();
  out.functional_after = !out.violated;
  return out;
}

}  // namespace

// --------------------------------------------------------------------
// Public entry points: run both flavors and fill the report.
// --------------------------------------------------------------------

MisuseReport misuse_tas() {
  return make_report("TAS", run_tas<kOriginal>(), run_tas<kResilient>(),
                     true, false, false, true, "store PID in L");
}

MisuseReport misuse_ticket() {
  return make_report("Ticket", run_ticket<kOriginal>(),
                     run_ticket<kResilient>(), true, false, true, true,
                     "introduce a new PID field");
}

MisuseReport misuse_abql() {
  return make_report("Anderson ABQL", run_abql<kOriginal>(),
                     run_abql<kResilient>(), true, false, false, true,
                     "check and reset myPlace in release()");
}

MisuseReport misuse_graunke_thakkar() {
  return make_report("Graunke-Thakkar", run_gt<kOriginal>(),
                     run_gt<kResilient>(), false, false, true, true,
                     "introduce holder array");
}

MisuseReport misuse_mcs() {
  return make_report("MCS", run_mcs<kOriginal>(), run_mcs<kResilient>(),
                     true, true, false, true,
                     "check I.locked and reset I.next");
}

MisuseReport misuse_clh() {
  return make_report("CLH", run_clh<kOriginal>(), run_clh<kResilient>(),
                     true, false, true, true,
                     "check and reset I.prev in release()");
}

MisuseReport misuse_mcs_k42() {
  return make_report("MCS-K42", run_mcs_k42<kOriginal>(),
                     run_mcs_k42<kResilient>(), true, true, true, true,
                     "re-purpose qnode fields for owner PID");
}

MisuseReport misuse_hemlock() {
  return make_report("Hemlock", run_hemlock<kOriginal>(),
                     run_hemlock<kResilient>(), false, true, false, true,
                     "check and reset Grant in release()");
}

MisuseReport misuse_hmcs() {
  return make_report("HMCS", run_hmcs<kOriginal>(), run_hmcs<kResilient>(),
                     true, true, false, true, "same as MCS at each level");
}

MisuseReport misuse_hclh() {
  return make_report("HCLH", run_hclh<kOriginal>(),
                     run_hclh<kResilient>(), false, false, false, false,
                     "not applicable (immune)");
}

MisuseReport misuse_hbo() {
  return make_report("HBO", run_hbo<kOriginal>(), run_hbo<kResilient>(),
                     true, false, false, true,
                     "pack PID + NUMA id into lock word");
}

MisuseReport misuse_cohort_tkt_tkt() {
  return make_report("C-TKT-TKT", run_cohort<kOriginal>(),
                     run_cohort<kResilient>(), true, false, true, true,
                     "reuse local ticket remedy");
}

MisuseReport misuse_crw_np() {
  // The paper's resilient story: W side fixable, R side unsolved. Run
  // the original with the compact split indicator and the "resilient"
  // with the checked indicator (our extension) to show both columns.
  return make_report("C-RW-NP", run_crw<kOriginal, SplitReadIndicator>(),
                     run_crw<kResilient, CheckedReadIndicator>(), true,
                     false, true, false,
                     "W side: ticket remedy; R side: unsolved in paper "
                     "(checked indicator shipped as extension)");
}

MisuseReport misuse_peterson() {
  const FlavorOutcome o = run_peterson();
  return make_report("Peterson", o, o, false, false, false, false,
                     "not applicable (immune)");
}

MisuseReport misuse_fischer() {
  return make_report("Fischer", run_fischer<kOriginal>(),
                     run_fischer<kResilient>(), true, false, false, true,
                     "check and reset x in release()");
}

MisuseReport misuse_lamport1() {
  return make_report("Lamport Algo 1", run_lamport1<kOriginal>(),
                     run_lamport1<kResilient>(), true, false, true, true,
                     "check and reset y in release()");
}

MisuseReport misuse_lamport2() {
  return make_report("Lamport Algo 2", run_lamport2<kOriginal>(),
                     run_lamport2<kResilient>(), true, false, true, true,
                     "check and reset y in release()");
}

MisuseReport misuse_bakery() {
  const FlavorOutcome o = run_bakery();
  return make_report("Bakery", o, o, false, false, false, false,
                     "immune (Appendix A.1)");
}

std::vector<MisuseReport> run_misuse_matrix() {
  std::vector<MisuseReport> rows;
  rows.push_back(misuse_tas());
  rows.push_back(misuse_ticket());
  rows.push_back(misuse_abql());
  rows.push_back(misuse_graunke_thakkar());
  rows.push_back(misuse_mcs());
  rows.push_back(misuse_clh());
  rows.push_back(misuse_mcs_k42());
  rows.push_back(misuse_hemlock());
  rows.push_back(misuse_hmcs());
  rows.push_back(misuse_hclh());
  rows.push_back(misuse_hbo());
  rows.push_back(misuse_cohort_tkt_tkt());
  rows.push_back(misuse_crw_np());
  rows.push_back(misuse_peterson());
  rows.push_back(misuse_fischer());
  rows.push_back(misuse_lamport1());
  rows.push_back(misuse_lamport2());
  rows.push_back(misuse_bakery());
  return rows;
}

// ---------------------------------------------------------------------
// Shield-vs-native matrix: the generic ownership shield over ORIGINAL
// protocols, compared against the bespoke in-protocol RESILIENT fixes,
// on the four canonical misuse scenarios. All driving happens through
// the type-erased AnyLock interface so the same script covers plain and
// context locks alike.
// ---------------------------------------------------------------------
namespace {

// Misuse a lock nobody holds: release() out of thin air.
ShieldCell drive_unbalanced_unlock(AnyLock& lock) {
  ShieldCell cell;
  cell.detected = !lock.release();
  lock.acquire();
  cell.functional_after = lock.release();
  return cell;
}

// Balanced episode followed by one release too many.
ShieldCell drive_double_unlock(AnyLock& lock) {
  ShieldCell cell;
  lock.acquire();
  if (!lock.release()) return cell;  // balanced release must succeed
  cell.detected = !lock.release();
  lock.acquire();
  cell.functional_after = lock.release();
  return cell;
}

// T1 holds the lock; this thread releases it. T2 must not slip into the
// critical section while T1 is still inside.
ShieldCell drive_non_owner_unlock(AnyLock& lock) {
  ShieldCell cell;
  MutexChecker chk;
  std::atomic<bool> t1_out{false};
  Probe t1([&] {
    lock.acquire();
    chk.enter();
    wait_for([&] { return t1_out.load(); }, milliseconds{5000});
    chk.exit();
    lock.release();
  });
  wait_for([&] { return chk.current() == 1; }, milliseconds{2000});

  cell.detected = !lock.release();  // the misuse

  Probe t2([&] {
    lock.acquire();
    chk.enter();
    chk.exit();
    lock.release();
  });
  // Window for T2 to (incorrectly) enter while T1 is still inside.
  wait_for([&] { return chk.max_simultaneous() >= 2; }, milliseconds{150});
  cell.mutex_preserved = chk.max_simultaneous() <= 1;
  t1_out.store(true);
  t1.join();
  t2.join();

  lock.acquire();
  cell.functional_after = lock.release();
  return cell;
}

// Same-thread relock of a held, non-reentrant lock. Probed through
// try_acquire so the scenario cannot self-deadlock; locks without a
// native trylock (CLH, §6) are inapplicable. "Detected" means the
// relock was handled safely: refused outright (the in-protocol CAS
// fixes), or absorbed reentrantly with the matching release absorbed
// too (the shield's kSuppress remedy).
ShieldCell drive_reentrant_relock(AnyLock& lock) {
  ShieldCell cell;
  if (!lock.supports_trylock()) {
    cell.applicable = false;
    return cell;
  }
  lock.acquire();
  if (lock.try_acquire()) {
    const bool r1 = lock.release();
    const bool r2 = lock.release();
    cell.detected = r1 && r2;  // absorbed consistently, depth balanced
  } else {
    cell.detected = true;  // refused: no double-entry
    lock.release();
  }
  lock.acquire();
  cell.functional_after = lock.release();
  return cell;
}

void drive_all(AnyLock& lock, ShieldCell (&cells)[4]) {
  cells[0] = drive_unbalanced_unlock(lock);
  cells[1] = drive_double_unlock(lock);
  cells[2] = drive_non_owner_unlock(lock);
  cells[3] = drive_reentrant_relock(lock);
}

bool cell_ok(const ShieldCell& c) {
  return !c.applicable ||
         (c.detected && c.mutex_preserved && c.functional_after);
}

}  // namespace

bool ShieldComparison::shield_matches_native() const {
  for (int i = 0; i < 4; ++i) {
    if (cell_ok(shielded[i]) != cell_ok(native[i])) return false;
  }
  return true;
}

std::vector<ShieldComparison> run_shield_matrix(
    const std::vector<std::string>& names) {
  const std::vector<std::string>& selected =
      names.empty() ? table2_lock_names() : names;
  // Pin the shield policy — and clear any RESILOCK_POLICY rules — so
  // the matrix is deterministic regardless of the environment (RAII:
  // an unknown name in `names` throws out of make_lock and must not
  // leak the pins).
  response::ResponseRulesGuard rules("");
  shield::ShieldPolicyGuard pin(shield::ShieldPolicy::kSuppress);

  std::vector<ShieldComparison> rows;
  for (const auto& name : selected) {
    ShieldComparison row;
    row.lock = name;
    auto shielded = make_lock(shielded_name(name), kOriginal);
    drive_all(*shielded, row.shielded);
    auto native = make_lock(name, kResilient);
    drive_all(*native, row.native);
    rows.push_back(std::move(row));
  }
  return rows;
}

void print_shield_matrix(const std::vector<ShieldComparison>& reports) {
  std::printf("%-10s | %-29s | %-29s | agree\n", "Lock",
              "shield<original>  U/D/N/R", "native resilient  U/D/N/R");
  auto fmt = [](const ShieldCell& c) {
    if (!c.applicable) return '-';
    return cell_ok(c) ? 'Y' : 'n';
  };
  std::printf(
      "-----------+-------------------------------+----------------------"
      "---------+------\n");
  for (const auto& r : reports) {
    std::printf("%-10s | %c / %c / %c / %c %15s | %c / %c / %c / %c %15s | %s\n",
                r.lock.c_str(), fmt(r.shielded[0]), fmt(r.shielded[1]),
                fmt(r.shielded[2]), fmt(r.shielded[3]), "",
                fmt(r.native[0]), fmt(r.native[1]), fmt(r.native[2]),
                fmt(r.native[3]), "",
                r.shield_matches_native() ? "yes" : "NO");
  }
  std::printf(
      "\nU = unbalanced unlock of a free lock, D = double unlock, N = "
      "non-owner unlock,\nR = same-thread reentrant relock (via trylock; "
      "'-' = no trylock, not drivable).\nY = detected, mutual exclusion "
      "preserved, functional afterwards.\n");
}

void print_misuse_matrix(const std::vector<MisuseReport>& reports) {
  std::printf(
      "%-18s | %-8s %-8s %-8s | %-8s %-9s | paper(V/Tm/O/D)\n", "Lock",
      "violates", "Tm-strv", "oth-strv", "detected", "prevented");
  std::printf(
      "-------------------+----------------------------+--------------------"
      "+----------------\n");
  for (const auto& r : reports) {
    std::printf("%-18s | %-8s %-8s %-8s | %-8s %-9s | %c/%c/%c/%c\n",
                r.lock.c_str(), r.violates_mutex ? "yes" : "no",
                r.tm_starves ? "yes" : "no", r.others_starve ? "yes" : "no",
                r.detected ? "yes" : "no", r.prevented ? "yes" : "no",
                r.paper_violates ? 'Y' : 'N', r.paper_tm ? 'Y' : 'N',
                r.paper_others ? 'Y' : 'N', r.paper_detectable ? 'Y' : 'N');
  }
  std::printf(
      "\nNotes: observed columns use bounded watchdogs; 'starves' means no "
      "progress within the window.\n"
      "Lamport Algo 1/2: the paper's starvation is a transient bounce back "
      "to start (one retry per misuse\ninstance), not permanent spinning — "
      "the observed column reports permanent starvation only.\n"
      "C-RW-NP resilient column uses the CheckedReadIndicator extension "
      "(the paper leaves the R side unsolved).\n");
}

}  // namespace resilock::verify
