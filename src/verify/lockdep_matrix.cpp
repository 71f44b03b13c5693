#include "verify/lockdep_matrix.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/lock_registry.hpp"
#include "core/tas.hpp"
#include "core/ticket.hpp"
#include "lockdep/lockdep.hpp"
#include "response/response.hpp"
#include "shield/shield.hpp"
#include "verify/access.hpp"
#include "verify/checkers.hpp"

namespace resilock::verify {
namespace {

std::uint64_t report_count() {
  const auto s = lockdep::Graph::instance().stats();
  return s.reports();
}

std::uint64_t inversion_count() {
  return lockdep::Graph::instance().stats().inversions;
}

std::uint64_t cycle_count() {
  return lockdep::Graph::instance().stats().cycles;
}

// Consistently ordered nesting from two threads: must stay silent.
bool run_ordered(const std::string& shielded) {
  auto a = make_lock(shielded, kOriginal);
  auto b = make_lock(shielded, kOriginal);
  auto c = make_lock(shielded, kOriginal);
  const std::uint64_t before = report_count();
  std::atomic<bool> t2_done{false};
  auto nest = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      a->acquire();
      b->acquire();
      c->acquire();
      c->release();
      b->release();
      a->release();
    }
  };
  std::thread t([&] {
    nest(50);
    t2_done.store(true, std::memory_order_release);
  });
  nest(50);
  t.join();
  return t2_done.load() && report_count() == before;
}

// A→B then B→A on ONE thread, strictly sequentially: the inversion is
// flagged on the first reversed acquisition although no thread ever
// blocks (both locks are free at every acquire).
void run_inversion(const std::string& shielded, bool& flagged,
                   bool& once) {
  auto a = make_lock(shielded, kOriginal);
  auto b = make_lock(shielded, kOriginal);
  const std::uint64_t before = inversion_count();
  a->acquire();
  b->acquire();  // edge A→B
  b->release();
  a->release();
  b->acquire();
  a->acquire();  // edge B→A: closes AB/BA — must flag right here
  flagged = inversion_count() == before + 1;
  a->release();
  b->release();
  // Replaying the same reversed order adds no new edge, so no second
  // report: first-occurrence semantics, not per-event spam.
  b->acquire();
  a->acquire();
  a->release();
  b->release();
  once = inversion_count() == before + 1;
}

// Dining-philosophers order over three forks, walked sequentially by
// one thread (each "philosopher" in turn): the closing 2→0 edge makes a
// 3-cycle with no concurrency anywhere.
bool run_cycle(const std::string& shielded) {
  std::unique_ptr<AnyLock> fork[3] = {make_lock(shielded, kOriginal),
                                      make_lock(shielded, kOriginal),
                                      make_lock(shielded, kOriginal)};
  const std::uint64_t before = cycle_count();
  for (int p = 0; p < 3; ++p) {
    fork[p]->acquire();
    fork[(p + 1) % 3]->acquire();
    fork[(p + 1) % 3]->release();
    fork[p]->release();
  }
  return cycle_count() == before + 1;
}

// Two probes really wedge on an AB/BA; lockdep must have reported by
// then, and `rescue` (repeatedly invoked) must unstick both.
template <typename BaseLock, typename Rescue>
void run_wedge(Rescue rescue, bool& forewarned, bool& joined) {
  shield::Shield<BaseLock> a(shield::ShieldPolicy::kSuppress);
  shield::Shield<BaseLock> b(shield::ShieldPolicy::kSuppress);
  const std::uint64_t before = report_count();
  std::atomic<bool> a_held{false}, b_held{false}, go{false};
  Probe p1([&] {
    a.acquire();
    a_held.store(true, std::memory_order_release);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    b.acquire();  // wedges: p2 holds b
    b.release();
    a.release();
  });
  Probe p2([&] {
    b.acquire();
    b_held.store(true, std::memory_order_release);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    a.acquire();  // wedges: p1 holds a — the report fires HERE, before
    a.release();  // the spin can begin
    b.release();
  });
  wait_for([&] { return a_held.load() && b_held.load(); });
  go.store(true, std::memory_order_release);
  // The report must arrive while both probes are still stuck in their
  // crossed acquires — detection did not need the wedge to resolve.
  const bool flagged = wait_for([&] { return report_count() > before; });
  forewarned = flagged && !p1.done() && !p2.done();
  // Rescue until both probes return; the locks are destroyed after.
  const auto deadline =
      std::chrono::steady_clock::now() + 20 * kWatchWindow;
  while (!p1.done() || !p2.done()) {
    rescue(a, b);
    std::this_thread::yield();
    if (std::chrono::steady_clock::now() >= deadline) break;
  }
  joined = p1.done() && p2.done();
  // Probe destructors join; if a rescue ever failed we would rather
  // hang visibly here than leak a detached spinner into later tests.
}

LockdepScenarioReport run_row(const std::string& name) {
  LockdepScenarioReport r;
  r.lock = name;
  const std::string shielded = shielded_name(name);
  r.ordered_clean = run_ordered(shielded);
  run_inversion(shielded, r.inversion_flagged, r.inversion_once);
  r.cycle_flagged = run_cycle(shielded);

  if (name == "TAS") {
    r.wedge_applicable = true;
    run_wedge<TatasLock>(
        [](shield::Shield<TatasLock>& a, shield::Shield<TatasLock>& b) {
          // Blind word reset: exactly the misuse the ORIGINAL TAS
          // protocol permits, aimed on purpose at the wedged waiters.
          a.base().release();
          b.base().release();
        },
        r.wedge_forewarned, r.probes_joined);
  } else if (name == "Ticket") {
    r.wedge_applicable = true;
    using TL = BasicTicketLock<kOriginal>;
    run_wedge<TL>(
        [](shield::Shield<TL>& a, shield::Shield<TL>& b) {
          // Sweep now_serving over every issued ticket so any wedged
          // waiter observes its own value (equality spin). The locks
          // are fresh, so tickets start at 0; each sweep starts there
          // rather than at the current value, because a waiter that
          // missed its value (descheduled, or yielding in its spin)
          // is left behind a serving word that only moves forward.
          // Each value dwells until a holder's release moves the word
          // or a short window passes.
          for (auto* l : {&a.base(), &b.base()}) {
            const auto next = VerifyAccess::ticket_next(*l);
            for (std::uint64_t s = 0; s <= next; ++s) {
              VerifyAccess::ticket_force_serving(*l, s);
              wait_for(
                  [&] { return VerifyAccess::ticket_serving(*l) != s; },
                  milliseconds(1));
            }
          }
        },
        r.wedge_forewarned, r.probes_joined);
  }
  return r;
}

}  // namespace

std::vector<LockdepScenarioReport> run_lockdep_matrix(
    const std::vector<std::string>& names) {
  // Pin every policy surface so results do not depend on the
  // environment: no response-engine rules (RESILOCK_POLICY cleared for
  // the scope), misuses the scenarios provoke are suppressed, lockdep
  // reports but never aborts.
  response::ResponseRulesGuard rules("");
  shield::ShieldPolicyGuard policy(shield::ShieldPolicy::kSuppress);
  lockdep::LockdepModeGuard mode(lockdep::LockdepMode::kReport);
  const std::vector<std::string> defaults = {"TAS", "Ticket", "MCS"};
  std::vector<LockdepScenarioReport> out;
  for (const auto& n : names.empty() ? defaults : names) {
    out.push_back(run_row(n));
  }
  return out;
}

void print_lockdep_matrix(
    const std::vector<LockdepScenarioReport>& reports) {
  std::printf("%-10s %8s %10s %6s %6s | %10s %8s %7s\n", "Lock",
              "ordered", "inversion", "once", "cycle", "wedge?",
              "flagged", "joined");
  for (const auto& r : reports) {
    std::printf("%-10s %8s %10s %6s %6s | %10s %8s %7s\n",
                r.lock.c_str(), r.ordered_clean ? "clean" : "NOISY",
                r.inversion_flagged ? "yes" : "MISSED",
                r.inversion_once ? "yes" : "SPAM",
                r.cycle_flagged ? "yes" : "MISSED",
                r.wedge_applicable ? "run" : "n/a",
                !r.wedge_applicable ? "-"
                                    : (r.wedge_forewarned ? "yes"
                                                          : "MISSED"),
                !r.wedge_applicable ? "-"
                                    : (r.probes_joined ? "yes" : "NO"));
  }
}

}  // namespace resilock::verify
