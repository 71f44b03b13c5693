// The parking tier: spin-then-park waiting for the queue locks, with
// misuse-aware rescue wakeups.
//
// Every lock in the repo used to busy-spin. Past core count that burns
// the machine — at 4x oversubscription a spinning waiter steals the
// very quantum the holder needs to release. This layer gives the queue
// locks (MCS, CLH, Ticket, the HMCS leaf level) a slow path that spins
// a bounded number of times (RESILOCK_PARK_SPINS, default 512) on the
// per-waiter flag word and then sleeps in the kernel via futex.hpp,
// gated by RESILOCK_PARK (default off). The uncontended fast path is
// untouched: parking code runs only after the bounded spin loses.
//
// Word protocol. A parking wait word is a 32-bit atomic with three
// states:
//
//   kWordGranted (0)  the hand-off happened — proceed
//   kWordWaiting (1)  enqueued, spinning
//   kWordParked  (2)  enqueued, (about to be) asleep in futex_wait
//
// The waiter CASes 1 -> 2 before sleeping; the releaser hands off with
// an unconditional exchange(0) and issues futex_wake only when the
// exchange returned 2. The exchange — never a plain store — is what
// makes the hand-off race-free: a waiter that flips to kWordParked
// after the releaser's store would sleep forever, but an exchange
// publishes 0 atomically, so the waiter's CAS either loses (sees 0,
// proceeds) or wins before the exchange (releaser sees 2, wakes).
//
// Grants in transit. A FIFO hand-off to a parked waiter leaves the lock
// held by a sleeping thread until it runs (10-130 us at the mode on a
// 4-vCPU KVM guest, up to 16 ms). Waiters behind it spun out their
// ~100 us budget meanwhile and parked too, so every later hand-off went
// to a sleeper. ParkBay::hand_off therefore marks a grant to a parked
// waiter in transit and wakes the lock's other parked waiters; no
// waiter parks while a grant is in transit.
//
// Misuse rescue (the point of putting parking in *this* repo): the
// worst victim of an unbalanced/non-owner unlock is a parked waiter —
// a spinner wastes CPU but recovers on the next hand-off; a parked
// thread sleeps until a wake that may never come. Each parking lock
// owns a ParkBay, a lazily allocated registry of the wait-word
// addresses of its currently-parking waiters. When the shield absorbs
// an unlock-family misuse on a lock with parked waiters it calls the
// lock's misuse_wake(), which futex_wakes every registered address —
// never touching protocol state, never dereferencing the words (a
// registered address may already be dead; see futex.hpp). Woken
// waiters re-check their predicate and re-park or proceed; the rescue
// is purely advisory and therefore always safe to issue.
//
// Attribution. The park layer sits BELOW observe/ and shield/ (core
// locks include it), so it cannot name lockdep classes itself.
// Instead each park is tallied in a thread-local ThreadParkTally; the
// shield stamps the tally's cls_hint around the contended acquire and
// snapshots the delta into observe::on_parked afterwards. The same
// hint rides on kPark trace records (emitted when
// RESILOCK_TELEMETRY_SPANS is on) so offline reports can rebuild the
// per-class park table from a trace alone.
#pragma once

#include <atomic>
#include <cstdint>

#include "park/futex.hpp"
#include "platform/chrono_to_timespec.hpp"
#include "platform/env.hpp"

namespace resilock::park {

inline constexpr std::uint32_t kWordGranted = 0;
inline constexpr std::uint32_t kWordWaiting = 1;
inline constexpr std::uint32_t kWordParked = 2;
// Resilient queue locks reuse their wait word as the "I hold the
// lock" marker after acquisition (paper Fig. 6); any nonzero value
// works, and staying inside the protocol vocabulary keeps debugging
// dumps readable.
inline constexpr std::uint32_t kWordHeldMarker = kWordWaiting;

// ---------------------------------------------------------------------
// Knobs: RESILOCK_PARK (master gate) and RESILOCK_PARK_SPINS (spin
// budget before the first futex_wait), both runtime-settable with the
// same relaxed-flag + RAII-guard shape as lockstat/span tracing.
// ---------------------------------------------------------------------

namespace detail {
inline std::atomic<bool>& park_flag() {
  static std::atomic<bool> f{platform::env_flag("RESILOCK_PARK", false)};
  return f;
}
inline std::atomic<std::uint32_t>& spins_knob() {
  static std::atomic<std::uint32_t> n{
      platform::env_u32("RESILOCK_PARK_SPINS", 512)};
  return n;
}
}  // namespace detail

inline bool parking_enabled() noexcept {
  return detail::park_flag().load(std::memory_order_relaxed);
}

inline void set_parking(bool on) noexcept {
  detail::park_flag().store(on, std::memory_order_relaxed);
}

inline std::uint32_t park_spins() noexcept {
  return detail::spins_knob().load(std::memory_order_relaxed);
}

inline void set_park_spins(std::uint32_t n) noexcept {
  detail::spins_knob().store(n, std::memory_order_relaxed);
}

class ParkingGuard {
 public:
  explicit ParkingGuard(bool on) : previous_(parking_enabled()) {
    set_parking(on);
  }
  ~ParkingGuard() { set_parking(previous_); }
  ParkingGuard(const ParkingGuard&) = delete;
  ParkingGuard& operator=(const ParkingGuard&) = delete;

 private:
  const bool previous_;
};

class ParkSpinsGuard {
 public:
  explicit ParkSpinsGuard(std::uint32_t n) : previous_(park_spins()) {
    set_park_spins(n);
  }
  ~ParkSpinsGuard() { set_park_spins(previous_); }
  ParkSpinsGuard(const ParkSpinsGuard&) = delete;
  ParkSpinsGuard& operator=(const ParkSpinsGuard&) = delete;

 private:
  const std::uint32_t previous_;
};

// ---------------------------------------------------------------------
// Process-wide parking counters (MetricsRegistry's park.* section).
// ---------------------------------------------------------------------

struct ParkStatsSnapshot {
  std::uint64_t parks = 0;           // futex_wait calls that slept
  std::uint64_t wakes = 0;           // parks that woke to a grant
  std::uint64_t wakes_spurious = 0;  // parks that woke and re-checked
  std::uint64_t timeouts = 0;        // deadline expiries (park_until)
  std::uint64_t misuse_wakes = 0;    // rescue broadcasts issued
  std::uint64_t currently_parked = 0;
};

class ParkStats {
 public:
  static ParkStats& instance() {
    // Leaked like LockStat: lock teardown may park during shutdown.
    static ParkStats* inst = new ParkStats;
    return *inst;
  }

  ParkStatsSnapshot snapshot() const noexcept {
    ParkStatsSnapshot s;
    s.parks = parks.load(std::memory_order_relaxed);
    s.wakes = wakes.load(std::memory_order_relaxed);
    s.wakes_spurious = wakes_spurious.load(std::memory_order_relaxed);
    s.timeouts = timeouts.load(std::memory_order_relaxed);
    s.misuse_wakes = misuse_wakes.load(std::memory_order_relaxed);
    s.currently_parked =
        currently_parked.load(std::memory_order_relaxed);
    return s;
  }

  void reset() noexcept {
    parks.store(0, std::memory_order_relaxed);
    wakes.store(0, std::memory_order_relaxed);
    wakes_spurious.store(0, std::memory_order_relaxed);
    timeouts.store(0, std::memory_order_relaxed);
    misuse_wakes.store(0, std::memory_order_relaxed);
    // currently_parked is a live gauge, not a tally — never reset.
  }

  std::atomic<std::uint64_t> parks{0};
  std::atomic<std::uint64_t> wakes{0};
  std::atomic<std::uint64_t> wakes_spurious{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<std::uint64_t> misuse_wakes{0};
  std::atomic<std::uint64_t> currently_parked{0};
};

// ---------------------------------------------------------------------
// Thread-local park tally, for per-class lockstat attribution.
// ---------------------------------------------------------------------

inline constexpr std::uint32_t kNoClsHint = 0xFFFFFFFFu;

struct ThreadParkTally {
  std::uint64_t parks = 0;
  std::uint64_t park_ns = 0;
  std::uint64_t wakes = 0;
  // Lockdep class of the acquire in progress; stamped by the shield
  // around the contended window, kNoClsHint otherwise. Rides on
  // kPark trace records as the class tag.
  std::uint32_t cls_hint = kNoClsHint;

  static ThreadParkTally& mine() noexcept {
    thread_local ThreadParkTally t;
    return t;
  }
};

// ---------------------------------------------------------------------
// ParkBay: the per-lock rescue registry.
// ---------------------------------------------------------------------

class ParkBay {
 public:
  ParkBay() = default;
  ~ParkBay() { delete slots_.load(std::memory_order_relaxed); }
  ParkBay(const ParkBay&) = delete;
  ParkBay& operator=(const ParkBay&) = delete;

  static constexpr std::uint32_t kSlots = 64;

  // Registers a wait word about to park; returns the slot index, or
  // -1 when every slot is taken (or allocation failed). A waiter that
  // cannot register MUST NOT park — an unregistered sleeper would be
  // invisible to misuse_wake and could wedge forever on an absorbed
  // unlock. wait_word() keeps such waiters on the spin path instead.
  int register_parker(std::atomic<std::uint32_t>* word) noexcept;
  void unregister_parker(int slot) noexcept;

  // Rescue broadcast: futex_wake every registered word. Touches no
  // protocol state and never dereferences the words, so it is safe to
  // call from any thread at any time — including racing a waiter that
  // is already gone. Spurious wakes are absorbed by the waiters'
  // predicate re-check.
  void misuse_wake() noexcept;

  // Live count of waiters inside their park window (between the
  // pre-park registration and the post-wake deregistration).
  std::uint32_t parked_count() const noexcept {
    return parked_.load(std::memory_order_acquire);
  }

  void note_parked() noexcept {
    parked_.fetch_add(1, std::memory_order_acq_rel);
  }
  void note_unparked() noexcept {
    parked_.fetch_sub(1, std::memory_order_acq_rel);
  }

  // The queue locks' hand-off: wake_word, plus the grant-in-transit
  // mark and the wake of the other parked waiters when the successor
  // is asleep (see the top of this file).
  void hand_off(std::atomic<std::uint32_t>& word) noexcept;

  // A hand-off went to a parked waiter that has not run since.
  bool grant_in_transit() const noexcept {
    return transit_.load(std::memory_order_relaxed) != nullptr;
  }

  // Called by a waiter that parked, once it holds its grant: clears the
  // transit mark if it is this waiter's.
  void grant_arrived(std::atomic<std::uint32_t>* word) noexcept {
    transit_.compare_exchange_strong(word, nullptr,
                                     std::memory_order_relaxed);
  }

 private:
  struct Slots {
    std::atomic<std::atomic<std::uint32_t>*> ptr[kSlots] = {};
  };
  Slots* slots() noexcept;  // lazy CAS-install; nullptr on OOM
  // futex_wake every registered word but `skip`.
  void wake_registered(const std::atomic<std::uint32_t>* skip) noexcept;

  std::atomic<Slots*> slots_{nullptr};
  std::atomic<std::uint32_t> parked_{0};
  std::atomic<std::atomic<std::uint32_t>*> transit_{nullptr};
};

// ---------------------------------------------------------------------
// The waiter primitives.
// ---------------------------------------------------------------------

// Spin-then-park until `word` leaves {kWordWaiting, kWordParked};
// returns the terminal value (kWordGranted in the queue-lock protocol,
// but any other value a releaser publishes works). `bay` is the
// owning lock's rescue registry; pass nullptr to forbid parking (the
// waiter then spins indefinitely, i.e. pre-parking behavior). The spin
// budget restarts while the bay has a grant in transit, and again after
// every wake that brought no grant.
std::uint32_t wait_word(std::atomic<std::uint32_t>& word,
                        ParkBay* bay) noexcept;

// Hand-off: atomically publish kWordGranted and wake the waiter if it
// was parked. The unconditional exchange is load-bearing — see the
// word-protocol comment at the top of this file.
inline void wake_word(std::atomic<std::uint32_t>& word) noexcept {
  const std::uint32_t prev =
      word.exchange(kWordGranted, std::memory_order_acq_rel);
  if (prev == kWordParked) futex_wake_all(&word);
}

// One bounded sleep on `word` while it equals `expected`, no later
// than the absolute CLOCK_MONOTONIC deadline `deadline_ns`. Returns
// false when the deadline expired (counted in ParkStats::timeouts),
// true otherwise — including spurious wakes; the caller loops on its
// own predicate. Backs the shim's timedlock entry points.
bool park_until(const std::atomic<std::uint32_t>& word,
                std::uint32_t expected,
                std::uint64_t deadline_ns) noexcept;

// ---------------------------------------------------------------------
// TimedGate: deadline-bounded acquisition over any try-lockable lock.
// ---------------------------------------------------------------------
//
// The queue locks have no cancellation path (abandoning a queue node
// mid-wait would corrupt the hand-off chain), so timed acquisition is
// built OUTSIDE the protocol: a try-acquire loop that parks on a
// generation word between attempts. Every release bumps the epoch and
// wakes the timed waiters; they re-try, and give up at the deadline
// without ever having entered the queue — which is also why a timeout
// adds no lockdep edge (the try path never records one).
class TimedGate {
 public:
  // Both hooks run after the underlying lock is released and wake the
  // timed waiters only when some are registered. The handshake is a
  // Dekker with acquire_until: the waiter increments waiters_ and then
  // re-tries the lock; the releaser frees the lock and then reads
  // waiters_. At least one side must see the other: either the retry
  // wins the lock, or the releaser sees waiters_ != 0 and wakes.

  // For a lock freed by a plain store (the C-RW writer side): the fence
  // orders that store before the waiters_ read.
  void on_release() noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
    wake();
  }

  // For a lock whose freeing write and whose try-acquire are both
  // seq_cst RMWs (the MCS tail CAS, core/mcs.hpp): one seq_cst load,
  // no fence. The freeing RMW, this load, the waiter's registration
  // and its try are all in the single total order S, and each side's
  // pair is ordered in S as in its program. If this load precedes the
  // registration in S, the free precedes the try, so the try reads the
  // freed tail (or a later holder's, whose own free then sees the
  // registration); otherwise this load reads it. Call it only after a
  // release that freed the lock: a hand-off leaves the lock held, and
  // the release that frees it later runs the check.
  void after_free() noexcept {
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    wake();
  }

  // Runs `try_lock` until it succeeds or the CLOCK_MONOTONIC deadline
  // passes. Returns true on acquisition, false on timeout.
  template <typename Try>
  bool acquire_until(Try&& try_lock, std::uint64_t deadline_ns) {
    if (try_lock()) return true;
    for (;;) {
      waiters_.fetch_add(1, std::memory_order_seq_cst);
      const std::uint32_t e = epoch_.load(std::memory_order_acquire);
      if (try_lock()) {
        waiters_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
      const bool alive = park_until(epoch_, e, deadline_ns);
      waiters_.fetch_sub(1, std::memory_order_relaxed);
      if (!alive) {
        // Deadline passed while parked; one last grab-if-free, per
        // the POSIX "shall lock if available" clause.
        return static_cast<bool>(try_lock());
      }
    }
  }

  std::uint32_t waiters() const noexcept {
    return waiters_.load(std::memory_order_relaxed);
  }

 private:
  void wake() noexcept {
    epoch_.fetch_add(1, std::memory_order_release);
    futex_wake_all(&epoch_);
  }

  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
};

}  // namespace resilock::park
