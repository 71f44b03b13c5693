// Parking slow path: the spin-then-park waiter loop, the deadline
// wait behind the shim's timedlock entry points, and the ParkBay
// rescue registry. Design overview in parking_lot.hpp.
#include "park/parking_lot.hpp"

#include <new>

#include "lockdep/event_ring.hpp"
#include "platform/spin.hpp"
#include "runtime/timer.hpp"

namespace resilock::park {

namespace {

// The park record of one kernel sleep, from the timestamps the park
// loop takes for its tally. The wait word's address stands in as the
// "lock" identity (one waiter, one word, one track) and the
// shield-stamped class hint rides as the class tag so offline reports
// can group parks by lock class.
inline void emit_park_record(const void* word, std::uint32_t cls_hint,
                             std::uint64_t t0, std::uint64_t t1) {
  lockdep::TraceBuffer::instance().emit_record(
      lockdep::EventKind::kPark, word, cls_hint, lockdep::kNoMode, 0, t0,
      t1);
}

}  // namespace

// ---------------------------------------------------------------------
// ParkBay.
// ---------------------------------------------------------------------

ParkBay::Slots* ParkBay::slots() noexcept {
  Slots* s = slots_.load(std::memory_order_acquire);
  if (s != nullptr) return s;
  auto* fresh = new (std::nothrow) Slots;
  if (fresh == nullptr) return nullptr;
  if (slots_.compare_exchange_strong(s, fresh,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    return fresh;
  }
  delete fresh;  // lost the install race; `s` holds the winner
  return s;
}

int ParkBay::register_parker(std::atomic<std::uint32_t>* word) noexcept {
  Slots* s = slots();
  if (s == nullptr) return -1;
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    std::atomic<std::uint32_t>* expected = nullptr;
    if (s->ptr[i].compare_exchange_strong(expected, word,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
      return static_cast<int>(i);
    }
  }
  return -1;  // all 64 slots taken; caller stays on the spin path
}

void ParkBay::unregister_parker(int slot) noexcept {
  if (slot < 0) return;
  Slots* s = slots_.load(std::memory_order_acquire);
  if (s == nullptr) return;
  s->ptr[static_cast<std::uint32_t>(slot)].store(
      nullptr, std::memory_order_release);
}

void ParkBay::wake_registered(
    const std::atomic<std::uint32_t>* skip) noexcept {
  Slots* s = slots_.load(std::memory_order_acquire);
  if (s == nullptr) return;
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    std::atomic<std::uint32_t>* w =
        s->ptr[i].load(std::memory_order_acquire);
    // Advisory broadcast: the word is an ADDRESS to the futex layer,
    // never dereferenced, so racing a waiter that already woke,
    // deregistered, and freed its queue node is harmless.
    if (w != nullptr && w != skip) futex_wake_all(w);
  }
}

void ParkBay::misuse_wake() noexcept {
  ParkStats::instance().misuse_wakes.fetch_add(
      1, std::memory_order_relaxed);
  wake_registered(nullptr);
}

void ParkBay::hand_off(std::atomic<std::uint32_t>& word) noexcept {
  // Only the grant moves a parked word, so a successor seen parked here
  // is still parked at wake_word's exchange. The mark is stored before
  // that exchange, so the successor sees it once it sees the grant.
  // A successor that parks between this load and the exchange goes
  // unmarked: one hand-off under the old rule, not a lost wake.
  const bool asleep = word.load(std::memory_order_relaxed) == kWordParked;
  if (asleep) transit_.store(&word, std::memory_order_relaxed);
  wake_word(word);
  if (asleep) wake_registered(&word);
}

// ---------------------------------------------------------------------
// wait_word: the queue locks' contended slow path.
// ---------------------------------------------------------------------

std::uint32_t wait_word(std::atomic<std::uint32_t>& word,
                        ParkBay* bay) noexcept {
  platform::SpinWait w;
  std::uint32_t v;
  // The spin phase: true once granted (in `v`), false when the budget
  // ran out with no grant in transit, i.e. it is time to park.
  auto spin = [&]() {
    const std::uint32_t budget = park_spins();
    for (std::uint32_t i = 0;; ++i) {
      v = word.load(std::memory_order_acquire);
      if (v != kWordWaiting && v != kWordParked) return true;
      if (i >= budget) {
        if (bay == nullptr || !bay->grant_in_transit()) return false;
        i = 0;
      }
      w.pause();
    }
  };
  if (spin()) return v;
  int slot = -1;
  if (parking_enabled() && bay != nullptr) {
    slot = bay->register_parker(&word);
  }
  if (slot < 0) {
    // Parking off, or the bay is full. An unregistered sleeper would
    // be invisible to misuse_wake — never park unrescuable; keep the
    // (yielding, via SpinWait) spin loop instead.
    while (!spin()) {
    }
    return v;
  }
  ParkStats& g = ParkStats::instance();
  ThreadParkTally& tally = ThreadParkTally::mine();
  for (;;) {
    std::uint32_t cur = kWordWaiting;
    if (!word.compare_exchange_strong(cur, kWordParked,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire) &&
        cur != kWordParked) {
      v = cur;  // granted between the spin phase and the flip
      break;
    }
    // The word is kWordParked (flipped by us now or left from the
    // previous round after a wake without a grant); the releaser's
    // exchange will see it and futex_wake.
    const bool trace = lockdep::span_tracing_enabled();
    const std::uint64_t t0 = runtime::now_ns_fast();
    bay->note_parked();
    g.currently_parked.fetch_add(1, std::memory_order_relaxed);
    const WaitResult r = futex_wait(&word, kWordParked, nullptr);
    g.currently_parked.fetch_sub(1, std::memory_order_relaxed);
    bay->note_unparked();
    const std::uint64_t t1 = runtime::now_ns_fast();
    const std::uint64_t dt = t1 - t0;
    if (trace) emit_park_record(&word, tally.cls_hint, t0, t1);
    // kValueChanged never slept (the hand-off raced ahead of the
    // syscall) — not a park, just a cheap detour through the kernel.
    const bool slept = r != WaitResult::kValueChanged;
    if (slept) {
      tally.parks += 1;
      tally.park_ns += dt;
      g.parks.fetch_add(1, std::memory_order_relaxed);
    }
    v = word.load(std::memory_order_acquire);
    if (v != kWordWaiting && v != kWordParked) {
      if (slept) {
        tally.wakes += 1;
        g.wakes.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    // Woken without a grant: a hand-off to another parked waiter of
    // this lock, a misuse_wake rescue broadcast, a signal, or futex
    // spuriousness. Spin again before re-parking.
    g.wakes_spurious.fetch_add(1, std::memory_order_relaxed);
    if (spin()) break;
  }
  bay->grant_arrived(&word);
  bay->unregister_parker(slot);
  return v;
}

// ---------------------------------------------------------------------
// park_until: one bounded sleep for the timed paths.
// ---------------------------------------------------------------------

bool park_until(const std::atomic<std::uint32_t>& word,
                std::uint32_t expected,
                std::uint64_t deadline_ns) noexcept {
  ParkStats& g = ParkStats::instance();
  ThreadParkTally& tally = ThreadParkTally::mine();
  if (platform::monotonic_now_ns() >= deadline_ns) {
    // Already expired — a zero-length kernel wait would still syscall.
    g.timeouts.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const bool trace = lockdep::span_tracing_enabled();
  const std::uint64_t t0 = runtime::now_ns_fast();
  g.currently_parked.fetch_add(1, std::memory_order_relaxed);
  // The deadline goes to the kernel (or the fallback's monotonic
  // condvar) ABSOLUTE — not re-derived as a relative duration — so
  // the wait expires at deadline_ns exactly, however many spurious
  // trips precede it.
  const WaitResult r = futex_wait_until(&word, expected, deadline_ns);
  g.currently_parked.fetch_sub(1, std::memory_order_relaxed);
  const std::uint64_t t1 = runtime::now_ns_fast();
  const std::uint64_t dt = t1 - t0;
  if (trace) emit_park_record(&word, tally.cls_hint, t0, t1);
  if (r != WaitResult::kValueChanged) {
    tally.parks += 1;
    tally.park_ns += dt;
    g.parks.fetch_add(1, std::memory_order_relaxed);
  }
  if (r == WaitResult::kTimedOut) {
    g.timeouts.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (r == WaitResult::kWoken) {
    tally.wakes += 1;
    g.wakes.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

}  // namespace resilock::park
