// ShieldCore<Base>: the one ownership-tracking pipeline behind
// Shield<L> (shield.hpp) and RwShield<L> (rw_shield.hpp).
//
// The paper's generic remedy is bookkeeping in FRONT of the protocol;
// the glibc shield_arr layer (SNIPPETS.md) runs it once and takes the
// protocol's lock function as an argument. This class is that layer.
// The two shields differ only in which base operations they call and
// which AccessMode they record, so everything else lives here, once:
//
//   * interception of a re-acquire by a thread whose held-record
//     entry already holds the lock: same mode -> kReentrantRelock,
//     other mode -> kRwModeMismatch, absorbed as a recursion-depth bump;
//   * the contended-wait bracket around a blocking base operation,
//     passed in as a callable: waiter gauge, wait spans, lockstat wait
//     time, and park-tally attribution to the lockdep class;
//   * acquired/released bookkeeping: owner tags, hold spans, counters,
//     and the hold's one held-record entry (shield/held_lock_table.hpp),
//     which lockdep and lockstat share. An acquire looks it up once (a
//     fresh one is appended) and a release finds it once;
//   * the verdict pipeline (apply_policy) and release classification.
//
// Rescue rule: an absorbed RELEASE-side misuse orphans the base's
// waiters — the hand-off they wait for will never come from the
// misbehaving thread — so parked waiters are broadcast-woken to
// re-check. An absorbed acquire-side misuse keeps the hold intact and
// wakes nobody.
//
// Layout: a lock hand-off costs the new holder the base's own lines
// plus at most ONE more, the holder line right after base_: owner tags,
// the context the base was acquired with, the lockdep class and its
// key, and the acquisition / release tallies (plain stores, ordered by
// the base). A base that claims whole cache lines (alignas) gets a
// fresh line for it; a word-sized base (TAS) shares it, since its
// holder writes that word anyway. Everything any other thread writes —
// the waiter gauge that arriving threads bump, the policy, the verdict
// and misuse counters — sits on the cold line(s) after it, so waiters
// and a correct program's holders never write the same line.
//
// A base with a ReadIndicator (the C-RW family, core/rw/crw.hpp) makes
// this a read/write core: its trace events carry the hold mode and the
// indicator's reader estimate, and live readers count toward the
// verdict's contention signal. Mutex events carry neither.
//
// The §5 escape hatch is honored by the callers: with
// misuse_checks_enabled() == false nothing is intercepted.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/access_mode.hpp"
#include "core/contention.hpp"
#include "core/generic.hpp"
#include "core/resilience.hpp"
#include "lockdep/class_key.hpp"
#include "lockdep/lockdep.hpp"
#include "observe/lockstat.hpp"
#include "park/parking_lot.hpp"
#include "platform/cacheline.hpp"
#include "platform/thread_registry.hpp"
#include "response/response.hpp"
#include "runtime/timer.hpp"
#include "shield/held_lock_table.hpp"
#include "shield/policy.hpp"
#include "shield/shield_stats.hpp"

// The lockstat call site of the acquire entry point this is expanded
// in. It must be read in the body the application called: a helper
// would name the shield itself. nullptr while lockstat is off.
#define RESILOCK_SHIELD_SITE()                                         \
  (::resilock::observe::lockstat_enabled()                             \
       ? ::resilock::observe::current_site(RESILOCK_RETURN_ADDRESS()) \
       : nullptr)

namespace resilock::shield {

// Misuse kinds and trace kinds share one tag space.
static_assert(static_cast<int>(response::ResponseEvent::kUnbalancedUnlock) ==
              static_cast<int>(MisuseKind::kUnbalancedUnlock));
static_assert(static_cast<int>(response::ResponseEvent::kReentrantRelock) ==
              static_cast<int>(MisuseKind::kReentrantRelock));
static_assert(static_cast<int>(response::ResponseEvent::kUnbalancedReadUnlock) ==
              static_cast<int>(lockdep::EventKind::kUnbalancedReadUnlock));
static_assert(static_cast<int>(response::ResponseEvent::kRwModeMismatch) ==
              static_cast<int>(lockdep::EventKind::kRwModeMismatch));
static_assert(static_cast<int>(response::ResponseEvent::kNonOwnerWriteUnlock) ==
              static_cast<int>(lockdep::EventKind::kNonOwnerWriteUnlock));

// Which lockdep class a shield registers under.
enum class ClassMode : std::uint8_t {
  kInstance,  // its own class, retired with the shield
  kKeyed,     // the LockClassKey's class, shared by every keyed peer
  kShared,    // its own class, registered shared (many concurrent holders)
};

struct ShieldSetup {
  ClassMode classes = ClassMode::kInstance;
  lockdep::LockClassKey* key = nullptr;  // the class owner when kKeyed
  std::optional<ShieldPolicy> policy = std::nullopt;  // set: pinned
  const char* label = nullptr;           // lockdep class label
};

template <typename Base, typename Ctx = context_of_t<Base>>
class ShieldCore {
 public:
  using Context = Ctx;

  ShieldCore(const ShieldCore&) = delete;
  ShieldCore& operator=(const ShieldCore&) = delete;

  // -- policy ----------------------------------------------------------
  ShieldPolicy policy() const {
    return policy_.load(std::memory_order_relaxed);
  }
  // An explicitly set policy pins this instance: RESILOCK_POLICY rules
  // no longer apply to it (same precedence as the policy constructor).
  void set_policy(ShieldPolicy p) {
    policy_.store(p, std::memory_order_relaxed);
    policy_explicit_.store(true, std::memory_order_relaxed);
  }

  // -- lockdep ---------------------------------------------------------
  // Stable human-readable class label for lockdep reports (the registry
  // passes the algorithm name). Set before first use; not synchronized.
  void set_lockdep_label(const char* label) { lockdep_label_ = label; }

  // kInvalidClass before the first tracked acquire, kUntrackedClass if
  // the class table was full.
  lockdep::ClassId lockdep_class() const {
    return lockdep_class_.load(std::memory_order_acquire);
  }

  // -- telemetry -------------------------------------------------------
  // Live contention — the signals the response engine keys escalation
  // off (core/contention.hpp). Only threads that found the lock held
  // register as waiters.
  std::uint32_t waiters() const { return contention_.waiters(); }
  std::uint64_t contended_total() const {
    return contention_.contended_total();
  }
  ContentionSnapshot contention() const { return contention_.snapshot(); }

  // Calling thread's view of this lock (depth 0 == not held).
  std::uint32_t held_depth() const {
    return HeldLockTable::mine().depth(this);
  }
  AccessMode held_mode() const { return HeldLockTable::mine().mode_of(this); }

  Base& base() { return base_; }
  const Base& base() const { return base_; }

  static constexpr Resilience resilience() { return Base::resilience(); }

 protected:
  using Event = response::ResponseEvent;
  static constexpr std::uint32_t kNoOwner = 0;
  // Where the holder line starts (see the layout note at the top).
  static constexpr std::size_t kHolderAlign =
      alignof(Base) >= platform::kCacheLineSize
          ? platform::kCacheLineSize
          : alignof(std::atomic<std::uint32_t>);
  static constexpr bool kReadWrite =
      requires(const Base& b) { b.indicator().approx_readers(); };

  template <typename... Args>
  explicit ShieldCore(const ShieldSetup& setup, Args&&... args)
      : base_(std::forward<Args>(args)...),
        class_mode_(setup.classes),
        lockdep_key_(setup.key),
        lockdep_label_(setup.label),
        policy_(setup.policy.value_or(default_shield_policy())),
        policy_explicit_(setup.policy.has_value()) {}

  ~ShieldCore() {
    // A keyed class belongs to the key (other instances may still use
    // it); own classes retire with their shield.
    if (class_mode_ != ClassMode::kKeyed) {
      lockdep::Graph::instance().retire_class(
          lockdep_class_.load(std::memory_order_relaxed));
    }
  }

  static std::uint32_t me() { return platform::self_pid() + 1; }

  // Live readers per the base's ReadIndicator; 0 for a mutex.
  std::uint32_t readers() const {
    if constexpr (kReadWrite) {
      return base_.indicator().approx_readers();
    } else {
      return 0;
    }
  }

  // Acquire-side interception for a thread whose entry `h` already
  // holds this lock. True: absorbed as a depth bump, the caller must
  // not touch the base. False: forward to the base (kPassthrough
  // verdict, or the §5 escape hatch is open).
  bool absorb_reacquire(HeldLockTable::Hold& h, AccessMode want) {
    if (!misuse_checks_enabled()) return false;
    const AccessMode held = h.mode;
    // A relock of the mode already held recurses; the other mode is a
    // mismatch (an upgrade would self-deadlock, and a write hold
    // already grants read permission) — absorbed on the held mode.
    const Event ev =
        held == want ? Event::kReentrantRelock : Event::kRwModeMismatch;
    if (!apply_policy(ev, held, /*release_side=*/false)) return false;
    counters_.bump(ShieldCounters::kAbsorbed);
    ++h.depth;
    return true;
  }

  // A blocking acquisition after interception: order edges at the
  // ATTEMPT (an acquisition about to close an AB/BA cycle is flagged
  // before it can wedge), the base's own acquire `op` — bracketed when
  // the caller saw the lock held — and the acquired bookkeeping.
  template <typename Op>
  void acquire_base(HeldLockTable& tbl, AccessMode mode, Context& ctx,
                    bool fresh, bool contended, const void* site, Op&& op) {
    lockdep_attempt(tbl, mode);
    if (contended) {
      wait_bracket(mode, site, op);
    } else {
      op();
    }
    note_acquired(tbl, mode, ctx, fresh, site);
  }

  // After the base granted the lock (blocking or try path). Only a
  // FRESH acquisition enters the record — appended, since the caller's
  // lookup just missed. A forwarded re-acquire (passthrough verdict or
  // §5 escape hatch) reached the base, so the base must see the
  // matching extra release too — a depth bump would swallow it (and
  // skew a counting ReadIndicator forever); it looks its entry up
  // again (the edge walk may have moved it), a cold path.
  void note_acquired(HeldLockTable& tbl, AccessMode mode, Context& ctx,
                     bool fresh, const void* site) {
    HeldLockTable::Hold* h =
        fresh ? &tbl.insert(this, {.depth = 1, .mode = mode})
              : tbl.find_held(this);
    if (h != nullptr && lockdep::lockdep_enabled()) {
      // An own class stamps the entry with its hand-off epoch, so a
      // hold that ends behind this thread's back (end_foreign_hold)
      // retires its lockdep part; shared and keyed classes name no
      // single hold.
      lockdep::on_acquired(*h, ensure_class(),
                           class_mode_ == ClassMode::kInstance);
    }
    if (mode != AccessMode::kRead) {
      owner_.store(me(), std::memory_order_relaxed);
      // Throwaway NoContexts of plain locks are never retained; a real
      // base context is what the release must hand back.
      if constexpr (!std::is_same_v<Context, NoContext>) active_ctx_ = &ctx;
      acquisitions_.bump();
    }
    if (fresh) {
      if (observe::lockstat_enabled()) {
        observe::on_acquired(*h, ensure_class(), mode, site);
      }
      if (lockdep::span_tracing_enabled()) {
        emit_span(lockdep::EventKind::kHoldBegin, mode, site);
      }
    }
  }

  bool trylock_failed() {
    if (observe::lockstat_enabled()) observe::on_trylock_fail(ensure_class());
    return false;
  }

  // The balanced release of a base hold, just before the base's own
  // release: closes the lockstat window of the thread's entry `h`
  // (depth already 0) and drops the entry. Returns the context to
  // release the base with: the one it was acquired with, even when an
  // absorbed relock handed the caller a context the base never
  // enqueued (self-deadlock bait).
  Context& note_released(HeldLockTable& tbl, HeldLockTable::Hold& h,
                         AccessMode mode, Context& ctx) {
    if (lockdep::span_tracing_enabled()) {
      emit_span(lockdep::EventKind::kHoldEnd, mode);
    }
    observe::on_released(h);
    tbl.erase(this, h);
    if (mode == AccessMode::kRead) return ctx;
    last_owner_.store(me(), std::memory_order_relaxed);
    owner_.store(kNoOwner, std::memory_order_relaxed);
    if constexpr (std::is_same_v<Context, NoContext>) {
      return ctx;
    } else {
      Context* acquired_with = std::exchange(active_ctx_, nullptr);
      return acquired_with != nullptr ? *acquired_with : ctx;
    }
  }

  // §5 escape hatch on the release side: a cross-thread release with
  // checks disabled. Clearing the owner tag lets the acquirer's stale
  // entry self-heal; end_foreign_hold retires its lockdep part at once.
  void forget_owner() {
    owner_.store(kNoOwner, std::memory_order_relaxed);
    end_foreign_hold();
  }

  // Kind of a release by a thread that does not hold the lock, from the
  // owner tags (exclusive / write side). A stale read here can at worst
  // mislabel the kind of an already-detected misuse, never miss one.
  Event classify_release() const {
    const std::uint32_t owner = owner_.load(std::memory_order_relaxed);
    if (owner != kNoOwner && owner != me()) {
      return kReadWrite ? Event::kNonOwnerWriteUnlock : Event::kNonOwnerUnlock;
    }
    if (owner == kNoOwner &&
        last_owner_.load(std::memory_order_relaxed) == me()) {
      return Event::kDoubleUnlock;
    }
    return Event::kUnbalancedUnlock;
  }

  // A release-side misuse, through the verdict pipeline. True:
  // suppressed (kAbort only returns through a verify/test abort trap),
  // the caller must not touch the base. False: kPassthrough, the caller
  // forwards to the base, misbehavior and all. `mode` is the caller's
  // hold mode, or the side of the misbehaving operation when it holds
  // nothing.
  //
  // A forwarded release ends whatever hold the base has, behind its
  // owner's back, so the lockdep part of the owner's entry is retired
  // first (a base that then refuses the release costs lockdep that
  // part, never a false edge).
  bool refuse_release(Event ev, AccessMode mode) {
    if (apply_policy(ev, mode, /*release_side=*/true)) return true;
    end_foreign_hold();
    return false;
  }

  Base base_;

  // -- the holder line: written by the exclusive / write holder only --
  // Owner tags (pid+1) of the exclusive / write side, for release
  // classification and contention — the held record, not these words,
  // decides balanced vs unbalanced.
  alignas(kHolderAlign) std::atomic<std::uint32_t> owner_{kNoOwner};
  std::atomic<std::uint32_t> last_owner_{kNoOwner};
  // Registered on first tracked acquire, retired on destruction unless
  // keyed (the key owns a shared class).
  std::atomic<lockdep::ClassId> lockdep_class_{lockdep::kInvalidClass};
  const ClassMode class_mode_;
  // Context the base was acquired with on the exclusive / write side.
  // Only the owner touches it between the base acquire and the matching
  // base release (guarded by base_); §5 hand-off releases bypass it.
  Context* active_ctx_ = nullptr;
  // Exclusive / write-side base grants, and releases (incl. absorbed).
  Tally acquisitions_;
  Tally releases_;
  lockdep::LockClassKey* const lockdep_key_;
  const char* lockdep_label_;

  // -- the cold line(s): waiters, policy, verdict and misuse counts ----
  // Live waiter gauge + cumulative contended-acquire count.
  alignas(platform::kCacheLineSize) ContentionProbe contention_;
  std::atomic<ShieldPolicy> policy_;
  // True when the policy was chosen per instance (constructor or
  // set_policy): the verdict pipeline then never overrides it.
  std::atomic<bool> policy_explicit_;
  ShieldCounters counters_;

 private:
  // Records the misuse and runs the verdict pipeline; true means
  // suppressed (see refuse_release). Only a release-side misuse
  // fires the rescue wake.
  //
  // Precedence: an explicit per-instance policy is final; otherwise the
  // response engine decides from (event, contention, lockdep state),
  // falling back to this instance's policy when no rule matches.
  bool apply_policy(Event ev, AccessMode mode, bool release_side) {
    counters_.bump_misuse(ev);
    // With lockstat on, a misuse before the first acquire must still
    // register the class, or the per-class misuse tally would
    // undercount the shield's own counters.
    const bool lockstat = observe::lockstat_enabled();
    const lockdep::ClassId cls =
        lockstat ? ensure_class()
                 : lockdep_class_.load(std::memory_order_relaxed);
    if (lockstat) observe::on_misuse(cls);
    const std::uint32_t live_readers = readers();
    response::Action action = to_action(policy());
    if (!policy_explicit_.load(std::memory_order_relaxed)) {
      response::EventContext ctx;
      ctx.waiters = contention_.waiters() + live_readers;
      ctx.waiters_parked = base_parked_waiters();
      // An rw write hold by another thread is a stake even with nobody
      // queued behind it.
      ctx.contended = ctx.waiters > 0 || (kReadWrite && owned_by_other());
      ctx.in_flagged_cycle = lockdep::Graph::instance().is_flagged(cls);
      ctx.cls = cls;
      ctx.cls_label = lockdep::Graph::instance().label_of(cls);
      action = response::ResponseEngine::instance().decide(ev, ctx, action);
    }
    // Every caught misuse becomes a timestamped trace event carrying
    // the class and the verdict (rw: also the mode and live readers).
    lockdep::TraceBuffer::instance().emit(
        static_cast<lockdep::EventKind>(static_cast<std::uint8_t>(ev)),
        this, cls, lockdep::kNoClassTag, static_cast<std::uint8_t>(action),
        trace_mode(mode), live_readers);
    if (release_side && action != response::Action::kPassthrough) {
      base_misuse_wake();
    }
    switch (action) {
      case response::Action::kAbort:
        report_misuse(ev, this);
        response::dispatch_abort(ev, this);
        // An abort trap chose to survive: degrade to suppression.
        counters_.bump(ShieldCounters::kSuppressed);
        return true;
      case response::Action::kLog:
        report_misuse(ev, this);
        [[fallthrough]];
      case response::Action::kSuppress:
        counters_.bump(ShieldCounters::kSuppressed);
        return true;
      case response::Action::kPassthrough:
        counters_.bump(ShieldCounters::kPassedThrough);
        return false;
    }
    return true;  // unreachable
  }

  static constexpr std::uint8_t trace_mode(AccessMode mode) {
    return kReadWrite ? static_cast<std::uint8_t>(mode) : lockdep::kNoMode;
  }

  bool owned_by_other() const {
    const std::uint32_t owner = owner_.load(std::memory_order_relaxed);
    return owner != kNoOwner && owner != me();
  }

  // The order-edge hook. The stake (waiters plus live readers) can be
  // an O(threads) indicator scan, so the single-lock path — empty held
  // record, where the attempt records nothing — skips it. "Held by
  // another thread" counts as contended even with no waiter: that is
  // the canonical two-thread wedge shape.
  void lockdep_attempt(const HeldLockTable& tbl, AccessMode mode) {
    if (!lockdep::lockdep_enabled()) return;
    if (tbl.held_count() == 0) return;
    lockdep::on_acquire_attempt(this, ensure_class(),
                                contention_.waiters() + readers(),
                                owned_by_other(), mode);
  }

  // The contended window of a blocking acquire: the waiter gauge, wait
  // spans (opt-in) and lockstat wait time. The park layer sits below
  // observe/ and cannot name lockdep classes, so the class is stamped
  // into the thread's park tally for the window (it rides on kParkBegin
  // spans) and the tally delta is credited to the class afterwards.
  template <typename Op>
  void wait_bracket(AccessMode mode, const void* site, Op& op) {
    const bool lockstat = observe::lockstat_enabled();
    const bool span = lockdep::span_tracing_enabled();
    const std::uint64_t wait_t0 = lockstat ? runtime::now_ns() : 0;
    if (span) emit_span(lockdep::EventKind::kWaitBegin, mode, site);
    contention_.begin_wait();
    if (lockstat || span) {
      park::ThreadParkTally& pt = park::ThreadParkTally::mine();
      const park::ThreadParkTally before = pt;
      pt.cls_hint = ensure_class();
      op();
      pt.cls_hint = before.cls_hint;
      if (lockstat && pt.parks != before.parks) {
        observe::on_parked(ensure_class(), pt.parks - before.parks,
                           pt.park_ns - before.park_ns,
                           pt.wakes - before.wakes);
      }
    } else {
      op();
    }
    contention_.end_wait();
    if (span) emit_span(lockdep::EventKind::kWaitEnd, mode, site);
    if (lockstat) {
      observe::on_contended_wait(ensure_class(),
                                 runtime::now_ns() - wait_t0);
    }
  }

  // Hold/wait span marker for the telemetry timeline (paired into
  // slices by the perfetto sink). The class tag groups traces by lock
  // class; the acquisition call site, when lockstat captured one, rides
  // to the exporters.
  void emit_span(lockdep::EventKind kind, AccessMode mode,
                 const void* site = nullptr) {
    lockdep::TraceBuffer::instance().emit(
        kind, this, lockdep_class_.load(std::memory_order_relaxed),
        lockdep::kNoClassTag, lockdep::kNoVerdict, trace_mode(mode), 0,
        reinterpret_cast<std::uint64_t>(site));
  }

  // Lazily registers the lockdep class for the chosen ClassMode. Racing
  // first acquires CAS; the loser retires its surplus id (a keyed
  // shield gets the key's one id, so its CAS cannot lose a distinct
  // one).
  lockdep::ClassId ensure_class() {
    lockdep::ClassId id = lockdep_class_.load(std::memory_order_acquire);
    if (id != lockdep::kInvalidClass) return id;
    lockdep::Graph& g = lockdep::Graph::instance();
    const lockdep::ClassId fresh =
        class_mode_ == ClassMode::kKeyed
            ? lockdep_key_->ensure(lockdep_label_)
        : class_mode_ == ClassMode::kShared
            ? g.register_shared_class(this, lockdep_label_)
            : g.register_class(this, lockdep_label_);
    lockdep::ClassId expected = lockdep::kInvalidClass;
    if (!lockdep_class_.compare_exchange_strong(
            expected, fresh, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      if (class_mode_ != ClassMode::kKeyed) g.retire_class(fresh);
      return expected;
    }
    return fresh;
  }

  // A release is about to end the current hold without its owner:
  // moving the own class's hand-off epoch retires the lockdep part of
  // the owner's entry (on_acquire_attempt clears it). Shared and keyed
  // classes stamp no epoch.
  void end_foreign_hold() {
    if (class_mode_ == ClassMode::kInstance) {
      lockdep::Graph::instance().bump_handoff_epoch(
          lockdep_class_.load(std::memory_order_relaxed));
    }
  }

  // Parking hooks, present only when the base has a parking tier;
  // other bases compile them to no-ops.
  std::uint32_t base_parked_waiters() const {
    if constexpr (requires(const Base& b) { b.parked_waiters(); }) {
      return base_.parked_waiters();
    } else {
      return 0;
    }
  }
  void base_misuse_wake() {
    if constexpr (requires(Base& b) { b.misuse_wake(); }) {
      base_.misuse_wake();
    }
  }
};

}  // namespace resilock::shield
