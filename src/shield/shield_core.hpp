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
//     passed in as a callable: waiter gauge, wait records, lockstat wait
//     time, and park-tally attribution to the lockdep class;
//   * acquired/released bookkeeping: owner tags, hold records, counters,
//     and the hold's one held-record entry (shield/held_lock_table.hpp),
//     which lockdep and lockstat share. An acquire looks it up once (a
//     fresh one is appended) and a release finds it once;
//   * the hold's queue context: the caller's own, or one lent from the
//     thread's ContextPool (core/context_pool.hpp) for the hold;
//   * the verdict pipeline (apply_policy) and release classification.
//
// Rescue rule: an absorbed RELEASE-side misuse orphans the base's
// waiters — the hand-off they wait for will never come from the
// misbehaving thread — so parked waiters are broadcast-woken to
// re-check. An absorbed acquire-side misuse keeps the hold intact and
// wakes nobody.
//
// Layout: a lock hand-off costs the new holder the base's own lines
// plus at most ONE more, and for a single-line base none. The holder
// words — owner tags, the context the base was acquired with (the low
// bit says whether the pool lent it), and the acquisition / release
// tallies, 32 bytes of plain stores ordered by the base — follow base_,
// which is [[no_unique_address]] so they may sit in its tail padding:
//   * a one-line base whose data leaves 32 bytes of the line (the MCS
//     tail and its park bay fill 32) takes them there, 32-aligned, so
//     an uncontended hold dirties one line, the one its tail CAS
//     already owns;
//   * a word-sized base (TAS) shares the holder words' line, since its
//     holder writes that word anyway;
//   * any other base, and every read/write base (the rwlock's read path
//     is measured on its own), gets a fresh line for them.
// Everything any other thread writes — the waiter gauge that arriving
// threads bump, the policy, the verdict and misuse counters — sits on
// the cold line(s) after them, and the read-mostly lockdep class, key
// and label come last, so waiters and a correct program's holders
// never write the same line beyond the base's own.
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
#include <utility>

#include "core/access_mode.hpp"
#include "core/contention.hpp"
#include "core/context_pool.hpp"
#include "core/generic.hpp"
#include "core/resilience.hpp"
#include "core/verify_access.hpp"
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
  static constexpr bool kReadWrite =
      requires(const Base& b) { b.indicator().approx_readers(); };
  // The holder words' size, and their alignment when they may share the
  // base's line (see the layout note at the top).
  static constexpr std::size_t kHolderBytes = 32;
  struct TailProbe {
    [[no_unique_address]] Base base;
    alignas(kHolderBytes) char holder[kHolderBytes];
  };
  static constexpr bool kFitsBaseLine =
      sizeof(Base) == platform::kCacheLineSize &&
      sizeof(TailProbe) == sizeof(Base);
  static constexpr std::size_t kHolderAlign =
      alignof(Base) < platform::kCacheLineSize ? alignof(std::uint32_t)
      : !kReadWrite && kFitsBaseLine           ? kHolderBytes
                                               : platform::kCacheLineSize;

  template <typename... Args>
  explicit ShieldCore(const ShieldSetup& setup, Args&&... args)
      : base_(std::forward<Args>(args)...),
        policy_(setup.policy.value_or(default_shield_policy())),
        policy_explicit_(setup.policy.has_value()),
        class_mode_(setup.classes),
        lockdep_key_(setup.key),
        lockdep_label_(setup.label) {}

  ~ShieldCore() {
    // A keyed class belongs to the key (other instances may still use
    // it); own classes retire with their shield.
    if (class_mode_ != ClassMode::kKeyed) {
      lockdep::Graph::instance().retire_class(
          lockdep_class_.load(std::memory_order_relaxed));
    }
  }

  static std::uint32_t me() { return platform::self_pid() + 1; }

  // hold_ctx_'s tag for a context the pool lent.
  static constexpr std::uintptr_t kLentBit = 1;
  static_assert(kStatelessContext<Context> || alignof(Context) > kLentBit);

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
  // the caller saw the lock held — and the acquired bookkeeping. A
  // timed wait's end reading is also the start of the hold it won.
  template <typename Op>
  void acquire_base(HeldLockTable& tbl, AccessMode mode, Context& ctx,
                    bool fresh, bool contended, const void* site, Op&& op) {
    lockdep_attempt(tbl, mode);
    std::uint64_t wait_end_ns = 0;
    if (contended) {
      wait_end_ns = wait_bracket(mode, site, op);
    } else {
      op();
    }
    note_acquired(tbl, mode, ctx, fresh, site, wait_end_ns);
  }

  // After the base granted the lock (blocking or try path). Only a
  // FRESH acquisition enters the record — appended, since the caller's
  // lookup just missed. A forwarded re-acquire (passthrough verdict or
  // §5 escape hatch) reached the base, so the base must see the
  // matching extra release too — a depth bump would swallow it (and
  // skew a counting ReadIndicator forever); it looks its entry up
  // again (the edge walk may have moved it), a cold path.
  // `wait_end_ns`: the end reading of a timed wait just before (0: none).
  void note_acquired(HeldLockTable& tbl, AccessMode mode, Context& ctx,
                     bool fresh, const void* site,
                     std::uint64_t wait_end_ns = 0) {
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
      // A stateless context is never retained; a real base context is
      // what the release must hand back (see keep_if_taken()).
      if constexpr (!kStatelessContext<Context>) {
        hold_ctx_ = reinterpret_cast<std::uintptr_t>(&ctx);
      }
      acquisitions_.bump();
    }
    if (fresh) {
      const bool lockstat = observe::lockstat_enabled();
      const bool traced = lockdep::span_tracing_enabled();
      if (lockstat || traced) {
        open_hold(*h, mode, site, lockstat, traced, wait_end_ns);
      }
    }
  }

  bool trylock_failed() {
    if (observe::lockstat_enabled()) observe::on_trylock_fail(ensure_class());
    return false;
  }

  // After an acquire of the lent shape, by the holder: a hold that took
  // the lent `ctx` keeps it until its release reclaims it; an absorbed
  // relock gives it back at once.
  void keep_if_taken(Context& ctx) {
    if constexpr (!kStatelessContext<Context>) {
      if (hold_ctx_ == reinterpret_cast<std::uintptr_t>(&ctx)) {
        hold_ctx_ |= kLentBit;
      } else {
        ContextPool<Context>::reclaim(ctx);
      }
    }
  }

  // The balanced release of a base hold: closes the timed part of the
  // thread's entry `h` (depth already 0), drops the entry and runs the
  // base release `op(ctx)`. On the exclusive / write side `ctx` is
  // the context the base was acquired with — even when an absorbed
  // relock handed the caller a context the base never enqueued
  // (self-deadlock bait) — and a lent one goes back to the pool.
  template <typename Op>
  bool release_hold(HeldLockTable& tbl, HeldLockTable::Hold& h,
                    AccessMode mode, Context* caller, Op&& op) {
    if (h.hold_begin_ns != 0) close_hold(h, mode);
    tbl.erase(this, h);
    if (mode == AccessMode::kRead) return release_unheld(caller, op);
    last_owner_.store(me(), std::memory_order_relaxed);
    owner_.store(kNoOwner, std::memory_order_relaxed);
    if constexpr (kStatelessContext<Context>) {
      return release_unheld(caller, op);
    } else {
      // Read before the base release: the next holder rewrites it.
      const std::uintptr_t held = std::exchange(hold_ctx_, 0);
      auto* const acquired_with = reinterpret_cast<Context*>(held & ~kLentBit);
      const bool lent = (held & kLentBit) != 0;
      if (acquired_with == nullptr) return release_unheld(caller, op);
      const bool ok = op(*acquired_with);
      if (lent) ContextPool<Context>::reclaim(*acquired_with);
      return ok;
    }
  }

  // A base release that ends no hold of the caller's (a read release,
  // a forwarded misuse, the §5 escape hatch): on the caller's context,
  // or on a never-held one for the lent shape, so the damage stays on
  // this lock. A hold that ends this way behind its owner's back leaves
  // the owner's lent context lent (core/context_pool.hpp).
  template <typename Op>
  static bool release_unheld(Context* caller, Op&& op) {
    if (caller != nullptr) return op(*caller);
    return ContextPool<Context>::never_held(op);
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

  [[no_unique_address]] Base base_;

  // -- the holder words: written by the exclusive / write holder only --
  // Owner tags (pid+1) of the exclusive / write side, for release
  // classification and contention — the held record, not these words,
  // decides balanced vs unbalanced.
  alignas(kHolderAlign) std::atomic<std::uint32_t> owner_{kNoOwner};
  std::atomic<std::uint32_t> last_owner_{kNoOwner};
  // Context the base was acquired with on the exclusive / write side,
  // or'ed with kLentBit when the pool lent it (contexts are at least
  // 2-aligned); 0 when none. Only the owner touches it between the base
  // acquire and the matching base release (guarded by base_); §5
  // hand-off releases bypass it.
  std::uintptr_t hold_ctx_ = 0;
  // Exclusive / write-side base grants, and releases (incl. absorbed).
  Tally acquisitions_;
  Tally releases_;

  // -- the cold line(s): waiters, policy, verdict and misuse counts ----
  // Live waiter gauge + cumulative contended-acquire count.
  alignas(platform::kCacheLineSize) ContentionProbe contention_;
  std::atomic<ShieldPolicy> policy_;
  // True when the policy was chosen per instance (constructor or
  // set_policy): the verdict pipeline then never overrides it.
  std::atomic<bool> policy_explicit_;
  ShieldCounters counters_;
  // -- read-mostly: the lockdep class, written once --
  const ClassMode class_mode_;
  // Registered on first tracked acquire, retired on destruction unless
  // keyed (the key owns a shared class).
  std::atomic<lockdep::ClassId> lockdep_class_{lockdep::kInvalidClass};
  lockdep::LockClassKey* const lockdep_key_;
  const char* lockdep_label_;

 private:
  friend struct resilock::VerifyAccess;  // layout checks

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

  // The order-edge hook. The stake (waiters plus live readers) reads
  // the cold line waiters write and, for an rwlock, scans the read
  // indicator, so it is computed only when the chain-key cache misses:
  // a known order cannot report. "Held by another thread" counts as
  // contended even with no waiter: that is the canonical two-thread
  // wedge shape.
  void lockdep_attempt(const HeldLockTable& tbl, AccessMode mode) {
    if (!lockdep::lockdep_enabled()) return;
    if (tbl.held_count() == 0) return;
    lockdep::on_acquire_attempt(this, ensure_class(), mode, [this] {
      return lockdep::EdgeStake{contention_.waiters() + readers(),
                                owned_by_other()};
    });
  }

  // The contended window of a blocking acquire: the waiter gauge, its
  // wait record (opt-in) and lockstat wait time, which share the two
  // timestamps. The park layer sits below observe/ and cannot name
  // lockdep classes, so the class is stamped into the thread's park
  // tally for the window (it rides on park records) and the tally delta
  // is credited to the class afterwards. Returns the end reading (0
  // when untimed), which open_hold() reuses as the hold's start.
  template <typename Op>
  std::uint64_t wait_bracket(AccessMode mode, const void* site, Op& op) {
    const bool lockstat = observe::lockstat_enabled();
    const bool span = lockdep::span_tracing_enabled();
    if (!lockstat && !span) {
      contention_.begin_wait();
      op();
      contention_.end_wait();
      return 0;
    }
    const std::uint64_t t0 = runtime::now_ns_fast();
    contention_.begin_wait();
    park::ThreadParkTally& pt = park::ThreadParkTally::mine();
    const park::ThreadParkTally before = pt;
    const lockdep::ClassId cls = ensure_class();
    pt.cls_hint = cls;
    op();
    pt.cls_hint = before.cls_hint;
    contention_.end_wait();
    const std::uint64_t t1 = runtime::now_ns_fast();
    if (span) {
      lockdep::TraceBuffer::instance().emit_record(
          lockdep::EventKind::kWait, this, cls, trace_mode(mode),
          reinterpret_cast<std::uint64_t>(site), t0, t1);
    }
    if (lockstat) {
      if (pt.parks != before.parks) {
        observe::on_parked(cls, pt.parks - before.parks,
                           pt.park_ns - before.park_ns,
                           pt.wakes - before.wakes);
      }
      observe::on_contended_wait(cls, t1 - t0);
    }
    return t1;
  }

  // Times a fresh hold for lockstat's sampled window and/or its trace
  // record: one timestamp here and one in close_hold(), whoever reads
  // them. After a timed wait the start is the wait's end reading
  // `wait_end_ns`, so the acquires that have waiters read the clock
  // once less inside the held window. The acquisition tally is exact;
  // only the window is sampled.
  void open_hold(HeldLockTable::Hold& h, AccessMode mode, const void* site,
                 bool lockstat, bool traced, std::uint64_t wait_end_ns) {
    bool sampled = false;
    if (lockstat) {
      const lockdep::ClassId cls = ensure_class();
      sampled = observe::on_acquired(cls, mode, site);
      if (sampled) h.cls = cls;
    }
    if (!sampled && !traced) return;
    h.sampled = sampled;
    h.traced = traced;
    h.site = reinterpret_cast<std::uint64_t>(site);
    // 0 means "not timed"; the low bit costs at most 1 ns.
    h.hold_begin_ns =
        (wait_end_ns != 0 ? wait_end_ns : runtime::now_ns_fast()) | 1;
  }

  // The balanced release of a timed hold: lockstat's window and the
  // hold record (lock-hold slice), from one end timestamp. A hold that
  // ends behind its owner's back (§5 hand-off, stale-entry self-heal)
  // never gets here, so it records neither.
  void close_hold(const HeldLockTable::Hold& h, AccessMode mode) {
    const std::uint64_t end = runtime::now_ns_fast();
    if (h.sampled) observe::on_hold_window(h.cls, h.hold_begin_ns, end);
    if (h.traced) {
      lockdep::TraceBuffer::instance().emit_record(
          lockdep::EventKind::kHold, this,
          lockdep_class_.load(std::memory_order_relaxed), trace_mode(mode),
          h.site, h.hold_begin_ns, end);
    }
  }

  // The lockdep class, registered on first use: the registered check
  // is inline, the registration out of line.
  lockdep::ClassId ensure_class() {
    const lockdep::ClassId id =
        lockdep_class_.load(std::memory_order_acquire);
    if (__builtin_expect(id != lockdep::kInvalidClass, 1)) return id;
    return register_class();
  }

  // Lazily registers the lockdep class for the chosen ClassMode. Racing
  // first acquires CAS; the loser retires its surplus id (a keyed
  // shield gets the key's one id, so its CAS cannot lose a distinct
  // one).
  [[gnu::cold, gnu::noinline]] lockdep::ClassId register_class() {
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
