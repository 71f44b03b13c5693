#include "interpose/pthread_shim.hpp"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "core/access_mode.hpp"
#include "core/mcs.hpp"
#include "core/rw/crw.hpp"
#include "observe/lockstat.hpp"
#include "park/parking_lot.hpp"
#include "platform/chrono_to_timespec.hpp"
#include "shield/rw_shield.hpp"
#include "shield/shield.hpp"
#include "telemetry/collector.hpp"

namespace resilock::interpose {

namespace {
// The one mutex: the resilient MCS lock behind the ownership shield.
using ShieldedMcs = shield::Shield<BasicMcsLock<kResilient>>;

// The C handle owns the lock plus a TimedGate: the timed entry points
// wait on the gate's epoch word (outside the queue protocol, where a
// waiter CAN abandon its wait), and every successful unlock kicks the
// gate so timed waiters re-try.
struct MutexHandle {
  MutexHandle() { lock.set_lockdep_label("shield<MCS>"); }

  ShieldedMcs lock;
  park::TimedGate gate;
};

MutexHandle* impl_of(rl_mutex_t* m) {
  return static_cast<MutexHandle*>(m->impl);
}

// The owner's own trylock is refused, as glibc refuses it, before the
// shield could absorb it as a relock. With checks off (the §5 escape
// hatch) the shield absorbs nothing and the base answers, as it does
// for the rwlocks, where a write hold handed off to another thread's
// unlock leaves the taker a stale held entry on a free lock.
bool owner_try_refused(const ShieldedMcs& l) {
  return misuse_checks_enabled() && l.held_depth() > 0;
}
}  // namespace

int rl_mutex_init(rl_mutex_t* m, const char* algorithm, int resilient) {
  if (m == nullptr || resilient == 0 ||
      (algorithm != nullptr && std::strcmp(algorithm, "MCS") != 0)) {
    return EINVAL;
  }
  // Cold path (one call per lock, not per operation): the right place
  // to bring up the collector for interposed programs that never emit
  // a misuse event but still want hold/wait spans, a trace file or
  // periodic metrics. The lockstat signal trigger installs
  // here too, so an unmodified LD_PRELOAD-ed binary answers SIGUSR2
  // with a live contention report.
  telemetry::autostart_from_env();
  observe::install_signal_trigger_from_env();
  m->impl = new MutexHandle;
  return 0;
}

int rl_mutex_lock(rl_mutex_t* m) {
  if (m == nullptr || m->impl == nullptr) return EINVAL;
  impl_of(m)->lock.acquire();
  return 0;
}

int rl_mutex_trylock(rl_mutex_t* m) {
  if (m == nullptr || m->impl == nullptr) return EINVAL;
  MutexHandle* h = impl_of(m);
  if (owner_try_refused(h->lock)) return EBUSY;
  return h->lock.try_acquire() ? 0 : EBUSY;
}

int rl_mutex_trylock_recursive(rl_mutex_t* m) {
  if (m == nullptr || m->impl == nullptr) return EINVAL;
  return impl_of(m)->lock.try_acquire() ? 0 : EBUSY;
}

int rl_mutex_timedlock(rl_mutex_t* m, const timespec* abstime) {
  if (m == nullptr || m->impl == nullptr) return EINVAL;
  if (abstime == nullptr || !platform::timespec_valid(*abstime)) {
    return EINVAL;
  }
  MutexHandle* h = impl_of(m);
  const std::uint64_t deadline =
      platform::monotonic_deadline_from_realtime(*abstime);
  return h->gate.acquire_until([h] { return h->lock.try_acquire(); },
                               deadline)
             ? 0
             : ETIMEDOUT;
}

int rl_mutex_unlock(rl_mutex_t* m) {
  if (m == nullptr || m->impl == nullptr) return EINVAL;
  MutexHandle* h = impl_of(m);
  if (!h->lock.release()) return EPERM;  // errorcheck semantics
  h->gate.on_release();
  return 0;
}

int rl_mutex_destroy(rl_mutex_t* m) {
  if (m == nullptr || m->impl == nullptr) return EBUSY;
  delete impl_of(m);
  m->impl = nullptr;
  return 0;
}

// ---------------------------------------------------------------------
// Reader-writer shim.
// ---------------------------------------------------------------------

namespace {

// Type-erased rw lock: one C-RW variant per preference, each behind the
// mode-aware shield. It is the C handle itself, so it carries the timed
// entry points' gate (see MutexHandle).
class RwAny {
 public:
  virtual ~RwAny() = default;
  virtual void rdlock() = 0;
  virtual void wrlock() = 0;
  // False iff the acquisition would have blocked (EBUSY).
  virtual bool tryrdlock() = 0;
  virtual bool trywrlock() = 0;
  // False iff a misuse was intercepted/detected (EPERM).
  virtual bool unlock() = 0;
  // True when a trylock of mode `want` by the caller's own hold must be
  // refused, as glibc refuses it: any trylock under its write hold, a
  // trywrlock under its read hold (see owner_try_refused()).
  virtual bool owner_try_refused(AccessMode want) const = 0;

  park::TimedGate gate;
};

// RwShield tracks the caller's mode, so unlock() is the shield's own
// mode-aware single entry point. The writer cohort locks plain local
// locks, so its contexts are stateless (core/context_pool.hpp): one
// instance serves every hold.
template <RwPreference P>
class ShieldedRw final : public RwAny {
  using Rw = CrwLock<kResilient, SplitReadIndicator, P,
                     CPtktTktLock<kResilient>>;
  using Context = typename Rw::Context;
  static_assert(kStatelessContext<Context>);

 public:
  void rdlock() override { rw_.rlock(ctx_); }
  void wrlock() override { rw_.wlock(ctx_); }
  bool tryrdlock() override { return rw_.try_rlock(ctx_); }
  bool trywrlock() override { return rw_.try_wlock(ctx_); }
  bool unlock() override { return rw_.unlock(ctx_); }
  bool owner_try_refused(AccessMode want) const override {
    if (!misuse_checks_enabled() || rw_.held_depth() == 0) return false;
    return want == AccessMode::kWrite || rw_.held_mode() == AccessMode::kWrite;
  }

 private:
  shield::RwShield<Rw> rw_;
  [[no_unique_address]] Context ctx_;
};

RwAny* rw_impl_of(rl_rwlock_t* rw) { return static_cast<RwAny*>(rw->impl); }

RwAny* make_rw(const char* preference) {
  const std::string_view pref =
      preference != nullptr ? std::string_view(preference) : "rp";
  if (pref == "np" || pref == "neutral") {
    return new ShieldedRw<RwPreference::kNeutral>;
  }
  if (pref == "rp" || pref == "reader") {
    return new ShieldedRw<RwPreference::kReader>;
  }
  if (pref == "wp" || pref == "writer") {
    return new ShieldedRw<RwPreference::kWriter>;
  }
  return nullptr;
}

}  // namespace

int rl_rwlock_init(rl_rwlock_t* rw, const char* preference) {
  if (rw == nullptr) return EINVAL;
  RwAny* impl = make_rw(preference);
  if (impl == nullptr) return EINVAL;
  telemetry::autostart_from_env();  // see rl_mutex_init
  observe::install_signal_trigger_from_env();
  rw->impl = impl;
  return 0;
}

int rl_rwlock_rdlock(rl_rwlock_t* rw) {
  if (rw == nullptr || rw->impl == nullptr) return EINVAL;
  rw_impl_of(rw)->rdlock();
  return 0;
}

int rl_rwlock_wrlock(rl_rwlock_t* rw) {
  if (rw == nullptr || rw->impl == nullptr) return EINVAL;
  rw_impl_of(rw)->wrlock();
  return 0;
}

int rl_rwlock_tryrdlock(rl_rwlock_t* rw) {
  if (rw == nullptr || rw->impl == nullptr) return EINVAL;
  RwAny* h = rw_impl_of(rw);
  if (h->owner_try_refused(AccessMode::kRead)) return EBUSY;
  return h->tryrdlock() ? 0 : EBUSY;
}

int rl_rwlock_trywrlock(rl_rwlock_t* rw) {
  if (rw == nullptr || rw->impl == nullptr) return EINVAL;
  RwAny* h = rw_impl_of(rw);
  if (h->owner_try_refused(AccessMode::kWrite)) return EBUSY;
  return h->trywrlock() ? 0 : EBUSY;
}

namespace {
template <typename Try>
int rw_timed(rl_rwlock_t* rw, const timespec* abstime, Try&& try_lock) {
  if (rw == nullptr || rw->impl == nullptr) return EINVAL;
  if (abstime == nullptr || !platform::timespec_valid(*abstime)) {
    return EINVAL;
  }
  const std::uint64_t deadline =
      platform::monotonic_deadline_from_realtime(*abstime);
  return rw_impl_of(rw)->gate.acquire_until(try_lock, deadline)
             ? 0
             : ETIMEDOUT;
}
}  // namespace

int rl_rwlock_timedrdlock(rl_rwlock_t* rw, const timespec* abstime) {
  return rw_timed(rw, abstime, [rw] {
    return rw_impl_of(rw)->tryrdlock();
  });
}

int rl_rwlock_timedwrlock(rl_rwlock_t* rw, const timespec* abstime) {
  return rw_timed(rw, abstime, [rw] {
    return rw_impl_of(rw)->trywrlock();
  });
}

int rl_rwlock_unlock(rl_rwlock_t* rw) {
  if (rw == nullptr || rw->impl == nullptr) return EINVAL;
  RwAny* h = rw_impl_of(rw);
  if (!h->unlock()) return EPERM;
  h->gate.on_release();
  return 0;
}

int rl_rwlock_destroy(rl_rwlock_t* rw) {
  if (rw == nullptr || rw->impl == nullptr) return EBUSY;
  delete rw_impl_of(rw);
  rw->impl = nullptr;
  return 0;
}

}  // namespace resilock::interpose
