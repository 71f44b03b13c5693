#include "interpose/pthread_shim.hpp"

#include <cerrno>
#include <memory>
#include <string>
#include <string_view>

#include "core/any_lock.hpp"
#include "core/lock_registry.hpp"
#include "core/rw/crw.hpp"
#include "interpose/transparent_mutex.hpp"
#include "observe/lockstat.hpp"
#include "park/parking_lot.hpp"
#include "platform/chrono_to_timespec.hpp"
#include "platform/env.hpp"
#include "shield/rw_shield.hpp"
#include "telemetry/collector.hpp"

namespace resilock::interpose {

namespace {
// The C handle owns the lock plus a TimedGate: the timed entry points
// wait on the gate's epoch word (outside the queue protocol, where a
// waiter CAN abandon its wait), and every successful unlock kicks the
// gate so timed waiters re-try.
struct MutexHandle {
  std::unique_ptr<AnyLock> lock;
  park::TimedGate gate;
};

MutexHandle* impl_of(rl_mutex_t* m) {
  return static_cast<MutexHandle*>(m->impl);
}
}  // namespace

bool shield_interposition_enabled() {
  // Interposed pthread programs get the ownership shield for free
  // (src/shield/): any misuse is intercepted before the protocol sees
  // it, whatever algorithm and flavor were selected. RESILOCK_SHIELD=0
  // opts out and exposes the bare algorithm.
  static const bool on = platform::env_flag("RESILOCK_SHIELD", true);
  return on;
}

std::string interposed_lock_name(std::string_view base) {
  if (shield_interposition_enabled() && !is_shielded_name(base)) {
    std::string shielded = shielded_name(base);
    if (is_lock_name(shielded)) return shielded;
  }
  return std::string(base);
}

int rl_mutex_init(rl_mutex_t* m, const char* algorithm, int resilient) {
  if (m == nullptr) return EINVAL;
  // Cold path (one call per lock, not per operation): the right place
  // to bring up the RESILOCK_TELEMETRY collector for interposed
  // programs that never emit a misuse event but still want hold/wait
  // spans and periodic metrics. The lockstat signal trigger installs
  // here too, so an unmodified LD_PRELOAD-ed binary answers SIGUSR2
  // with a live contention report.
  telemetry::autostart_from_env();
  observe::install_signal_trigger_from_env();
  const std::string_view base =
      algorithm != nullptr ? std::string_view(algorithm)
                           : std::string_view(default_algorithm());
  if (!is_lock_name(base)) return EINVAL;
  m->impl = new MutexHandle{make_lock(interposed_lock_name(base),
                                      resilient ? kResilient : kOriginal),
                            {}};
  return 0;
}

int rl_mutex_lock(rl_mutex_t* m) {
  if (m == nullptr || m->impl == nullptr) return EINVAL;
  impl_of(m)->lock->acquire();
  return 0;
}

int rl_mutex_trylock(rl_mutex_t* m) {
  if (m == nullptr || m->impl == nullptr) return EINVAL;
  return impl_of(m)->lock->try_acquire() ? 0 : EBUSY;
}

int rl_mutex_timedlock(rl_mutex_t* m, const timespec* abstime) {
  if (m == nullptr || m->impl == nullptr) return EINVAL;
  if (abstime == nullptr || !platform::timespec_valid(*abstime)) {
    return EINVAL;
  }
  MutexHandle* h = impl_of(m);
  if (!h->lock->supports_trylock()) {
    // The registry emulates this algorithm's trylock by blocking (CLH:
    // a queue slot cannot be abandoned), so the timed entry degrades
    // to a plain blocking lock — it can block past the deadline.
    h->lock->acquire();
    return 0;
  }
  const std::uint64_t deadline =
      platform::monotonic_deadline_from_realtime(*abstime);
  return h->gate.acquire_until([h] { return h->lock->try_acquire(); },
                               deadline)
             ? 0
             : ETIMEDOUT;
}

int rl_mutex_unlock(rl_mutex_t* m) {
  if (m == nullptr || m->impl == nullptr) return EINVAL;
  MutexHandle* h = impl_of(m);
  if (!h->lock->release()) return EPERM;  // errorcheck semantics
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

// Type-erased rw lock with the shim's cohorts — the rw analogue of
// AnyLockAdapter, private to the shim (the registry's AnyLock shape has
// no read side). It is the C handle itself, so it carries the timed
// entry points' gate (see MutexHandle). Those cohorts lock plain local
// locks, so their contexts are stateless (core/context_pool.hpp): any
// instance serves any hold, and the adapters keep none.
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

  park::TimedGate gate;
};

// Shielded adapter: RwShield tracks the caller's mode, so unlock() is
// the shield's own mode-aware single entry point.
template <typename Rw>
class ShieldedRwAdapter final : public RwAny {
  using Context = typename Rw::Context;
  static_assert(kStatelessContext<Context>);

 public:
  void rdlock() override { rw_.rlock(ctx_); }
  void wrlock() override { rw_.wlock(ctx_); }
  bool tryrdlock() override { return rw_.try_rlock(ctx_); }
  bool trywrlock() override { return rw_.try_wlock(ctx_); }
  bool unlock() override { return rw_.unlock(ctx_); }

 private:
  shield::RwShield<Rw> rw_;
  [[no_unique_address]] Context ctx_;
};

// Bare adapter (RESILOCK_SHIELD=0): no interception anywhere, but the
// single-unlock contract still needs to know which side to call, and
// the only state that decides it is "the caller is the writer": the
// write hold's LentHold. An unlock by anyone else forwards to runlock:
// exactly the bogus depart whose §4 consequences the bare protocol
// faithfully exhibits.
template <typename Rw>
class BareRwAdapter final : public RwAny {
  using Context = typename Rw::Context;
  static_assert(kStatelessContext<Context>);

 public:
  void rdlock() override { rw_.rlock(ctx_); }
  void wrlock() override {
    write_.acquire([this](Context& c) {
      rw_.wlock(c);
      return true;
    });
  }
  bool tryrdlock() override { return rw_.try_rlock(ctx_); }
  bool trywrlock() override {
    return write_.acquire([this](Context& c) { return rw_.try_wlock(c); });
  }
  bool unlock() override {
    if (write_.held_by_me()) {
      return write_.release([this](Context& c) { return rw_.wunlock(c); });
    }
    return rw_.runlock(ctx_);
  }

 private:
  Rw rw_;
  LentHold<Context> write_;
  [[no_unique_address]] Context ctx_;
};

RwAny* rw_impl_of(rl_rwlock_t* rw) { return static_cast<RwAny*>(rw->impl); }

template <RwPreference P, template <Resilience> class Cohort>
RwAny* make_rw_variant(bool resilient, bool shielded) {
  if (resilient) {
    using Rw =
        CrwLock<kResilient, SplitReadIndicator, P, Cohort<kResilient>>;
    if (shielded) return new ShieldedRwAdapter<Rw>();
    return new BareRwAdapter<Rw>();
  }
  using Rw = CrwLock<kOriginal, SplitReadIndicator, P, Cohort<kOriginal>>;
  if (shielded) return new ShieldedRwAdapter<Rw>();
  return new BareRwAdapter<Rw>();
}

// RESILOCK_RW_COHORT selects the writer-side cohort family. The paper's
// C-PTKT-TKT is the default; C-BO-BO (TAS-local, competitive handoff)
// is the right pick when software threads outnumber cores — a FIFO
// cohort convoys on reader arrival in neutral mode exactly the way a
// FIFO mutex convoys under oversubscription.
template <RwPreference P>
RwAny* make_rw_pref(bool resilient, bool shielded) {
  const char* c = platform::env_raw("RESILOCK_RW_COHORT");
  if (c != nullptr && std::string_view(c) == "C-BO-BO") {
    return make_rw_variant<P, CBoBoLock>(resilient, shielded);
  }
  return make_rw_variant<P, CPtktTktLock>(resilient, shielded);
}

}  // namespace

int rl_rwlock_init(rl_rwlock_t* rw, const char* preference,
                   int resilient) {
  if (rw == nullptr) return EINVAL;
  telemetry::autostart_from_env();  // see rl_mutex_init
  observe::install_signal_trigger_from_env();
  const std::string_view pref =
      preference != nullptr ? std::string_view(preference) : "rp";
  const bool shielded = shield_interposition_enabled();
  RwAny* impl = nullptr;
  if (pref == "np" || pref == "neutral") {
    impl = make_rw_pref<RwPreference::kNeutral>(resilient != 0,
                                                   shielded);
  } else if (pref == "rp" || pref == "reader") {
    impl = make_rw_pref<RwPreference::kReader>(resilient != 0,
                                                  shielded);
  } else if (pref == "wp" || pref == "writer") {
    impl = make_rw_pref<RwPreference::kWriter>(resilient != 0,
                                                  shielded);
  } else {
    return EINVAL;
  }
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
  return rw_impl_of(rw)->tryrdlock() ? 0 : EBUSY;
}

int rl_rwlock_trywrlock(rl_rwlock_t* rw) {
  if (rw == nullptr || rw->impl == nullptr) return EINVAL;
  return rw_impl_of(rw)->trywrlock() ? 0 : EBUSY;
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
