#include "interpose/preload_registry.hpp"

#include <pthread.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "interpose/reentry.hpp"
#include "platform/spin.hpp"

namespace resilock::interpose {

namespace {

// One node per distinct lock address ever seen. `state` is the only
// field readers synchronize on: kLive is release-published after the
// handle is fully constructed, so an acquire load of kLive makes the
// handle visible. Nodes are never freed (see the header's rationale).
template <typename Handle>
struct Node {
  const void* key;
  Handle handle{nullptr};
  std::atomic<int> state{0};  // kTombstone, kLive or kPassThrough
  Node* next = nullptr;       // written before head publication
};

constexpr int kTombstone = 0;
constexpr int kLive = 1;
constexpr int kPassThrough = 2;  // glibc keeps the lock; no handle

// A Traits decides what adoption builds. classify(addr) reads the app's
// lock and returns an outcome in [0, kOutcomes): below kBuilt, the kind
// of handle make(h, kind) constructs (nonzero on failure); from kBuilt
// on, the reason glibc keeps the lock (no handle, every operation
// forwarded).

// glibc keeps a mutex's type in the lock's own bytes, written by
// pthread_mutex_init or a static initializer, and never changes it. The
// bits above the low two (the type) are protocol flags, glibc-internal
// (nptl/pthreadP.h): ROBUST_NORMAL_NP 16, PRIO_INHERIT_NP 32,
// PRIO_PROTECT_NP 64, PSHARED_BIT 128. A mutex with any of them stays
// glibc's: the shield cannot report a dead owner, boost a priority or
// exclude another process. glibc sets the pshared bit on every robust
// mutex too, so the reasons are tested in this order.
struct MutexTraits {
  using Handle = rl_mutex_t;
  static constexpr const char* kKind = "mutex";
  enum Outcome {
    kShielded,
    kBuilt,
    kRobust = kBuilt,
    kPrioInherit,
    kPrioProtect,
    kPshared,
    kOutcomes
  };

  static int classify(const void* addr) {
    const int kind = static_cast<const pthread_mutex_t*>(addr)->__data.__kind;
    // glibc's destroy stores -1; a lock on it is the app's UB, which the
    // shield has always taken in.
    if (kind < 0) return kShielded;
    if ((kind & 16) != 0) return kRobust;
    if ((kind & 32) != 0) return kPrioInherit;
    if ((kind & 64) != 0) return kPrioProtect;
    if ((kind & 128) != 0) return kPshared;
    return kShielded;
  }
  static int make(Handle* h, int) { return rl_mutex_init(h, nullptr, 1); }
  static void destroy(Handle* h) { rl_mutex_destroy(h); }
};

// glibc keeps an rwlock's kind and pshared flag in the lock's own
// bytes, written by pthread_rwlock_init or by a static initializer
// (PTHREAD_RWLOCK_WRITER_NONRECURSIVE_INITIALIZER_NP stores kind 2), and
// never changes them afterwards. Adoption builds the C-RW variant that
// keeps the kind's promise: PREFER_READER_NP (0, the default) and
// PREFER_WRITER_NP (1, which glibc runs as reader preference) get
// C-RW-RP, PREFER_WRITER_NONRECURSIVE_NP (2) gets C-RW-WP. A pshared
// lock stays glibc's: another process may operate on the same bytes.
struct RwlockTraits {
  using Handle = rl_rwlock_t;
  static constexpr const char* kKind = "rwlock";
  // The C-RW variants, named by their rl_rwlock_init preference. The
  // registry counts adoptions by the variant built, so the counts say
  // what runs (classify never picks C-RW-NP).
  enum Outcome {
    kNeutral,
    kReaderPref,
    kWriterPref,
    kBuilt,
    kPshared = kBuilt,
    kOutcomes
  };
  static constexpr const char* kPreference[kBuilt] = {"np", "rp", "wp"};

  static int classify(const void* addr) {
    const auto& d = static_cast<const pthread_rwlock_t*>(addr)->__data;
    if (d.__shared != 0) return kPshared;
    return d.__flags == PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP
               ? kWriterPref
               : kReaderPref;
  }
  static int make(Handle* h, int variant) {
    return rl_rwlock_init(h, kPreference[variant]);
  }
  static void destroy(Handle* h) { rl_rwlock_destroy(h); }
};

template <typename Traits>
class Table {
  using Handle = typename Traits::Handle;
  using N = Node<Handle>;

 public:
  // The handle for `addr`, adopting it when the address is unknown or
  // tombstoned; nullptr for a lock glibc keeps.
  Handle* adopt_or_get(const void* addr) {
    const std::size_t b = bucket_of(addr);
    if (N* n = find_in(b, addr); n != nullptr) {
      const int s = n->state.load(std::memory_order_acquire);
      if (s != kTombstone) return handle_of(n, s);
    }
    BucketLock lk(buckets_[b]);
    N* n = find_or_new(b, addr);
    if (n->state.load(std::memory_order_relaxed) == kTombstone) {
      make_handle(n);
      adopted_.fetch_add(1, std::memory_order_relaxed);
    }
    return handle_of(n, n->state.load(std::memory_order_relaxed));
  }

  Handle* find(const void* addr) {
    N* n = find_in(bucket_of(addr), addr);
    return n == nullptr
               ? nullptr
               : handle_of(n, n->state.load(std::memory_order_acquire));
  }

  Handle* init(const void* addr) {
    const std::size_t b = bucket_of(addr);
    BucketLock lk(buckets_[b]);
    N* n = find_or_new(b, addr);
    // Re-init of a live address: honor it (the old handle's state is
    // the caller's UB to own, the fresh handle is ours to provide).
    retire(n);
    make_handle(n);
    inits_.fetch_add(1, std::memory_order_relaxed);
    return handle_of(n, n->state.load(std::memory_order_relaxed));
  }

  // An address never adopted (e.g. destroy of an unused static
  // initializer) or passed through has no handle of ours to tear down.
  int destroy(const void* addr) {
    const std::size_t b = bucket_of(addr);
    BucketLock lk(buckets_[b]);
    if (N* n = find_in(b, addr); n != nullptr && retire(n)) {
      destroyed_.fetch_add(1, std::memory_order_relaxed);
    }
    return 0;
  }

  std::uint64_t adopted() const noexcept { return load(adopted_); }
  std::uint64_t inits() const noexcept { return load(inits_); }
  std::uint64_t destroyed() const noexcept { return load(destroyed_); }
  std::uint64_t nodes() const noexcept { return load(nodes_); }
  // Adoptions and inits by classify()'s outcome.
  std::uint64_t outcome(int kind) const noexcept {
    return load(outcomes_[kind]);
  }

 private:
  static constexpr std::size_t kBuckets = 2048;

  struct Bucket {
    std::atomic<N*> head{nullptr};
    std::atomic_flag mu = ATOMIC_FLAG_INIT;
  };

  class BucketLock {
   public:
    explicit BucketLock(Bucket& b) : b_(b) {
      platform::SpinWait w;
      while (b_.mu.test_and_set(std::memory_order_acquire)) w.pause();
    }
    ~BucketLock() { b_.mu.clear(std::memory_order_release); }
    BucketLock(const BucketLock&) = delete;
    BucketLock& operator=(const BucketLock&) = delete;

   private:
    Bucket& b_;
  };

  static std::size_t bucket_of(const void* addr) noexcept {
    auto h = reinterpret_cast<std::uintptr_t>(addr);
    h ^= h >> 16;
    h *= 0x9E3779B97F4A7C15ull;  // Fibonacci mix
    return (h >> 32) & (kBuckets - 1);
  }

  N* find_in(std::size_t b, const void* addr) const noexcept {
    for (N* n = buckets_[b].head.load(std::memory_order_acquire);
         n != nullptr; n = n->next) {
      if (n->key == addr) return n;
    }
    return nullptr;
  }

  static std::uint64_t load(const std::atomic<std::uint64_t>& c) noexcept {
    return c.load(std::memory_order_relaxed);
  }

  static Handle* handle_of(N* n, int state) noexcept {
    return state == kLive ? &n->handle : nullptr;
  }

  // Caller holds the bucket lock. A new node is published tombstoned;
  // only the kLive store makes the handle reachable to lock-free
  // readers.
  N* find_or_new(std::size_t b, const void* addr) {
    if (N* n = find_in(b, addr); n != nullptr) return n;
    N* n = new (std::nothrow) N;
    if (n == nullptr) {
      std::fprintf(stderr,
                   "resilock_preload: out of memory adopting %p\n", addr);
      std::abort();
    }
    n->key = addr;
    n->next = buckets_[b].head.load(std::memory_order_relaxed);
    buckets_[b].head.store(n, std::memory_order_release);
    nodes_.fetch_add(1, std::memory_order_relaxed);
    return n;
  }

  // Caller holds the bucket lock. Tombstones the node; true when it
  // held a handle, which is then destroyed.
  bool retire(N* n) {
    const int s = n->state.load(std::memory_order_relaxed);
    if (s == kTombstone) return false;
    n->state.store(kTombstone, std::memory_order_release);
    if (s != kLive) return false;
    Traits::destroy(&n->handle);
    return true;
  }

  // Caller holds the bucket lock; node state is kTombstone.
  void make_handle(N* n) {
    const int kind = Traits::classify(n->key);
    outcomes_[kind].fetch_add(1, std::memory_order_relaxed);
    if (kind >= Traits::kBuilt) {
      n->state.store(kPassThrough, std::memory_order_release);
      return;
    }
    {
      // Guarded: handle construction runs resilock machinery (shield
      // and lockdep setup, telemetry autostart) whose own pthread calls
      // must reach glibc, not the interposition layer that called us.
      PreloadReentryScope guard;
      if (Traits::make(&n->handle, kind) != 0) {
        std::fprintf(stderr,
                     "resilock_preload: cannot construct %s for %p\n",
                     Traits::kKind, n->key);
        std::abort();
      }
    }
    n->state.store(kLive, std::memory_order_release);
  }

  Bucket buckets_[kBuckets];
  std::atomic<std::uint64_t> adopted_{0};  // lazy adoptions
  std::atomic<std::uint64_t> inits_{0};    // eager init routes
  std::atomic<std::uint64_t> destroyed_{0};
  std::atomic<std::uint64_t> nodes_{0};
  std::atomic<std::uint64_t> outcomes_[Traits::kOutcomes] = {};
};

}  // namespace

struct PreloadRegistry::Impl {
  Table<MutexTraits> mutexes;
  Table<RwlockTraits> rwlocks;
};

PreloadRegistry::PreloadRegistry() : impl_(new Impl) {}

PreloadRegistry& PreloadRegistry::instance() {
  static PreloadRegistry* inst = new PreloadRegistry;
  return *inst;
}

rl_mutex_t* PreloadRegistry::mutex_for(const void* addr) {
  return impl_->mutexes.adopt_or_get(addr);
}

rl_mutex_t* PreloadRegistry::find_mutex(const void* addr) {
  return impl_->mutexes.find(addr);
}

rl_mutex_t* PreloadRegistry::init_mutex(const void* addr) {
  return impl_->mutexes.init(addr);
}

int PreloadRegistry::destroy_mutex(const void* addr) {
  return impl_->mutexes.destroy(addr);
}

rl_rwlock_t* PreloadRegistry::rwlock_for(const void* addr) {
  return impl_->rwlocks.adopt_or_get(addr);
}

rl_rwlock_t* PreloadRegistry::init_rwlock(const void* addr) {
  return impl_->rwlocks.init(addr);
}

int PreloadRegistry::destroy_rwlock(const void* addr) {
  return impl_->rwlocks.destroy(addr);
}

PreloadRegistryStats PreloadRegistry::stats() const noexcept {
  const Table<MutexTraits>& m = impl_->mutexes;
  const Table<RwlockTraits>& rw = impl_->rwlocks;
  PreloadRegistryStats s;
  s.adopted_mutexes = m.adopted();
  s.init_mutexes = m.inits();
  s.destroyed_mutexes = m.destroyed();
  s.adopted_rwlocks = rw.adopted();
  s.init_rwlocks = rw.inits();
  s.destroyed_rwlocks = rw.destroyed();
  s.mutexes_robust = m.outcome(MutexTraits::kRobust);
  s.mutexes_prio_inherit = m.outcome(MutexTraits::kPrioInherit);
  s.mutexes_prio_protect = m.outcome(MutexTraits::kPrioProtect);
  s.mutexes_pshared = m.outcome(MutexTraits::kPshared);
  s.rwlocks_reader_pref = rw.outcome(RwlockTraits::kReaderPref);
  s.rwlocks_writer_pref = rw.outcome(RwlockTraits::kWriterPref);
  s.rwlocks_passthrough = rw.outcome(RwlockTraits::kPshared);
  s.live_nodes = m.nodes() + rw.nodes();
  return s;
}

}  // namespace resilock::interpose
