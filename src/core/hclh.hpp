// HCLH: hierarchical CLH queue lock (Luchangco, Nussbaum & Shavit 2006;
// implementation follows Herlihy & Shavit, "The Art of Multiprocessor
// Programming", §7.8, plus a local-queue reset at splice time).
// Paper §3.8.2.
//
// Each NUMA domain keeps a local CLH-style queue; the thread that finds
// itself at the head of a local batch becomes the *cluster master* and
// splices the whole batch into the global queue with one SWAP. A node's
// packed state word carries (successor_must_wait | tail_when_spliced |
// cluster id): a waiter spins on its predecessor until either the
// predecessor releases within the same cluster (the waiter owns the lock)
// or the predecessor turns out to be a spliced batch tail / foreign node
// (the waiter becomes the next cluster master).
//
// Unbalanced-unlock behavior: *relatively immune* (paper Table 1 — the
// only queue lock with no defect). The key deviation from CLH is that
// ownership of the predecessor node transfers during acquire(), not
// release(); release() is a single store clearing successor_must_wait on
// a node that, on a misuse, is simply not enqueued — no thread observes
// the store. (The paper's caveat: the caller must not dig out an old
// qnode it previously owned, which the Context API here prevents.)
//
// Known caveat inherited from the published algorithm: recycled nodes can
// in principle be observed by a very stale local-queue reader; the splice
// here resets the local queue (CAS to null) to shrink that window. See
// tests/test_hierarchical.cpp for the bounded-stress validation.
//
// Lockdep attribution: the two levels of the queue hierarchy get one
// shared LockClassKey each per lock instance — "hclh.level0" (the
// global queue, root) and "hclh.level1" (the per-cluster local queues,
// which all share the level's class). A granted thread logically holds
// BOTH levels (its batch position and the global lock), so both enter
// the held record as lockdep-only entries; the cluster master's
// local→global splice is edge-free (the local class rides the skip
// set), and a within-cluster grant inherits the global level with no
// blocking attempt and no edges — the exact analogue of the cohort
// combinator's top_granted path, one level down the generalization
// ladder from the arbitrary-depth HMCS trees.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/resilience.hpp"
#include "core/verify_access.hpp"
#include "lockdep/class_key.hpp"
#include "platform/cacheline.hpp"
#include "platform/spin.hpp"
#include "platform/thread_registry.hpp"
#include "platform/topology.hpp"

namespace resilock {

// Per-level class labels for the two-level HCLH queue hierarchy.
inline constexpr const char* kHclhLevelLabels[] = {"hclh.level0",
                                                   "hclh.level1"};

template <Resilience R>
class BasicHclhLock {
  static constexpr std::uint32_t kSuccMustWait = 1u << 31;
  static constexpr std::uint32_t kTailWhenSpliced = 1u << 30;
  static constexpr std::uint32_t kClusterMask = kTailWhenSpliced - 1;

 public:
  struct alignas(platform::kCacheLineSize) QNode {
    std::atomic<std::uint32_t> state{0};
  };

  class Context {
   public:
    Context() : curr_(new QNode), pred_(nullptr) {}
    ~Context() { delete curr_; }
    Context(const Context&) = delete;
    Context& operator=(const Context&) = delete;

   private:
    friend class BasicHclhLock;
    friend struct VerifyAccess;
    QNode* curr_;
    QNode* pred_;
  };

  explicit BasicHclhLock(
      const platform::Topology& topo = platform::Topology::host_default())
      : topo_(topo),
        global_tail_(new QNode),
        local_tails_(std::make_unique<
                     platform::CacheLineAligned<std::atomic<QNode*>>[]>(
            topo.num_domains())) {
    // Global dummy: released state, so the first master proceeds.
    global_tail_.load(std::memory_order_relaxed)
        ->state.store(0, std::memory_order_relaxed);
    for (std::uint32_t d = 0; d < topo.num_domains(); ++d)
      local_tails_[d].value.store(nullptr, std::memory_order_relaxed);
  }

  ~BasicHclhLock() {
    delete global_tail_.load(std::memory_order_relaxed);
    local_key_.retire();
    global_key_.retire();
  }
  BasicHclhLock(const BasicHclhLock&) = delete;
  BasicHclhLock& operator=(const BasicHclhLock&) = delete;

  void acquire(Context& ctx) {
    const std::uint32_t cluster = topo_.domain_of(platform::self_pid());
    const bool dep = lockdep::lockdep_enabled();
    const void* const local_id = &local_tails_[cluster];
    lockdep::ClassId local_cls = lockdep::kInvalidClass;
    if (dep) {
      // Edges from app-held locks to the local level, before the
      // enqueue can block on a predecessor's grant.
      local_cls = local_key_.ensure(kHclhLevelLabels[1]);
      lockdep::on_acquire_attempt(local_id, local_cls);
    }
    QNode* const my = ctx.curr_;
    my->state.store(kSuccMustWait | cluster, std::memory_order_relaxed);
    auto& local = local_tails_[cluster].value;
    QNode* const my_pred = local.exchange(my, std::memory_order_acq_rel);
    if (my_pred != nullptr) {
      if (wait_for_grant_or_cluster_master(my_pred, cluster)) {
        ctx.pred_ = my_pred;  // lock handed over within the cluster
        if (dep) {
          // Granted within the cluster: the thread holds its batch
          // position AND the global lock — the latter inherited with
          // no blocking attempt, hence no edges (cohort top_granted
          // analogue).
          lockdep::on_acquired(local_id, local_cls);
          lockdep::on_acquired(&global_tail_,
                               global_key_.ensure(kHclhLevelLabels[0]));
        }
        return;
      }
    }
    // Cluster master: splice the local batch into the global queue.
    if (dep) {
      lockdep::on_acquired(local_id, local_cls);
      // The splice is the internal child→parent climb: edge-free (the
      // local class rides the skip set); app-held locks still source
      // their edges to the global level.
      lockdep::on_acquire_attempt(&global_tail_,
                                  global_key_.ensure(kHclhLevelLabels[0]),
                                  0, false, AccessMode::kExclusive,
                                  local_cls);
    }
    QNode* const local_tail = local.load(std::memory_order_acquire);
    // Reset the local queue if nobody arrived after the batch tail, so
    // later arrivals start a fresh batch instead of chaining onto a
    // node that is about to be recycled.
    QNode* expected = local_tail;
    local.compare_exchange_strong(expected, nullptr,
                                  std::memory_order_acq_rel,
                                  std::memory_order_relaxed);
    QNode* const global_pred =
        global_tail_.exchange(local_tail, std::memory_order_acq_rel);
    local_tail->state.fetch_or(kTailWhenSpliced, std::memory_order_acq_rel);
    platform::SpinWait w;
    while (global_pred->state.load(std::memory_order_acquire) &
           kSuccMustWait) {
      w.pause();
    }
    ctx.pred_ = global_pred;
    if (dep) {
      lockdep::on_acquired(&global_tail_,
                           global_key_.ensure(kHclhLevelLabels[0]));
    }
  }

  bool release(Context& ctx) {
    // The caller stops holding both levels. Not gated on
    // lockdep_enabled(): level entries recorded while tracking was on
    // must come off regardless (no-ops when never recorded).
    lockdep::on_released(&global_tail_);
    lockdep::on_released(
        &local_tails_[topo_.domain_of(platform::self_pid())]);
    // A single store — HCLH returns the predecessor node from acquire(),
    // so release has no queue surgery left to do (§3.8.2).
    ctx.curr_->state.fetch_and(~kSuccMustWait, std::memory_order_release);
    if (ctx.pred_ != nullptr) {
      ctx.curr_ = ctx.pred_;  // adopt the predecessor's node
      ctx.pred_ = nullptr;
    }
    return true;
  }

  // Per-level lockdep surface: level 0 = the global queue, level 1 =
  // the per-cluster local queues (one shared class across clusters).
  // kInvalidClass before the level's first tracked acquisition.
  static constexpr std::uint32_t kTrackedLevels = 2;
  std::uint32_t tracked_levels() const { return kTrackedLevels; }
  lockdep::ClassId level_class(std::uint32_t level) const {
    return level == 0 ? global_key_.id() : local_key_.id();
  }

  static constexpr Resilience resilience() { return R; }

 private:
  friend struct VerifyAccess;

  // True -> the predecessor released the lock to us. False -> the
  // predecessor is a spliced tail or foreign node: we are cluster master.
  bool wait_for_grant_or_cluster_master(const QNode* pred,
                                        std::uint32_t my_cluster) {
    platform::SpinWait w;
    for (;;) {
      const std::uint32_t s = pred->state.load(std::memory_order_acquire);
      const std::uint32_t cluster = s & kClusterMask;
      const bool tws = (s & kTailWhenSpliced) != 0;
      const bool smw = (s & kSuccMustWait) != 0;
      if (cluster == my_cluster && !tws && !smw) return true;
      if (cluster != my_cluster || tws) return false;
      w.pause();
    }
  }

  platform::Topology topo_;  // by value: 8 bytes, no lifetime coupling
  std::atomic<QNode*> global_tail_;
  std::unique_ptr<platform::CacheLineAligned<std::atomic<QNode*>>[]>
      local_tails_;
  // Per-level shared lockdep classes, owned by the lock (see the
  // header comment); &global_tail_ / &local_tails_[cluster] serve as
  // the levels' held-record keys.
  lockdep::LockClassKey global_key_;
  lockdep::LockClassKey local_key_;
};

using HclhLock = BasicHclhLock<kOriginal>;
// HCLH needs no fix (paper Table 1: "not applicable"); the alias exists
// so the evaluation harness can treat every lock uniformly.
using HclhLockResilient = BasicHclhLock<kResilient>;

}  // namespace resilock
