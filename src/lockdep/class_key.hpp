// Static lock-class keys, after the Linux lockdep facility of the same
// name.
//
// Lockdep classes default to one per lock INSTANCE, which is the right
// granularity for a handful of named locks but wrong for
// data-structure-heavy code: a tree with one mutex per node would (a)
// balloon the class table with one slot per node and (b) never
// see the order bug "lock node of container A, then node of container
// B" vs the reverse, because every node is its own class and every
// pairing is a fresh, cycle-free edge.
//
// A LockClassKey folds all lock instances constructed against it into
// ONE order-graph class: declare one key per container (or per lock
// role) and pass it to the keyed Shield<L> constructor:
//
//   static resilock::lockdep::LockClassKey tree_node_key("tree.node");
//   struct Node { Shield<McsLock> mu{tree_node_key}; ... };
//
// Now a million nodes occupy one class-table slot, and an AB/BA
// inversion across *different* node instances of two keyed containers
// is a two-class cycle lockdep reports on first occurrence.
//
// Lifetime: like Linux lockdep, keys are meant to be static — the
// class registers on first use and stays registered (shield
// destruction does not retire a keyed class, other instances may still
// use it). A key must outlive every lock constructed against it.
// Tests that create short-lived keys can call retire() once all locks
// under the key are gone.
//
// Tradeoff, by design: a shared class cannot be validated per instance
// (the graph's instance and hand-off epoch identify classes, not
// locks), so the §5 stale-entry purge in on_acquire_attempt only
// checks that the key is still registered. Nesting two locks of the
// SAME key records no edge (from == to is skipped): intra-container
// nesting order is the container's own invariant, not lockdep's.
#pragma once

#include "lockdep/lockdep.hpp"

namespace resilock::lockdep {

class LockClassKey {
 public:
  constexpr explicit LockClassKey(const char* label = nullptr)
      : label_(label) {}
  LockClassKey(const LockClassKey&) = delete;
  LockClassKey& operator=(const LockClassKey&) = delete;

  // The key's shared class id, registering it on first use. Racing
  // first users CAS; the loser retires its surplus id. `fallback_label`
  // names the class when the key itself carries no label (the shield
  // passes its registry name).
  ClassId ensure(const char* fallback_label = nullptr) {
    ClassId id = id_.load(std::memory_order_acquire);
    if (id != kInvalidClass) return id;
    const ClassId fresh = Graph::instance().register_shared_class(
        this, label_ != nullptr ? label_ : fallback_label);
    ClassId expected = kInvalidClass;
    if (!id_.compare_exchange_strong(expected, fresh,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      Graph::instance().retire_class(fresh);
      return expected;
    }
    return fresh;
  }

  // kInvalidClass before the first keyed acquire.
  ClassId id() const { return id_.load(std::memory_order_acquire); }

  const char* label() const { return label_; }

  // Returns the class-table slot (test hygiene for short-lived keys).
  // Caller's contract: no lock constructed against this key is alive
  // or held.
  void retire() {
    Graph::instance().retire_class(
        id_.exchange(kInvalidClass, std::memory_order_acq_rel));
  }

 private:
  std::atomic<ClassId> id_{kInvalidClass};
  const char* label_;
};

}  // namespace resilock::lockdep
