// Direct tests of HeldLockTable's spillover-map path, which
// test_shield.cpp only crosses incidentally: fast-path overflow into
// the spill map, erase-from-spill, promotion back into freed fast
// slots, and depth bookkeeping while an entry lives in the spill —
// plus the per-layer parts of an entry (lockdep's class and epoch,
// lockstat's window) across the same moves, and depth-0 level entries.
#include <gtest/gtest.h>

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "shield/held_lock_table.hpp"

using resilock::shield::HeldLockTable;

namespace {
constexpr std::size_t kFast = HeldLockTable::kFastSlots;
}

TEST(HeldLockTableSpill, OverflowLandsInSpillExactly) {
  HeldLockTable t;
  std::vector<int> locks(kFast + 3);
  for (auto& l : locks) t.note_acquired(&l);
  EXPECT_EQ(t.held_count(), kFast + 3);
  EXPECT_FALSE(t.fast_path_only());
  // Every lock — fast or spilled — reports exact depth 1.
  for (auto& l : locks) EXPECT_EQ(t.depth(&l), 1u);
  // A lock never acquired is not conflated with any spilled one.
  int stranger = 0;
  EXPECT_EQ(t.depth(&stranger), 0u);
  EXPECT_EQ(t.note_released(&stranger), HeldLockTable::kNotHeld);
}

TEST(HeldLockTableSpill, EraseFromSpillDirectly) {
  HeldLockTable t;
  std::vector<int> locks(kFast + 2);
  for (auto& l : locks) t.note_acquired(&l);
  // locks[kFast] and locks[kFast+1] are the spilled ones (the first
  // kFast acquisitions filled the fast array).
  EXPECT_EQ(t.note_released(&locks[kFast]), 0);
  EXPECT_EQ(t.depth(&locks[kFast]), 0u);
  EXPECT_EQ(t.held_count(), kFast + 1);
  // Double release of the erased spill entry is refused.
  EXPECT_EQ(t.note_released(&locks[kFast]), HeldLockTable::kNotHeld);
  // The fast-path entries were untouched by the spill erase.
  for (std::size_t i = 0; i < kFast; ++i) {
    EXPECT_EQ(t.depth(&locks[i]), 1u) << i;
  }
}

TEST(HeldLockTableSpill, SpillDepthCountsExactly) {
  HeldLockTable t;
  std::vector<int> filler(kFast);
  for (auto& l : filler) t.note_acquired(&l);
  int deep = 0;  // lives in the spill from its first acquisition
  t.note_acquired(&deep);
  t.note_acquired(&deep);
  t.note_acquired(&deep);
  EXPECT_FALSE(t.fast_path_only());
  EXPECT_EQ(t.depth(&deep), 3u);
  EXPECT_EQ(t.note_released(&deep), 2);
  EXPECT_EQ(t.note_released(&deep), 1);
  EXPECT_EQ(t.depth(&deep), 1u);
  t.note_acquired(&deep);  // bump back up while still spilled
  EXPECT_EQ(t.depth(&deep), 2u);
  EXPECT_EQ(t.note_released(&deep), 1);
  EXPECT_EQ(t.note_released(&deep), 0);
  EXPECT_EQ(t.note_released(&deep), HeldLockTable::kNotHeld);
}

TEST(HeldLockTableSpill, PromotionPreservesDepth) {
  HeldLockTable t;
  std::vector<int> filler(kFast);
  for (auto& l : filler) t.note_acquired(&l);
  int deep = 0;
  t.note_acquired(&deep);  // spilled
  t.note_acquired(&deep);
  t.note_acquired(&deep);  // spill depth 3
  // Free one fast slot: the single spilled entry must be promoted into
  // it with its recursion depth intact.
  EXPECT_EQ(t.note_released(&filler[0]), 0);
  EXPECT_TRUE(t.fast_path_only());
  EXPECT_EQ(t.depth(&deep), 3u);
  EXPECT_EQ(t.note_released(&deep), 2);
  EXPECT_EQ(t.note_released(&deep), 1);
  EXPECT_EQ(t.note_released(&deep), 0);
}

TEST(HeldLockTableSpill, RepeatedPromotionDrainsSpill) {
  HeldLockTable t;
  constexpr std::size_t kTotal = kFast * 2;
  std::vector<int> locks(kTotal);
  for (auto& l : locks) t.note_acquired(&l);
  EXPECT_FALSE(t.fast_path_only());
  // Release the original fast residents one by one; each release frees
  // a slot and promotes one spilled entry, so the table must become
  // fast-path-only exactly when the spill has drained.
  for (std::size_t i = 0; i < kFast; ++i) {
    EXPECT_EQ(t.note_released(&locks[i]), 0);
  }
  EXPECT_TRUE(t.fast_path_only());
  EXPECT_EQ(t.held_count(), kTotal - kFast);
  for (std::size_t i = kFast; i < kTotal; ++i) {
    EXPECT_EQ(t.depth(&locks[i]), 1u) << i;
    EXPECT_EQ(t.note_released(&locks[i]), 0);
  }
  EXPECT_EQ(t.held_count(), 0u);
}

TEST(HeldLockTableSpill, RePromotionCycleStaysExact) {
  // Churn across the boundary: overflow, drain, overflow again — the
  // table must never lose or invent an entry (the exemplar's two bugs,
  // at the boundary, repeatedly).
  HeldLockTable t;
  std::unordered_map<const void*, std::uint32_t> reference;
  std::vector<int> locks(kFast * 3);
  auto acquire = [&](int& l) {
    t.note_acquired(&l);
    ++reference[&l];
  };
  auto release = [&](int& l) {
    auto it = reference.find(&l);
    if (it == reference.end()) {
      EXPECT_EQ(t.note_released(&l), HeldLockTable::kNotHeld);
      return;
    }
    EXPECT_EQ(t.note_released(&l), static_cast<int>(it->second - 1));
    if (--it->second == 0) reference.erase(it);
  };
  for (int round = 0; round < 4; ++round) {
    for (auto& l : locks) acquire(l);                    // deep overflow
    for (std::size_t i = 0; i < locks.size(); i += 2) {  // partial drain
      release(locks[i]);
    }
    for (std::size_t i = 0; i < locks.size(); i += 4) {  // re-acquire
      acquire(locks[i]);
    }
    // Verify against the reference, then drain completely.
    for (auto& l : locks) {
      const auto it = reference.find(&l);
      EXPECT_EQ(t.depth(&l), it == reference.end() ? 0u : it->second);
    }
    for (auto& l : locks) {
      while (reference.count(&l) != 0) release(l);
      release(l);  // one extra: must be kNotHeld
    }
    EXPECT_EQ(t.held_count(), 0u);
    EXPECT_TRUE(t.fast_path_only());
  }
}

// ---------------------------------------------------------------------
// Entry parts: what lockdep and lockstat keep next to the depth.
// ---------------------------------------------------------------------

TEST(HeldLockTableParts, PromotionCarriesEveryPart) {
  // The PromotionPreservesDepth shape, with a lockdep part and a
  // lockstat window on the spilled entry.
  HeldLockTable t;
  std::vector<int> filler(kFast);
  for (auto& l : filler) t.note_acquired(&l);
  int deep = 0;
  t.note_acquired(&deep, resilock::AccessMode::kWrite);  // spilled
  t.note_acquired(&deep);
  HeldLockTable::Hold* h = t.find(&deep);
  ASSERT_NE(h, nullptr);
  h->ordered = true;
  h->cls = 42;
  h->epoch = 7;
  h->hold_begin_ns = 1234;
  EXPECT_EQ(t.note_released(&filler[0]), 0);  // promotes `deep`
  EXPECT_TRUE(t.fast_path_only());
  h = t.find(&deep);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->depth, 2u);
  EXPECT_EQ(h->mode, resilock::AccessMode::kWrite);
  EXPECT_TRUE(h->ordered);
  EXPECT_EQ(h->cls, 42u);
  EXPECT_EQ(h->epoch, 7u);
  EXPECT_EQ(h->hold_begin_ns, 1234u);
  // The final release drops the entry with every part.
  EXPECT_EQ(t.note_released(&deep), 1);
  EXPECT_EQ(t.note_released(&deep), 0);
  EXPECT_EQ(t.find(&deep), nullptr);
}

TEST(HeldLockTableParts, LevelEntriesAreInvisibleToTheShield) {
  HeldLockTable t;
  int level = 0;
  HeldLockTable::Hold& h = t.entry(&level);
  h.ordered = true;
  h.cls = 3;
  EXPECT_EQ(t.held_count(), 1u);
  EXPECT_FALSE(t.holds(&level));
  EXPECT_EQ(t.depth(&level), 0u);
  EXPECT_EQ(t.find_held(&level), nullptr);
  EXPECT_EQ(t.note_released(&level), HeldLockTable::kNotHeld);
  EXPECT_EQ(t.held_count(), 1u);  // a refused release leaves it alone
  // A shield acquisition of the same address joins the entry.
  t.note_acquired(&level);
  EXPECT_TRUE(t.holds(&level));
  EXPECT_TRUE(t.find(&level)->ordered);
}

TEST(HeldLockTableParts, PruneVisitsEachEntryOnceAndDropsEmpties) {
  // The RepeatedPromotionDrainsSpill population, half of it depth-0
  // level entries: pruning every lockdep part drops those mid-walk,
  // which promotes spilled entries into the slots being walked. Each
  // entry must still be visited exactly once.
  HeldLockTable t;
  constexpr std::size_t kTotal = kFast * 2;
  std::vector<int> locks(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    if (i % 2 == 0) {
      t.entry(&locks[i]).ordered = true;  // level entry
    } else {
      t.note_acquired(&locks[i]);
      t.find(&locks[i])->ordered = true;
    }
  }
  EXPECT_FALSE(t.fast_path_only());
  std::unordered_map<const void*, int> visits;
  t.prune([&](const void* lock, HeldLockTable::Hold& h) {
    ++visits[lock];
    h.ordered = false;
  });
  EXPECT_EQ(visits.size(), kTotal);
  for (const auto& [lock, n] : visits) EXPECT_EQ(n, 1) << lock;
  EXPECT_EQ(t.held_count(), kTotal / 2);
  EXPECT_TRUE(t.fast_path_only());
  for (std::size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(t.find(&locks[i]) != nullptr, i % 2 == 1) << i;
    if (i % 2 == 1) {
      EXPECT_FALSE(t.find(&locks[i])->ordered) << i;
    }
  }
}
