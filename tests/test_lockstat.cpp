// The lockstat layer (src/observe/): log-bucketed histograms, striped
// recording, call-site tables, the shield hook points, and the three
// report paths.
//
//   * histogram — bucket boundaries round-trip across the whole
//     64-bit range, percentiles land within one bucket width, and
//     concurrent striped recording merges to EXACT count/total/max;
//   * reconciliation — under a mixed fuzz workload the lockstat
//     counters equal the shield's own (acquisitions, contended waits,
//     trylock failures, intercepted misuses), per class, exactly;
//   * modes — rw acquisitions tally under their AccessMode;
//   * depth — forty simultaneous holds all get their windows timed;
//   * reports — the /proc/lock_stat-shaped table renders labels,
//     percentiles, and call sites; the signal trigger requests a dump
//     that the collector services onto disk;
//   * escaping — metric keys and class labels with JSON
//     metacharacters survive both the metrics JSON and the trace
//     JSONL paths.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/rw/crw.hpp"
#include "core/tas.hpp"
#include "lockdep/event_ring.hpp"
#include "lockdep/lockdep.hpp"
#include "lockdep/trace_export.hpp"
#include "observe/callsite.hpp"
#include "observe/histogram.hpp"
#include "observe/lockstat.hpp"
#include "platform/cacheline.hpp"
#include "platform/thread_registry.hpp"
#include "response/response.hpp"
#include "runtime/thread_team.hpp"
#include "shield/rw_shield.hpp"
#include "shield/shield.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/metrics.hpp"

using namespace resilock;
using observe::bucket_index;
using observe::bucket_lower_bound;
using observe::bucket_width;
using observe::ClassReport;
using observe::HistogramSnapshot;
using observe::kBucketCount;
using observe::LockStat;
using observe::LogHistogram;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Renders `classes` through the live report renderer into a string.
std::string render(const std::vector<ClassReport>& classes,
                   std::size_t top_sites = 4, bool symbolize = true) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  observe::write_report(f, classes, top_sites, symbolize);
  std::fclose(f);
  std::string out(buf, len);
  std::free(buf);
  return out;
}

const ClassReport* find_class(const std::vector<ClassReport>& classes,
                              const std::string& label) {
  for (const ClassReport& c : classes) {
    if (c.label == label) return &c;
  }
  return nullptr;
}

// Environment pins shared by the shield-facing tests: suppress policy
// (misuses are counted, not fatal), no response rules, lockstat on,
// hold sampling pinned to 1 (exact mode) so hold windows reconcile
// one-to-one with acquisitions.
class LockstatShieldTest : public ::testing::Test {
 protected:
  LockstatShieldTest()
      : rules_(""),
        policy_(shield::ShieldPolicy::kSuppress),
        stats_(true),
        sample_(1) {
    LockStat::instance().reset();
  }

  response::ResponseRulesGuard rules_;
  shield::ShieldPolicyGuard policy_;
  observe::LockstatGuard stats_;
  observe::LockstatSampleGuard sample_;
};

}  // namespace

// ---------------------------------------------------------------------
// Histogram buckets.
// ---------------------------------------------------------------------

TEST(LockstatHistogram, BucketBoundariesRoundTrip) {
  // Small values are exact.
  for (std::uint64_t v = 0; v < observe::kSubBuckets; ++v) {
    EXPECT_EQ(bucket_index(v), v);
    EXPECT_EQ(bucket_lower_bound(v), v);
    EXPECT_EQ(bucket_width(v), 1u);
  }
  // Every bucket: its lower bound maps into it, its last value maps
  // into it, and the next value starts the next bucket.
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    const std::uint64_t lo = bucket_lower_bound(i);
    const std::uint64_t w = bucket_width(i);
    EXPECT_EQ(bucket_index(lo), i) << "lo=" << lo;
    EXPECT_EQ(bucket_index(lo + w - 1), i) << "lo=" << lo << " w=" << w;
    if (i + 1 < kBucketCount) {
      EXPECT_EQ(bucket_index(lo + w), i + 1);
    }
  }
  // Top of range stays in bounds.
  EXPECT_LT(bucket_index(~std::uint64_t{0}), kBucketCount);
  EXPECT_LT(bucket_index(std::uint64_t{1} << 62), kBucketCount);
  // Relative width bound: width / lower <= 1 / kSubBuckets.
  for (std::size_t i = observe::kSubBuckets; i < kBucketCount; ++i) {
    EXPECT_LE(bucket_width(i) * observe::kSubBuckets,
              bucket_lower_bound(i));
  }
}

TEST(LockstatHistogram, PercentilesWithinOneBucket) {
  HistogramSnapshot h;
  EXPECT_EQ(h.percentile(0.5), 0u);  // empty
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  EXPECT_EQ(h.count, 1000u);
  EXPECT_EQ(h.total, 500500u);
  EXPECT_EQ(h.max, 1000u);
  // A percentile answers within one bucket width (25% relative).
  const std::uint64_t p50 = h.percentile(0.50);
  const std::uint64_t p90 = h.percentile(0.90);
  const std::uint64_t p99 = h.percentile(0.99);
  EXPECT_NEAR(static_cast<double>(p50), 500.0, 500.0 * 0.25);
  EXPECT_NEAR(static_cast<double>(p90), 900.0, 900.0 * 0.25);
  EXPECT_NEAR(static_cast<double>(p99), 990.0, 990.0 * 0.25);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max);
  // p100 clamps to the exact max; p0 answers the first sample's bucket.
  EXPECT_EQ(h.percentile(1.0), 1000u);
  EXPECT_GE(h.percentile(0.0), 1u);

  HistogramSnapshot one;
  one.add(42);
  EXPECT_EQ(one.percentile(0.5), 42u);  // midpoint clamped to max
}

TEST(LockstatHistogram, StripedConcurrentRecordingMergesExactly) {
  LogHistogram h;
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 100000;
  runtime::ThreadTeam::run(kThreads, [&](std::uint32_t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      h.record(i % 1000 + 1);
    }
  });
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  // Sum over each thread of sum_{i<kPerThread} (i % 1000 + 1).
  std::uint64_t per_thread_total = 0;
  for (std::uint64_t i = 0; i < kPerThread; ++i) per_thread_total += i % 1000 + 1;
  EXPECT_EQ(s.total, kThreads * per_thread_total);
  EXPECT_EQ(s.max, 1000u);
  std::uint64_t bucket_sum = 0;
  for (std::uint64_t c : s.counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, s.count);

  h.reset();
  const HistogramSnapshot z = h.snapshot();
  EXPECT_EQ(z.count, 0u);
  EXPECT_EQ(z.total, 0u);
  EXPECT_EQ(z.max, 0u);
}

// ---------------------------------------------------------------------
// Call-site table.
// ---------------------------------------------------------------------

TEST(LockstatCallSites, RecordsDistinctSitesAndCountsOverflow) {
  observe::CallSiteTable t;
  char anchors[observe::CallSiteTable::kSlots + 2];
  for (std::size_t i = 0; i < observe::CallSiteTable::kSlots; ++i) {
    t.record(&anchors[i]);
    t.record(&anchors[i]);
  }
  t.record(nullptr);  // ignored
  std::uint64_t rows = 0, total = 0;
  t.for_each([&](std::uintptr_t site, std::uint64_t count) {
    EXPECT_NE(site, 0u);
    EXPECT_EQ(count, 2u);
    ++rows;
    total += count;
  });
  EXPECT_EQ(rows, observe::CallSiteTable::kSlots);
  EXPECT_EQ(total, 2 * observe::CallSiteTable::kSlots);
  EXPECT_EQ(t.overflow(), 0u);
  // Table full: new sites tally as overflow, existing sites still count.
  t.record(&anchors[observe::CallSiteTable::kSlots]);
  t.record(&anchors[observe::CallSiteTable::kSlots + 1]);
  EXPECT_EQ(t.overflow(), 2u);
  t.record(&anchors[0]);
  EXPECT_EQ(t.overflow(), 2u);
  t.reset();
  std::uint64_t after = 0;
  t.for_each([&](std::uintptr_t, std::uint64_t) { ++after; });
  EXPECT_EQ(after, 0u);
  EXPECT_EQ(t.overflow(), 0u);
}

TEST(LockstatCallSites, StripesShareNoCacheLine) {
  // Each recorder stripe is a whole number of cache lines and starts on
  // a line boundary, so two stripes never share a line.
  using observe::CallSiteTable;
  static_assert(CallSiteTable::stripe_bytes() % platform::kCacheLineSize ==
                0);
  static_assert(alignof(CallSiteTable) >= platform::kCacheLineSize);
  static_assert(sizeof(CallSiteTable) ==
                observe::kStripes * CallSiteTable::stripe_bytes());
  SUCCEED();
}

// ---------------------------------------------------------------------
// Shield reconciliation.
// ---------------------------------------------------------------------

TEST_F(LockstatShieldTest, FuzzWorkloadReconcilesExactlyWithShield) {
  Shield<TasLock> lock;
  lock.set_lockdep_label("lockstat.fuzz");
  lock.reset_stats();
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kIters = 20000;
  std::atomic<std::uint64_t> try_acquired{0}, try_failed{0};
  runtime::ThreadTeam::run(kThreads, [&](std::uint32_t tid) {
    std::uint64_t seed = 0x9e3779b97f4a7c15ull + tid;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      if ((seed >> 33) & 1) {
        lock.acquire();
        lock.release();
      } else if (lock.try_acquire()) {
        try_acquired.fetch_add(1, std::memory_order_relaxed);
        lock.release();
      } else {
        try_failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Deterministic misuses on top: three double unlocks, suppressed.
  for (int i = 0; i < 3; ++i) lock.release();

  const shield::ShieldSnapshot shot = lock.snapshot();
  const auto classes = LockStat::instance().report();
  const ClassReport* c = find_class(classes, "lockstat.fuzz");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->acquisitions, shot.acquisitions);
  EXPECT_EQ(c->contentions, lock.contended_total());
  EXPECT_EQ(c->trylock_fails, try_failed.load());
  EXPECT_EQ(c->misuses, shot.total_misuses());
  EXPECT_EQ(c->misuses, 3u);
  // The histograms saw exactly the windows the counters counted.
  EXPECT_EQ(c->hold.count, c->acquisitions);
  EXPECT_EQ(c->wait.count, c->contentions);
  EXPECT_EQ(c->by_mode[0], c->acquisitions);  // all exclusive
}

TEST_F(LockstatShieldTest, UncontendedHoldWindowsMatchAcquisitions) {
  Shield<TasLock> lock;
  lock.set_lockdep_label("lockstat.hold");
  constexpr std::uint64_t kIters = 1000;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    lock.acquire();
    lock.release();
  }
  const auto classes = LockStat::instance().report();
  const ClassReport* c = find_class(classes, "lockstat.hold");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->acquisitions, kIters);
  EXPECT_EQ(c->contentions, 0u);  // single thread never waits
  EXPECT_EQ(c->hold.count, kIters);
  EXPECT_GT(c->hold.total, 0u);
  EXPECT_GE(c->hold.max, c->hold.percentile(0.99));
  // The acquire sites were captured (one loop = one call site).
  ASSERT_FALSE(c->sites.empty());
  EXPECT_EQ(c->sites[0].count + static_cast<std::uint64_t>(
                                    c->site_overflow),
            kIters);
}

TEST_F(LockstatShieldTest, FortySimultaneousHoldsAreAllTimed) {
  // A hold window lives in the lock's held-record entry, which is exact
  // at any depth: with every hold sampled, forty locks held at once
  // record forty windows. A 32-entry side table of open windows would
  // drop eight of them.
  constexpr std::size_t kHeld = 40;
  std::vector<std::unique_ptr<Shield<TasLock>>> locks;
  for (std::size_t i = 0; i < kHeld; ++i) {
    locks.push_back(std::make_unique<Shield<TasLock>>());
    locks.back()->set_lockdep_label("lockstat.deep");
  }
  for (auto& l : locks) l->acquire();
  for (auto it = locks.rbegin(); it != locks.rend(); ++it) {
    EXPECT_TRUE((*it)->release());
  }
  std::uint64_t windows = 0;
  for (const auto& l : locks) {
    const observe::ClassStats* s =
        LockStat::instance().peek(l->lockdep_class());
    ASSERT_NE(s, nullptr);
    windows += s->hold.snapshot().count;
  }
  EXPECT_EQ(windows, kHeld);
}

TEST_F(LockstatShieldTest, ByPointerHooksKeepTheWindowInTheRecord) {
  // The by-pointer hooks (for a lock with no shield entry) put a
  // sampled window in a lockstat-only record entry and drop the entry
  // when the window closes.
  std::thread([] {
    auto& g = lockdep::Graph::instance();
    int y = 0;
    const lockdep::ClassId cls = g.register_class(&y, "lockstat.bare");
    auto& tbl = shield::HeldLockTable::mine();
    observe::on_acquired(&y, cls, AccessMode::kExclusive, nullptr);
    const shield::HeldLockTable::Hold* h = tbl.find(&y);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->depth, 0u);
    EXPECT_NE(h->hold_begin_ns, 0u);
    observe::on_released(&y);
    EXPECT_EQ(tbl.find(&y), nullptr);
    EXPECT_EQ(tbl.held_count(), 0u);
    const observe::ClassStats* s = LockStat::instance().peek(cls);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->hold.snapshot().count, 1u);
    g.retire_class(cls);
  }).join();
}

// Default-mode cost control: with 1-in-N sampling only ~1/N of hold
// windows are timed, while the acquisition tally (and everything else
// that reconciles against the shield) stays exact. The per-thread
// decimation counter persists across tests, so the sampled count can
// be off by one from perfect alignment.
TEST_F(LockstatShieldTest, HoldSamplingDecimatesTimedWindowsOnly) {
  observe::LockstatSampleGuard sample(4);
  EXPECT_EQ(observe::lockstat_sample(), 4u);
  Shield<TasLock> lock;
  lock.set_lockdep_label("lockstat.sampled");
  constexpr std::uint64_t kIters = 1000;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    lock.acquire();
    lock.release();
  }
  const auto classes = LockStat::instance().report();
  const ClassReport* c = find_class(classes, "lockstat.sampled");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->acquisitions, kIters);  // exact regardless of sampling
  EXPECT_EQ(c->sites[0].count + c->site_overflow, kIters);
  EXPECT_GE(c->hold.count, kIters / 4 - 1);
  EXPECT_LE(c->hold.count, kIters / 4 + 1);
  EXPECT_EQ(c->hold_sample, 4u);
  // Non-power-of-two rates round down; 0/1 mean exact.
  observe::set_lockstat_sample(6);
  EXPECT_EQ(observe::lockstat_sample(), 4u);
  observe::set_lockstat_sample(0);
  EXPECT_EQ(observe::lockstat_sample(), 1u);
}

TEST_F(LockstatShieldTest, DisabledRecordsNothing) {
  observe::LockstatGuard off(false);
  Shield<TasLock> lock;
  lock.set_lockdep_label("lockstat.disabled");
  for (int i = 0; i < 100; ++i) {
    lock.acquire();
    lock.release();
  }
  const auto classes = LockStat::instance().report();
  EXPECT_EQ(find_class(classes, "lockstat.disabled"), nullptr);
}

TEST_F(LockstatShieldTest, MisuseBeforeFirstAcquireRegistersClass) {
  Shield<TasLock> lock;
  lock.set_lockdep_label("lockstat.orphan");
  lock.release();  // double unlock on a never-acquired lock
  const auto classes = LockStat::instance().report();
  const ClassReport* c = find_class(classes, "lockstat.orphan");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->misuses, 1u);
  EXPECT_EQ(c->acquisitions, 0u);
}

TEST_F(LockstatShieldTest, RwAcquisitionsTallyUnderTheirMode) {
  using Np = CrwLock<kOriginal, SplitReadIndicator, RwPreference::kNeutral>;
  shield::RwShield<Np> rw;
  rw.set_lockdep_label("lockstat.rw");
  Np::Context ctx;
  constexpr std::uint64_t kReads = 200, kWrites = 100;
  for (std::uint64_t i = 0; i < kReads; ++i) {
    rw.rlock(ctx);
    EXPECT_TRUE(rw.runlock(ctx));
  }
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    rw.wlock(ctx);
    EXPECT_TRUE(rw.wunlock(ctx));
  }
  const auto classes = LockStat::instance().report();
  const ClassReport* c = find_class(classes, "lockstat.rw");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->by_mode[static_cast<std::size_t>(AccessMode::kRead)],
            kReads);
  EXPECT_EQ(c->by_mode[static_cast<std::size_t>(AccessMode::kWrite)],
            kWrites);
  EXPECT_EQ(c->acquisitions, kReads + kWrites);
  EXPECT_EQ(c->hold.count, kReads + kWrites);
  // totals() aggregates what report() itemized.
  const LockStat::Totals t = LockStat::instance().totals();
  EXPECT_GE(t.acquisitions, kReads + kWrites);
  EXPECT_GE(t.classes, 1u);
}

TEST_F(LockstatShieldTest, StripedTallyMergesSitesAndStaysExact) {
  // More threads than stripes, so stripes are shared: every thread
  // takes one class at two call sites, site A in write mode and site B
  // in both modes. Each site must come back as ONE row carrying its
  // exact count, however many stripes claimed it.
  using Np = CrwLock<kOriginal, SplitReadIndicator, RwPreference::kNeutral>;
  shield::RwShield<Np> rw;
  rw.set_lockdep_label("lockstat.striped");
  constexpr std::uint32_t kThreads = 2 * observe::kStripes + 1;
  constexpr std::uint64_t kPer = 500;
  static char site_a, site_b;
  std::atomic<std::uint32_t> registered{0};
  runtime::ThreadTeam::run(kThreads, [&](std::uint32_t) {
    // Every thread holds its dense pid before any records, so all
    // kThreads pids are distinct and every stripe has several users.
    (void)platform::self_pid();
    registered.fetch_add(1);
    while (registered.load() < kThreads) std::this_thread::yield();
    Np::Context ctx;
    for (std::uint64_t i = 0; i < kPer; ++i) {
      {
        observe::InterposedSiteScope at(&site_a);
        rw.wlock(ctx);
        EXPECT_TRUE(rw.wunlock(ctx));
      }
      observe::InterposedSiteScope at(&site_b);
      rw.wlock(ctx);
      EXPECT_TRUE(rw.wunlock(ctx));
      rw.rlock(ctx);
      EXPECT_TRUE(rw.runlock(ctx));
    }
  });
  constexpr std::uint64_t kWrites = 2 * kThreads * kPer;
  constexpr std::uint64_t kReads = kThreads * kPer;
  const auto classes = LockStat::instance().report();
  const ClassReport* c = find_class(classes, "lockstat.striped");
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->sites.size(), 2u);
  EXPECT_EQ(c->site_overflow, 0u);
  // Sorted by count: B (writes + reads) before A (writes).
  EXPECT_EQ(c->sites[0].site, reinterpret_cast<std::uintptr_t>(&site_b));
  EXPECT_EQ(c->sites[0].count, 2 * kThreads * kPer);
  EXPECT_EQ(c->sites[1].site, reinterpret_cast<std::uintptr_t>(&site_a));
  EXPECT_EQ(c->sites[1].count, kThreads * kPer);
  // The write side reconciles with the shield's own (lock-ordered)
  // tally; its read tally is telemetry-grade (a read-stripe collision
  // can lose a bump), so reads are held to the scripted count.
  const auto snap = rw.snapshot();
  EXPECT_EQ(snap.write_acquisitions, kWrites);
  const auto mode = [&](AccessMode m) {
    return c->by_mode[static_cast<std::size_t>(m)];
  };
  EXPECT_EQ(mode(AccessMode::kWrite), snap.write_acquisitions);
  EXPECT_EQ(mode(AccessMode::kRead), kReads);
  EXPECT_EQ(mode(AccessMode::kExclusive), 0u);
  EXPECT_LE(snap.read_acquisitions, kReads);
  EXPECT_EQ(c->acquisitions, kWrites + kReads);
  EXPECT_EQ(LockStat::instance().totals().acquisitions, kWrites + kReads);

  // reset() zeroes every stripe: no rows, no mode counts, no overflow.
  LockStat::instance().reset();
  const observe::ClassStats* st =
      LockStat::instance().peek(rw.lockdep_class());
  ASSERT_NE(st, nullptr);
  std::size_t rows = 0;
  st->sites.for_each([&](std::uintptr_t, std::uint64_t) { ++rows; });
  EXPECT_EQ(rows, 0u);
  EXPECT_EQ(st->sites.overflow(), 0u);
  for (std::size_t m = 0; m < observe::kAccessModes; ++m) {
    EXPECT_EQ(st->sites.mode_total(m), 0u) << m;
  }
  EXPECT_EQ(LockStat::instance().totals().acquisitions, 0u);
}

// ---------------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------------

TEST_F(LockstatShieldTest, ReportRendersLabelsPercentilesAndSites) {
  Shield<TasLock> lock;
  lock.set_lockdep_label("lockstat.render");
  runtime::ThreadTeam::run(2, [&](std::uint32_t) {
    for (int i = 0; i < 5000; ++i) {
      lock.acquire();
      lock.release();
    }
  });
  const std::string text = render(LockStat::instance().report());
  EXPECT_NE(text.find("lockstat.render"), std::string::npos) << text;
  EXPECT_NE(text.find("acquisitions"), std::string::npos);
  EXPECT_NE(text.find("p50"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
  EXPECT_NE(text.find("0x"), std::string::npos);  // call-site address

  // Empty table renders the explicit placeholder, not garbage.
  const std::string empty = render({});
  EXPECT_NE(empty.find("no lock activity"), std::string::npos);
}

TEST(LockstatSymbolize, KnownFunctionAndRawFallback) {
  char buf[256];
  observe::symbolize_site(reinterpret_cast<std::uintptr_t>(&std::strtoul),
                          buf, sizeof buf, /*symbolize=*/false);
  EXPECT_EQ(std::string(buf).rfind("0x", 0), 0u);  // raw hex
  observe::symbolize_site(reinterpret_cast<std::uintptr_t>(&std::strtoul),
                          buf, sizeof buf, /*symbolize=*/true);
  EXPECT_NE(buf[0], '\0');  // resolved or raw, never empty
}

TEST(LockstatSignal, TriggerSetsFlagConsumedExactlyOnce) {
  (void)observe::consume_dump_request();  // drain any leftover
  ASSERT_TRUE(observe::install_signal_trigger(SIGUSR2));
  ASSERT_EQ(std::raise(SIGUSR2), 0);
  EXPECT_TRUE(observe::consume_dump_request());
  EXPECT_FALSE(observe::consume_dump_request());
}

TEST_F(LockstatShieldTest, CollectorServicesSignalAndFinalDump) {
  const std::string path =
      ::testing::TempDir() + "resilock_lockstat_report.txt";
  std::remove(path.c_str());
  setenv("RESILOCK_LOCKSTAT_FILE", path.c_str(), 1);
  // Long periodic interval: only the signal request and the final
  // forced dump can write the file.
  setenv("RESILOCK_LOCKSTAT_INTERVAL_MS", "60000", 1);

  Shield<TasLock> lock;
  lock.set_lockdep_label("lockstat.collector");
  for (int i = 0; i < 500; ++i) {
    lock.acquire();
    lock.release();
  }

  telemetry::Collector& c = telemetry::Collector::instance();
  c.start();
  observe::request_dump();  // what the SIGUSR2 handler does
  for (int spin = 0; spin < 200 && slurp(path).empty(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::string live = slurp(path);
  EXPECT_NE(live.find("lockstat.collector"), std::string::npos) << live;
  const std::uint64_t dumps_after_signal = c.stats().lockstat_dumps;
  EXPECT_GE(dumps_after_signal, 1u);
  c.stop();  // forces a final dump
  EXPECT_GT(c.stats().lockstat_dumps, 0u);
  const std::string final_report = slurp(path);
  EXPECT_NE(final_report.find("lockstat.collector"), std::string::npos);
  EXPECT_NE(final_report.find("p50"), std::string::npos);

  unsetenv("RESILOCK_LOCKSTAT_FILE");
  unsetenv("RESILOCK_LOCKSTAT_INTERVAL_MS");
}

// ---------------------------------------------------------------------
// Escaping.
// ---------------------------------------------------------------------

TEST(LockstatEscaping, MetricKeysEscapeInJson) {
  auto& reg = telemetry::MetricsRegistry::instance();
  reg.register_gauge("evil\"gauge\\name", [] { return 7u; });
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  telemetry::MetricsRegistry::write(f, reg.snapshot(),
                                    telemetry::MetricsFormat::kJson);
  std::fclose(f);
  std::string out(buf, len);
  std::free(buf);
  reg.unregister_gauge("evil\"gauge\\name");
  EXPECT_NE(out.find("evil\\\"gauge\\\\name"), std::string::npos) << out;
  // The lockstat rows joined the snapshot.
  EXPECT_NE(out.find("lockstat.enabled"), std::string::npos);
  EXPECT_NE(out.find("lockstat.acquisitions"), std::string::npos);
}

TEST(LockstatEscaping, ClassLabelsEscapeInTraceJsonl) {
  observe::LockstatGuard stats(true);
  shield::ShieldPolicyGuard policy(shield::ShieldPolicy::kSuppress);
  Shield<TasLock> lock;
  lock.set_lockdep_label("evil\"label\\");
  lock.acquire();
  lock.release();
  const lockdep::ClassId cls =
      lockdep::Graph::instance().find_class("evil\"label\\");
  ASSERT_NE(cls, lockdep::kInvalidClass);

  lockdep::TraceEvent e;
  e.ns = 1;
  e.kind = lockdep::EventKind::kHold;
  e.lock = &lock;
  e.pid = 0;
  e.a = cls;
  e.site = 0xdeadbeef;
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  lockdep::JsonlWriter(f).write(e);
  std::fclose(f);
  std::string out(buf, len);
  std::free(buf);
  EXPECT_NE(out.find("\"cls_label\":\"evil\\\"label\\\\\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"site\":\"0xdeadbeef\""), std::string::npos);
}
