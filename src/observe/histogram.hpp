// Log-bucketed (HDR-style) duration histogram with striped recording.
//
// Lockstat (observe/lockstat.hpp) wants wait- and hold-time
// DISTRIBUTIONS, not averages: the paper's production motivation is
// tail latency under contention, and a p99 is invisible in a
// total/count pair. A full HDR histogram is overkill for nanosecond
// lock telemetry; this is the classic compromise:
//
//   * buckets are log2-major with kSubBuckets linear sub-buckets per
//     power of two, so the relative bucket width is bounded by
//     1/kSubBuckets (25%) across the whole 64-bit range in
//     kBucketCount (252) counters;
//   * record() is two relaxed fetch_adds plus a rare max CAS, striped
//     kStripes ways by thread id (recorder_stripe(), which the
//     call-site tally shares) so concurrent recorders on a hot class
//     do not serialize on one counter line;
//   * percentiles are answered from a merged Snapshot by a cumulative
//     bucket walk, returning the bucket midpoint — within one bucket
//     width of the true value, which the sub-bucket resolution bounds.
//
// count and total are exact (RMW); max is exact too (CAS loop). Only
// the assignment of an increment to a stripe is thread-dependent, and
// merging stripes restores the exact aggregate.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "platform/cacheline.hpp"
#include "platform/thread_registry.hpp"

namespace resilock::observe {

inline constexpr std::size_t kSubBucketBits = 2;
inline constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBucketBits;
// Recorder striping, shared by every lockstat counter block (these
// histograms and the call-site tally, observe/callsite.hpp): kStripes
// copies, each on its own cache lines, and the calling thread's index
// into them. Threads past kStripes share a stripe; readers sum the
// stripes, so every aggregate stays exact. Four is enough to take
// the serialization off a hot class without blowing the lazy
// per-class footprint (allocated only for classes that record).
inline constexpr std::size_t kStripes = 4;
static_assert((kStripes & (kStripes - 1)) == 0, "kStripes: power of two");

inline std::size_t recorder_stripe() noexcept {
  return static_cast<std::size_t>(platform::self_pid()) & (kStripes - 1);
}

// Max index: msb 63 -> shift 61 -> (61 + 1) * 4 + 3 = 251.
inline constexpr std::size_t kBucketCount =
    (64 - kSubBucketBits + 1) * kSubBuckets;

// Value -> bucket index. Values below kSubBuckets are exact; above,
// the index is (msb - kSubBucketBits + 1) * kSubBuckets + the
// kSubBucketBits bits directly below the msb.
constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
  if (v < kSubBuckets) return static_cast<std::size_t>(v);
  const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
  const unsigned shift = msb - static_cast<unsigned>(kSubBucketBits);
  const std::size_t sub =
      static_cast<std::size_t>(v >> shift) & (kSubBuckets - 1);
  return (static_cast<std::size_t>(shift) + 1) * kSubBuckets + sub;
}

static_assert(bucket_index(~std::uint64_t{0}) < kBucketCount);

// Smallest value mapping to bucket `idx` (inverse of bucket_index).
constexpr std::uint64_t bucket_lower_bound(std::size_t idx) noexcept {
  if (idx < kSubBuckets) return idx;
  const std::size_t shift = idx / kSubBuckets - 1;
  const std::uint64_t sub = idx % kSubBuckets;
  return (kSubBuckets + sub) << shift;
}

// Bucket width (the bucket covers [lower, lower + width)).
constexpr std::uint64_t bucket_width(std::size_t idx) noexcept {
  if (idx < kSubBuckets) return 1;
  return std::uint64_t{1} << (idx / kSubBuckets - 1);
}

// Merged, immutable view of a histogram: what reports and percentile
// queries operate on. Plain data so the offline analyzer
// (tools/resilock_report.cpp) can rebuild one from a trace and feed it
// to the same renderer as the live tables.
struct HistogramSnapshot {
  std::uint64_t counts[kBucketCount] = {};
  std::uint64_t count = 0;
  std::uint64_t total = 0;
  std::uint64_t max = 0;

  void add(std::uint64_t v) {
    ++counts[bucket_index(v)];
    ++count;
    total += v;
    if (v > max) max = v;
  }

  // Value at quantile q in [0, 1]: the midpoint of the bucket holding
  // the ceil(q * count)-th sample (max is exact and clamps the top).
  std::uint64_t percentile(double q) const noexcept {
    if (count == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    std::uint64_t target =
        static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.5);
    if (target == 0) target = 1;
    if (target >= count) return max;  // the top sample is tracked exactly
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      seen += counts[i];
      if (seen >= target) {
        const std::uint64_t mid =
            bucket_lower_bound(i) + bucket_width(i) / 2;
        return mid < max ? mid : max;
      }
    }
    return max;
  }
};

class LogHistogram {
 public:
  // Two RMWs on the hot path (bucket, total); the sample count is
  // derived at snapshot time as the sum of the buckets, which the
  // bucket RMWs keep exact.
  void record(std::uint64_t v) noexcept {
    Stripe& s = stripes_[recorder_stripe()];
    s.counts[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    s.total.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = s.max.load(std::memory_order_relaxed);
    while (v > cur && !s.max.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed,
                          std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot out;
    for (const Stripe& s : stripes_) {
      for (std::size_t i = 0; i < kBucketCount; ++i) {
        const std::uint64_t c = s.counts[i].load(std::memory_order_relaxed);
        out.counts[i] += c;
        out.count += c;
      }
      out.total += s.total.load(std::memory_order_relaxed);
      const std::uint64_t m = s.max.load(std::memory_order_relaxed);
      if (m > out.max) out.max = m;
    }
    return out;
  }

  void reset() noexcept {
    for (Stripe& s : stripes_) {
      for (auto& c : s.counts) c.store(0, std::memory_order_relaxed);
      s.total.store(0, std::memory_order_relaxed);
      s.max.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(platform::kCacheLineSize) Stripe {
    std::atomic<std::uint64_t> counts[kBucketCount] = {};
    std::atomic<std::uint64_t> total{0};
    std::atomic<std::uint64_t> max{0};
  };

  // 4 stripes x 252 counters x 8 B ~= 8 KiB per histogram.
  Stripe stripes_[kStripes];
};

}  // namespace resilock::observe
