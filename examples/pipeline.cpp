// pipeline: a dedup/ferret-style multi-stage pipeline — the workload
// class the paper's §6 evaluation draws on, as a plain C++ program.
//
// Three stages (produce -> transform -> fold) connected by two bounded
// queues, each guarded by a std::mutex + std::condition_variable. The
// program includes no resilock header: run it under the preload and
// every queue's mutex becomes the shielded resilient MCS lock and every
// condvar the preload's futex condvar, exactly like running an
// unmodified app under LiTL.
//
// Run from build/:
//   ./example_pipeline                                     (glibc)
//   LD_PRELOAD=$PWD/libresilock_preload.so ./example_pipeline
//   LD_PRELOAD=$PWD/libresilock_preload.so RESILOCK_TRACE_FILE=p.jsonl
//       ./example_pipeline                          (one command line)
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace {

constexpr int kItems = 20'000;
constexpr std::size_t kQueueCap = 256;

// A bounded MPMC queue over one mutex.
class BoundedQueue {
 public:
  void push(std::uint64_t v) {
    std::unique_lock<std::mutex> lk(mu_);
    not_full_.wait(lk, [&] { return q_.size() < kQueueCap; });
    q_.push_back(v);
    not_empty_.notify_one();
  }

  bool pop(std::uint64_t& out) {  // false == producer closed and drained
    std::unique_lock<std::mutex> lk(mu_);
    not_empty_.wait(lk, [&] { return !q_.empty() || closed_; });
    if (q_.empty()) return false;
    out = q_.front();
    q_.pop_front();
    not_full_.notify_one();
    return true;
  }

  void close() {
    std::unique_lock<std::mutex> lk(mu_);
    closed_ = true;
    not_empty_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable not_empty_, not_full_;
  std::deque<std::uint64_t> q_;
  bool closed_ = false;
};

}  // namespace

int main() {
  BoundedQueue stage1, stage2;
  std::uint64_t folded = 0;

  const auto start = std::chrono::steady_clock::now();
  std::thread producer([&] {
    for (int i = 1; i <= kItems; ++i)
      stage1.push(static_cast<std::uint64_t>(i));
    stage1.close();
  });
  std::vector<std::thread> transformers;
  std::atomic<int> live{2};
  for (int t = 0; t < 2; ++t) {
    transformers.emplace_back([&] {
      std::uint64_t v;
      while (stage1.pop(v)) {
        stage2.push(v * 2 + 1);  // the "transform"
      }
      if (live.fetch_sub(1) == 1) stage2.close();
    });
  }
  std::thread folder([&] {
    std::uint64_t v;
    while (stage2.pop(v)) folded += v;
  });
  producer.join();
  for (auto& t : transformers) t.join();
  folder.join();
  const std::chrono::duration<double> secs =
      std::chrono::steady_clock::now() - start;

  // sum over i=1..N of (2i+1) = N(N+1) + N
  const std::uint64_t expect =
      static_cast<std::uint64_t>(kItems) * (kItems + 1) +
      static_cast<std::uint64_t>(kItems);
  std::printf("pipeline: items=%d  folded=%llu (expect %llu) %s  %.3fs\n",
              kItems, static_cast<unsigned long long>(folded),
              static_cast<unsigned long long>(expect),
              folded == expect ? "OK" : "MISMATCH", secs.count());
  return folded == expect ? 0 : 1;
}
