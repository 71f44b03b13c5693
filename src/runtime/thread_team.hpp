// Fork/join thread team with dense member indices.
//
// The evaluation harness (§6) runs "1 thread .. all hardware threads"
// configurations; ThreadTeam owns that loop: spawn N workers, hand each
// its team-local index (0..N-1), join, propagate the first exception.
#pragma once

#include <cstdint>
#include <functional>

namespace resilock::runtime {

class ThreadTeam {
 public:
  // Runs body(index) on `threads` std::threads and joins them all.
  // If any body throws, the first exception is rethrown after join.
  static void run(std::uint32_t threads,
                  const std::function<void(std::uint32_t)>& body);

  // Staggered start: the same team, but at most `live` workers run at
  // once, and worker i+live starts as soon as an earlier worker's body
  // returns. Each new worker's first dense-pid claim then races that
  // worker's thread exit, which frees its pid (platform/thread_registry).
  static void run_staggered(std::uint32_t threads, std::uint32_t live,
                            const std::function<void(std::uint32_t)>& body);

  ThreadTeam() = delete;
};

}  // namespace resilock::runtime
