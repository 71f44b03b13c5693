#include "runtime/thread_team.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <semaphore>
#include <thread>
#include <vector>

namespace resilock::runtime {

void ThreadTeam::run(std::uint32_t threads,
                     const std::function<void(std::uint32_t)>& body) {
  if (threads == 1) {  // run inline: keeps single-thread baselines cheap
    body(0);
    return;
  }
  run_staggered(threads, threads, body);
}

void ThreadTeam::run_staggered(
    std::uint32_t threads, std::uint32_t live,
    const std::function<void(std::uint32_t)>& body) {
  if (threads == 0) return;

  std::vector<std::thread> workers;
  workers.reserve(threads);
  std::exception_ptr first_error;
  std::mutex error_mu;
  std::counting_semaphore<> slots(std::max<std::uint32_t>(1, live));

  for (std::uint32_t i = 0; i < threads; ++i) {
    slots.acquire();
    workers.emplace_back([&, i] {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> g(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      slots.release();
    });
  }
  for (auto& t : workers) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace resilock::runtime
