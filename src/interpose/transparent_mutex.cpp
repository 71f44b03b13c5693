#include "interpose/transparent_mutex.hpp"

#include "platform/env.hpp"
#include "telemetry/collector.hpp"

namespace resilock::interpose {

const std::string& default_algorithm() {
  static const std::string algo = [] {
    const char* v = platform::env_raw("RESILOCK_ALGO");
    if (v != nullptr && is_lock_name(v)) return std::string(v);
    return std::string("MCS");
  }();
  return algo;
}

Resilience default_resilience() {
  static const Resilience r =
      platform::env_flag("RESILOCK_RESILIENT", true) ? kResilient
                                                     : kOriginal;
  return r;
}

namespace {
// Environment-selected mutexes ride through the ownership shield;
// explicitly constructed ones take exactly the algorithm they asked for.
const std::string& default_interposed_algorithm() {
  static const std::string name = is_shielded_name(default_algorithm())
                                      ? default_algorithm()
                                      : shielded_name(default_algorithm());
  return name;
}
}  // namespace

// Construction is the interpose cold path (one call per lock): bring
// up the RESILOCK_TELEMETRY collector here like rl_mutex_init does, so
// programs whose locks never misuse still get spans and metrics.
TransparentMutex::TransparentMutex()
    : impl_((telemetry::autostart_from_env(),
             make_lock(default_interposed_algorithm(),
                       default_resilience()))) {}

TransparentMutex::TransparentMutex(std::string_view algorithm, Resilience r)
    : impl_((telemetry::autostart_from_env(), make_lock(algorithm, r))) {}

}  // namespace resilock::interpose
