#include "telemetry/metrics.hpp"

#include <cstring>
#include <string_view>

#include "lockdep/event_ring.hpp"
#include "lockdep/lockdep.hpp"
#include "observe/lockstat.hpp"
#include "park/parking_lot.hpp"
#include "platform/env.hpp"
#include "platform/json.hpp"
#include "response/response.hpp"
#include "runtime/timer.hpp"
#include "telemetry/collector.hpp"

namespace resilock::telemetry {

std::uint64_t MetricsSnapshot::value(const char* name,
                                     std::uint64_t fallback) const {
  for (const auto& [k, v] : items) {
    if (k == name) return v;
  }
  return fallback;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry r;
  return r;
}

void MetricsRegistry::register_gauge(std::string name, Gauge gauge) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& g : gauges_) {
    if (g.name == name) {
      g.gauge = std::move(gauge);
      return;
    }
  }
  gauges_.push_back({std::move(name), std::move(gauge)});
}

void MetricsRegistry::unregister_gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = gauges_.begin(); it != gauges_.end(); ++it) {
    if (it->name == name) {
      gauges_.erase(it);
      return;
    }
  }
}

void MetricsRegistry::register_contention_probe(
    const std::string& prefix, const ContentionProbe* probe) {
  register_gauge(prefix + ".waiters",
                 [probe] { return std::uint64_t{probe->waiters()}; });
  register_gauge(prefix + ".contended_total",
                 [probe] { return probe->contended_total(); });
}

void MetricsRegistry::unregister_contention_probe(
    const std::string& prefix) {
  unregister_gauge(prefix + ".waiters");
  unregister_gauge(prefix + ".contended_total");
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  s.ns = runtime::now_ns();
  auto put = [&s](std::string name, std::uint64_t v) {
    s.items.emplace_back(std::move(name), v);
  };

  // Trace pipeline accounting. queued is derived and clamped: the
  // three counters are read at slightly different instants under load.
  {
    auto& tb = lockdep::TraceBuffer::instance();
    const CollectorStats cs = Collector::instance().stats();
    const std::uint64_t emitted = tb.emitted();
    const std::uint64_t dropped = tb.dropped();
    const std::uint64_t delivered = cs.events_delivered;
    put("trace.events_emitted", emitted);
    put("trace.events_dropped", dropped);
    put("trace.events_queued",
        emitted >= dropped + delivered ? emitted - dropped - delivered : 0);
    put("collector.running", cs.running ? 1 : 0);
    put("collector.events_delivered", delivered);
    put("collector.events_written", cs.events_written);
    put("collector.drain_cycles", cs.drain_cycles);
    put("collector.empty_cycles", cs.empty_cycles);
    put("collector.hard_drains", cs.hard_drains);
    put("collector.sleep_us", cs.sleep_us);
    put("collector.metrics_dumps", cs.metrics_dumps);
    put("collector.lockstat_dumps", cs.lockstat_dumps);
  }

  // Response engine: verdict census. by_event IS the global misuse
  // census by kind — every caught misuse and lockdep report passes
  // through ResponseEngine::decide.
  {
    const response::ResponseStats rs =
        response::ResponseEngine::instance().stats();
    put("response.decisions", rs.decisions);
    put("response.rule_hits", rs.rule_hits);
    put("response.log_rate_limited", rs.log_rate_limited);
    for (std::size_t i = 0; i < response::kActions; ++i) {
      put(std::string("response.action.") +
              to_string(static_cast<response::Action>(i)),
          rs.by_action[i]);
    }
    for (std::size_t i = 0; i < response::kResponseEvents; ++i) {
      put(std::string("response.event.") +
              to_string(static_cast<response::ResponseEvent>(i)),
          rs.by_event[i]);
    }
  }

  // Lock-order graph.
  {
    const lockdep::LockdepStats ls = lockdep::Graph::instance().stats();
    put("lockdep.classes_registered", ls.classes_registered);
    put("lockdep.classes_live", ls.classes_live);
    put("lockdep.class_table_full", ls.class_table_full);
    put("lockdep.edges", ls.edges);
    put("lockdep.rr_skipped", ls.rr_skipped);
    put("lockdep.inversions", ls.inversions);
    put("lockdep.cycles", ls.cycles);
    put("lockdep.capacity", ls.capacity);
    put("lockdep.chunks", ls.chunks);
    put("lockdep.epoch", ls.epoch);
    put("lockdep.limbo", ls.limbo);
    put("lockdep.reclaimed", ls.reclaimed);
    put("lockdep.shard_steals", ls.shard_steals);
    put("lockdep.chains", ls.chains);
    put("lockdep.chain_walks", ls.chain_walks);
    put("lockdep.chain_set_full", ls.chain_set_full);
  }

  // Lockstat aggregates: the cheap always-safe summary (full per-class
  // tables render through the lockstat report, not here).
  {
    const observe::LockStat::Totals lt =
        observe::LockStat::instance().totals();
    put("lockstat.enabled", observe::lockstat_enabled() ? 1 : 0);
    put("lockstat.classes", lt.classes);
    put("lockstat.acquisitions", lt.acquisitions);
    put("lockstat.contentions", lt.contentions);
    put("lockstat.trylock_fails", lt.trylock_fails);
    put("lockstat.misuses", lt.misuses);
    put("lockstat.wait_ns_total", lt.wait_ns);
    put("lockstat.hold_ns_total", lt.hold_ns);
    put("lockstat.parks", lt.parks);
    put("lockstat.park_ns_total", lt.park_ns);
  }

  // Parking tier (src/park/): process-wide futex sleep/wake tallies
  // plus the live currently_parked gauge.
  {
    const park::ParkStatsSnapshot ps = park::ParkStats::instance().snapshot();
    put("park.enabled", park::parking_enabled() ? 1 : 0);
    put("park.parks", ps.parks);
    put("park.wakes", ps.wakes);
    put("park.wakes_spurious", ps.wakes_spurious);
    put("park.timeouts", ps.timeouts);
    put("park.misuse_wakes", ps.misuse_wakes);
    put("park.currently_parked", ps.currently_parked);
  }

  // Registered per-lock sources.
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& g : gauges_) put(g.name, g.gauge());
  }
  return s;
}

void MetricsRegistry::write(std::FILE* f, const MetricsSnapshot& s,
                            MetricsFormat fmt) {
  if (fmt == MetricsFormat::kJson) {
    std::fprintf(f, "{\"ns\":%llu,\"metrics\":{",
                 static_cast<unsigned long long>(s.ns));
    bool first = true;
    for (const auto& [k, v] : s.items) {
      // Keys include registered gauge names — user-controlled strings
      // (a contention-probe prefix can carry quotes) — so they go
      // through the shared escaper.
      if (!first) std::fputc(',', f);
      platform::write_json_escaped(f, k);
      std::fprintf(f, ":%llu", static_cast<unsigned long long>(v));
      first = false;
    }
    std::fputs("}}\n", f);
    return;
  }
  std::fprintf(f, "ns=%llu\n", static_cast<unsigned long long>(s.ns));
  for (const auto& [k, v] : s.items) {
    std::fprintf(f, "%s=%llu\n", k.c_str(),
                 static_cast<unsigned long long>(v));
  }
}

bool MetricsRegistry::dump(const char* path, MetricsFormat fmt) const {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "resilock[metrics]: cannot open %s\n", path);
    return false;
  }
  write(f, snapshot(), fmt);
  std::fclose(f);
  return true;
}

MetricsFormat MetricsRegistry::format_from_env() {
  const char* v = platform::env_raw("RESILOCK_METRICS_FORMAT");
  if (v != nullptr && std::string_view(v) == "json") {
    return MetricsFormat::kJson;
  }
  return MetricsFormat::kText;
}

}  // namespace resilock::telemetry
