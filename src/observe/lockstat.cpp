// Lockstat report rendering, dladdr symbolization, and the
// async-signal-safe live-dump trigger. See lockstat.hpp for the
// design overview.
#ifndef _GNU_SOURCE
#define _GNU_SOURCE  // dladdr
#endif

#include "observe/lockstat.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <new>

#if defined(__linux__) || defined(__APPLE__)
#include <csignal>
#include <dlfcn.h>
#define RESILOCK_HAVE_DLADDR 1
#define RESILOCK_HAVE_SIGACTION 1
#else
#define RESILOCK_HAVE_DLADDR 0
#define RESILOCK_HAVE_SIGACTION 0
#endif

namespace resilock::observe {

// ---------------------------------------------------------------------
// Singleton + per-class table.
// ---------------------------------------------------------------------

LockStat::StatChunk* LockStat::chunk_at(std::uint32_t index,
                                        bool create) {
  std::atomic<StatChunk*>& dslot = dir_[index];
  StatChunk* c = dslot.load(std::memory_order_acquire);
  if (c != nullptr || !create) return c;
  auto* fresh = new StatChunk;
  if (dslot.compare_exchange_strong(c, fresh, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return fresh;
  }
  delete fresh;  // lost the race; `c` holds the winner
  return c;
}

void LockStat::park_retired(Entry* e) noexcept {
  Entry* head = retired_.load(std::memory_order_relaxed);
  do {
    e->next_retired = head;
  } while (!retired_.compare_exchange_weak(head, e,
                                           std::memory_order_release,
                                           std::memory_order_relaxed));
  retired_count_.fetch_add(1, std::memory_order_relaxed);
}

ClassStats* LockStat::install(lockdep::ClassId cls) {
  const std::uint32_t slot = lockdep::class_slot(cls);
  StatChunk* c = chunk_at(slot / kStatChunkSlots, /*create=*/true);
  std::atomic<Entry*>& eslot = c->slots[slot % kStatChunkSlots];
  Entry* e = eslot.load(std::memory_order_acquire);
  for (;;) {
    if (e != nullptr && e->id == cls) return &e->st;
    // Empty slot, or a stats block keyed by a previous generation of
    // this slot: install a fresh block under the full stamped id. The
    // displaced block parks on the retired list — a racing recorder
    // may still hold a pointer into it, so it is never freed.
    auto* fresh = new Entry(cls);
    if (eslot.compare_exchange_strong(e, fresh,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      if (e != nullptr) park_retired(e);
      return &fresh->st;
    }
    delete fresh;  // lost the race; `e` reloaded, re-check its id
  }
}

LockStat::Totals LockStat::totals() const noexcept {
  Totals t;
  for (std::uint32_t ci = 0; ci < kStatDirSlots; ++ci) {
    const StatChunk* chunk = dir_[ci].load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    for (std::uint32_t si = 0; si < kStatChunkSlots; ++si) {
      const Entry* e = chunk->slots[si].load(std::memory_order_acquire);
      if (e == nullptr) continue;
      const ClassStats* s = &e->st;
      const HistogramSnapshot wait = s->wait.snapshot();
      const HistogramSnapshot hold = s->hold.snapshot();
      std::uint64_t acq = 0;
      for (std::size_t m = 0; m < kAccessModes; ++m) {
        acq += s->sites.mode_total(m);
      }
      const std::uint64_t con = wait.count;
      const std::uint64_t tf =
          s->trylock_fails.load(std::memory_order_relaxed);
      const std::uint64_t mis =
          s->misuses.load(std::memory_order_relaxed);
      if (acq + con + tf + mis + wait.count + hold.count == 0) continue;
      ++t.classes;
      t.acquisitions += acq;
      t.contentions += con;
      t.trylock_fails += tf;
      t.misuses += mis;
      t.wait_ns += wait.total;
      t.hold_ns += hold.total;
      t.parks += s->parks.load(std::memory_order_relaxed);
      t.park_ns += s->park_ns.load(std::memory_order_relaxed);
    }
  }
  return t;
}

std::vector<ClassReport> LockStat::report() const {
  std::vector<ClassReport> out;
  const lockdep::Graph& graph = lockdep::Graph::instance();
  for (std::uint32_t ci = 0; ci < kStatDirSlots; ++ci) {
    const StatChunk* chunk = dir_[ci].load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    for (std::uint32_t si = 0; si < kStatChunkSlots; ++si) {
      const Entry* e = chunk->slots[si].load(std::memory_order_acquire);
      if (e == nullptr) continue;
      const ClassStats* s = &e->st;
      ClassReport r;
      r.cls = e->id;
      r.hold_sample = lockstat_sample();
      r.trylock_fails =
          s->trylock_fails.load(std::memory_order_relaxed);
      r.misuses = s->misuses.load(std::memory_order_relaxed);
      for (std::size_t m = 0; m < kAccessModes; ++m) {
        r.by_mode[m] = s->sites.mode_total(m);
        r.acquisitions += r.by_mode[m];
      }
      r.wait = s->wait.snapshot();
      r.hold = s->hold.snapshot();
      r.contentions = r.wait.count;
      r.parks = s->parks.load(std::memory_order_relaxed);
      r.wakes = s->wakes.load(std::memory_order_relaxed);
      r.park_time = s->park_ns.load(std::memory_order_relaxed);
      if (r.acquisitions + r.contentions + r.trylock_fails + r.misuses +
              r.wait.count + r.hold.count ==
          0) {
        continue;
      }
      // label_of is generation-checked: a block whose class has since
      // retired (or whose slot was recycled) falls back to class#N.
      const char* label = graph.label_of(r.cls);
      if (label != nullptr && label[0] != '\0') {
        r.label = label;
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "class#%u",
                      static_cast<unsigned>(lockdep::class_slot(r.cls)));
        r.label = buf;
      }
      r.site_overflow = s->sites.overflow();
      s->sites.for_each([&r](std::uintptr_t addr, std::uint64_t count) {
        r.sites.push_back(CallSiteRow{addr, count});
      });
      std::sort(r.sites.begin(), r.sites.end(),
                [](const CallSiteRow& a, const CallSiteRow& b) {
                  return a.count > b.count;
                });
      out.push_back(std::move(r));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ClassReport& a, const ClassReport& b) {
              if (a.wait.total != b.wait.total)
                return a.wait.total > b.wait.total;
              return a.acquisitions > b.acquisitions;
            });
  return out;
}

void LockStat::reset() noexcept {
  const auto zero = [](ClassStats* s) {
    s->wait.reset();
    s->hold.reset();
    s->trylock_fails.store(0, std::memory_order_relaxed);
    s->misuses.store(0, std::memory_order_relaxed);
    s->parks.store(0, std::memory_order_relaxed);
    s->park_ns.store(0, std::memory_order_relaxed);
    s->wakes.store(0, std::memory_order_relaxed);
    s->sites.reset();
  };
  for (std::uint32_t ci = 0; ci < kStatDirSlots; ++ci) {
    StatChunk* chunk = dir_[ci].load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    for (std::uint32_t si = 0; si < kStatChunkSlots; ++si) {
      Entry* e = chunk->slots[si].load(std::memory_order_acquire);
      if (e != nullptr) zero(&e->st);
    }
  }
  // Displaced blocks too: a reset means "forget recorded history", and
  // the retired list is history by definition.
  for (Entry* e = retired_.load(std::memory_order_acquire); e != nullptr;
       e = e->next_retired) {
    zero(&e->st);
  }
}

// ---------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------

void symbolize_site(std::uintptr_t site, char* buf, std::size_t len,
                    bool symbolize) {
#if RESILOCK_HAVE_DLADDR
  if (symbolize) {
    Dl_info info{};
    if (dladdr(reinterpret_cast<void*>(site), &info) != 0 &&
        info.dli_sname != nullptr) {
      const auto base = reinterpret_cast<std::uintptr_t>(info.dli_saddr);
      const char* module = "?";
      if (info.dli_fname != nullptr) {
        module = std::strrchr(info.dli_fname, '/');
        module = module != nullptr ? module + 1 : info.dli_fname;
      }
      std::snprintf(buf, len, "%s+0x%" PRIxPTR " [%s]", info.dli_sname,
                    site - base, module);
      return;
    }
  }
#else
  (void)symbolize;
#endif
  std::snprintf(buf, len, "0x%" PRIxPTR, site);
}

namespace {

void write_histogram_line(std::FILE* f, const char* name,
                          const HistogramSnapshot& h,
                          std::uint32_t sample = 1) {
  std::fprintf(f,
               "  %-7s count %10llu  total %14llu ns  "
               "p50 %10llu  p90 %10llu  p99 %10llu  max %10llu",
               name, static_cast<unsigned long long>(h.count),
               static_cast<unsigned long long>(h.total),
               static_cast<unsigned long long>(h.percentile(0.50)),
               static_cast<unsigned long long>(h.percentile(0.90)),
               static_cast<unsigned long long>(h.percentile(0.99)),
               static_cast<unsigned long long>(h.max));
  if (sample > 1) std::fprintf(f, "  (sampled 1/%u)", sample);
  std::fputc('\n', f);
}

}  // namespace

void write_report(std::FILE* f, const std::vector<ClassReport>& classes,
                  std::size_t top_sites, bool symbolize) {
  std::fputs(
      "resilock lock_stat (classes by total wait; times in ns)\n", f);
  if (classes.empty()) {
    std::fputs("  (no lock activity recorded)\n", f);
    return;
  }
  for (const ClassReport& r : classes) {
    std::fputs(
        "------------------------------------------------------------"
        "--------------------\n",
        f);
    std::fprintf(f, "%s (cls %u)\n", r.label.c_str(),
                 static_cast<unsigned>(r.cls));
    std::fprintf(f,
                 "  acquisitions %llu  contentions %llu  "
                 "trylock-fails %llu  misuses %llu\n",
                 static_cast<unsigned long long>(r.acquisitions),
                 static_cast<unsigned long long>(r.contentions),
                 static_cast<unsigned long long>(r.trylock_fails),
                 static_cast<unsigned long long>(r.misuses));
    if (r.by_mode[1] != 0 || r.by_mode[2] != 0) {
      std::fprintf(f,
                   "  modes: excl %llu  read %llu  write %llu\n",
                   static_cast<unsigned long long>(r.by_mode[0]),
                   static_cast<unsigned long long>(r.by_mode[1]),
                   static_cast<unsigned long long>(r.by_mode[2]));
    }
    write_histogram_line(f, "wait", r.wait);
    write_histogram_line(f, "hold", r.hold, r.hold_sample);
    if (r.parks != 0 || r.wakes != 0) {
      std::fprintf(f,
                   "  parks %llu  wakes %llu  park-time %llu ns\n",
                   static_cast<unsigned long long>(r.parks),
                   static_cast<unsigned long long>(r.wakes),
                   static_cast<unsigned long long>(r.park_time));
    }
    if (!r.sites.empty() || r.site_overflow != 0) {
      std::fputs("  call sites:\n", f);
      std::uint64_t site_total = r.site_overflow;
      for (const CallSiteRow& row : r.sites) site_total += row.count;
      std::size_t shown = 0;
      for (const CallSiteRow& row : r.sites) {
        if (shown++ == top_sites) break;
        char sym[256];
        symbolize_site(row.site, sym, sizeof(sym), symbolize);
        const double pct =
            site_total != 0
                ? 100.0 * static_cast<double>(row.count) /
                      static_cast<double>(site_total)
                : 0.0;
        std::fprintf(f, "    %5.1f%% %10llu  0x%" PRIxPTR "  %s\n", pct,
                     static_cast<unsigned long long>(row.count),
                     row.site, sym);
      }
      if (r.site_overflow != 0) {
        std::fprintf(f, "    (+%llu acquisitions from other sites)\n",
                     static_cast<unsigned long long>(r.site_overflow));
      }
    }
  }
}

bool dump_report(const char* path) {
  const std::vector<ClassReport> classes = LockStat::instance().report();
  std::FILE* f = stderr;
  if (path != nullptr) {
    f = std::fopen(path, "w");
    if (f == nullptr) return false;
  }
  write_report(f, classes);
  if (path != nullptr) {
    std::fclose(f);
  } else {
    std::fflush(f);
  }
  return true;
}

// ---------------------------------------------------------------------
// Live trigger.
// ---------------------------------------------------------------------

namespace {
std::atomic<bool> g_dump_requested{false};

#if RESILOCK_HAVE_SIGACTION
extern "C" void lockstat_signal_handler(int) { request_dump(); }
#endif
}  // namespace

void request_dump() noexcept {
  g_dump_requested.store(true, std::memory_order_release);
}

bool consume_dump_request() noexcept {
  return g_dump_requested.exchange(false, std::memory_order_acq_rel);
}

bool install_signal_trigger(int signo) {
#if RESILOCK_HAVE_SIGACTION
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = lockstat_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  return sigaction(signo, &sa, nullptr) == 0;
#else
  (void)signo;
  return false;
#endif
}

void install_signal_trigger_from_env() {
#if RESILOCK_HAVE_SIGACTION
  static std::atomic<bool> installed{false};
  if (installed.load(std::memory_order_acquire)) return;
  const char* raw = platform::env_raw("RESILOCK_LOCKSTAT_SIGNAL");
  if (raw == nullptr &&
      !platform::env_flag("RESILOCK_LOCKSTAT", false)) {
    return;
  }
  if (installed.exchange(true, std::memory_order_acq_rel)) return;
  int signo = SIGUSR2;
  if (raw != nullptr) {
    const std::uint32_t n =
        platform::env_u32("RESILOCK_LOCKSTAT_SIGNAL", 0);
    if (n != 0) signo = static_cast<int>(n);
  }
  install_signal_trigger(signo);
#endif
}

}  // namespace resilock::observe
