// Condition-variable guinea pig: a shim-unaware pthread program whose
// condvars run on the preload's native futex condvar. Compiled at test
// time by test_preload.cpp and run under
// LD_PRELOAD=libresilock_preload.so, one section per argv[1]:
//
//   misuse  pthread_cond_timedwait on a mutex the caller does not hold,
//           once on a never-touched static mutex and once on one this
//           thread locked and released before. Each wait must return
//           EPERM at once and hold nothing afterwards: another thread's
//           trylock must then succeed.
//   cond    signal ping-pong with an exact handoff count, one broadcast
//           waking 8 waiters, a CLOCK_MONOTONIC cond timing out on a
//           monotonic deadline, EINVAL for a bad tv_nsec, a static
//           PTHREAD_COND_INITIALIZER cond used without init, timed
//           waiters timing out while signals race them, and a
//           pthread_cancel acting on a thread asleep in a cond wait.
//   exit    a static thread pool whose destructor, run by exit(), sets
//           stop, broadcasts and joins workers asleep in
//           pthread_cond_wait. Run with a trace file (which starts the
//           collector), the collector's static destructor has pinned
//           the exiting thread to glibc by then, so the broadcast comes
//           from a pinned thread.
//
// An alarm() watchdog turns a lost wakeup into a SIGALRM death instead
// of a hang; the parent test asserts on the printed lines.
#include <errno.h>
#include <pthread.h>
#include <stdio.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

namespace {

timespec deadline_in_ms(clockid_t clock, long ms) {
  timespec t;
  clock_gettime(clock, &t);
  t.tv_sec += ms / 1000;
  t.tv_nsec += (ms % 1000) * 1000000L;
  if (t.tv_nsec >= 1000000000L) {
    t.tv_nsec -= 1000000000L;
    ++t.tv_sec;
  }
  return t;
}

long elapsed_ms(const timespec& from, const timespec& to) {
  return (to.tv_sec - from.tv_sec) * 1000 +
         (to.tv_nsec - from.tv_nsec) / 1000000;
}

// ---------------------------------------------------------------------
// misuse
// ---------------------------------------------------------------------

pthread_mutex_t g_never_locked = PTHREAD_MUTEX_INITIALIZER;
pthread_mutex_t g_was_locked = PTHREAD_MUTEX_INITIALIZER;
pthread_cond_t g_misuse_cv = PTHREAD_COND_INITIALIZER;

void* try_then_release(void* p) {
  pthread_mutex_t* m = static_cast<pthread_mutex_t*>(p);
  const int rc = pthread_mutex_trylock(m);
  if (rc == 0) pthread_mutex_unlock(m);
  return reinterpret_cast<void*>(static_cast<long>(rc));
}

int trylock_from_other_thread(pthread_mutex_t* m) {
  pthread_t t;
  pthread_create(&t, nullptr, try_then_release, m);
  void* rc = nullptr;
  pthread_join(t, &rc);
  return static_cast<int>(reinterpret_cast<long>(rc));
}

void wait_without_lock(const char* name, pthread_mutex_t* m) {
  const timespec dl = deadline_in_ms(CLOCK_REALTIME, 200);
  const int rc = pthread_cond_timedwait(&g_misuse_cv, m, &dl);
  printf("wait-%s-rc=%d\n", name, rc);
  printf("wait-%s-trylock=%d\n", name, trylock_from_other_thread(m));
}

int run_misuse() {
  wait_without_lock("unheld", &g_never_locked);
  pthread_mutex_lock(&g_was_locked);
  pthread_mutex_unlock(&g_was_locked);
  wait_without_lock("released", &g_was_locked);
  return 0;
}

// ---------------------------------------------------------------------
// cond
// ---------------------------------------------------------------------

constexpr long kHandoffs = 200000;
constexpr int kBroadcastWaiters = 8;

pthread_mutex_t g_mu = PTHREAD_MUTEX_INITIALIZER;
pthread_cond_t g_turn_cv = PTHREAD_COND_INITIALIZER;
int g_turn = 0;
long g_handoffs = 0;

// Two threads alternate turns; each handoff is one signal to a waiter
// that is (usually) asleep.
void* ping_pong(void* p) {
  const int me = static_cast<int>(reinterpret_cast<long>(p));
  pthread_mutex_lock(&g_mu);
  for (;;) {
    while (g_turn != me && g_handoffs < kHandoffs) {
      pthread_cond_wait(&g_turn_cv, &g_mu);
    }
    if (g_handoffs >= kHandoffs) break;
    ++g_handoffs;
    g_turn = 1 - me;
    pthread_cond_signal(&g_turn_cv);
  }
  pthread_cond_signal(&g_turn_cv);
  pthread_mutex_unlock(&g_mu);
  return nullptr;
}

pthread_cond_t g_go_cv = PTHREAD_COND_INITIALIZER;
int g_arrived = 0;
int g_woken = 0;
bool g_go = false;

void* broadcast_waiter(void*) {
  pthread_mutex_lock(&g_mu);
  ++g_arrived;
  while (!g_go) pthread_cond_wait(&g_go_cv, &g_mu);
  ++g_woken;
  pthread_mutex_unlock(&g_mu);
  return nullptr;
}

// One broadcast, sent only once all 8 are inside the wait (each counted
// itself under the mutex, then released it by waiting).
int broadcast_wakes_all() {
  pthread_t tids[kBroadcastWaiters];
  for (pthread_t& t : tids) pthread_create(&t, nullptr, broadcast_waiter, nullptr);
  for (;;) {
    pthread_mutex_lock(&g_mu);
    if (g_arrived == kBroadcastWaiters) break;
    pthread_mutex_unlock(&g_mu);
    usleep(1000);
  }
  g_go = true;
  pthread_cond_broadcast(&g_go_cv);
  pthread_mutex_unlock(&g_mu);
  for (pthread_t& t : tids) pthread_join(t, nullptr);
  return g_woken;
}

// A cond on CLOCK_MONOTONIC must read its abstime on that clock: read
// as CLOCK_REALTIME the deadline would lie decades in the past and the
// wait would return at once.
bool monotonic_cond_times_out() {
  pthread_condattr_t attr;
  pthread_condattr_init(&attr);
  pthread_condattr_setclock(&attr, CLOCK_MONOTONIC);
  pthread_cond_t cv;
  pthread_cond_init(&cv, &attr);
  pthread_condattr_destroy(&attr);
  pthread_mutex_lock(&g_mu);
  timespec t0, t1;
  clock_gettime(CLOCK_MONOTONIC, &t0);
  const timespec dl = deadline_in_ms(CLOCK_MONOTONIC, 150);
  int rc;
  do {
    rc = pthread_cond_timedwait(&cv, &g_mu, &dl);
  } while (rc == 0);  // spurious wakes are allowed; nobody signals
  clock_gettime(CLOCK_MONOTONIC, &t1);
  const int urc = pthread_mutex_unlock(&g_mu);
  pthread_cond_destroy(&cv);
  const long ms = elapsed_ms(t0, t1);
  return rc == ETIMEDOUT && urc == 0 && ms >= 145 && ms < 5000;
}

// EINVAL before anything else happens: the mutex stays held.
bool bad_nsec_is_einval() {
  pthread_cond_t cv;
  pthread_cond_init(&cv, nullptr);
  pthread_mutex_lock(&g_mu);
  timespec dl = deadline_in_ms(CLOCK_REALTIME, 100);
  dl.tv_nsec = 1000000000L;
  const int rc = pthread_cond_timedwait(&cv, &g_mu, &dl);
  const int urc = pthread_mutex_unlock(&g_mu);
  pthread_cond_destroy(&cv);
  return rc == EINVAL && urc == 0;
}

pthread_cond_t g_static_cv = PTHREAD_COND_INITIALIZER;
bool g_static_flag = false;

void* static_cond_waiter(void*) {
  pthread_mutex_lock(&g_mu);
  while (!g_static_flag) pthread_cond_wait(&g_static_cv, &g_mu);
  pthread_mutex_unlock(&g_mu);
  return nullptr;
}

bool static_cond_works() {
  pthread_t t;
  pthread_create(&t, nullptr, static_cond_waiter, nullptr);
  usleep(20000);  // let the waiter park first
  pthread_mutex_lock(&g_mu);
  g_static_flag = true;
  pthread_cond_signal(&g_static_cv);
  pthread_mutex_unlock(&g_mu);
  pthread_join(t, nullptr);
  return true;
}

// Timed waiters time out while a producer's signals race them. Then
// the timed waiters leave, and every remaining item must reach a
// plain waiter through signals alone: a wake token stranded by a
// timed-out waiter would make those signals no-ops and the plain
// waiters would sleep until the watchdog fires.
constexpr int kTimedWaiters = 4;
constexpr int kPlainWaiters = 2;
constexpr long kRaceItems = 20000;
constexpr long kTailItems = 2000;

pthread_cond_t g_item_cv = PTHREAD_COND_INITIALIZER;
long g_items = 0;
long g_consumed = 0;
long g_timeouts = 0;
bool g_timed_stop = false;
bool g_done = false;

void* timed_waiter(void*) {
  pthread_mutex_lock(&g_mu);
  while (!g_timed_stop) {
    if (g_items > 0) {
      --g_items;
      ++g_consumed;
      continue;
    }
    const timespec dl = deadline_in_ms(CLOCK_REALTIME, 1);
    if (pthread_cond_timedwait(&g_item_cv, &g_mu, &dl) == ETIMEDOUT) {
      ++g_timeouts;
    }
  }
  pthread_mutex_unlock(&g_mu);
  return nullptr;
}

void* plain_waiter(void*) {
  pthread_mutex_lock(&g_mu);
  for (;;) {
    while (g_items == 0 && !g_done) pthread_cond_wait(&g_item_cv, &g_mu);
    if (g_items == 0) break;
    --g_items;
    ++g_consumed;
  }
  pthread_mutex_unlock(&g_mu);
  return nullptr;
}

void produce(long n) {
  for (long i = 0; i < n; ++i) {
    pthread_mutex_lock(&g_mu);
    ++g_items;
    pthread_cond_signal(&g_item_cv);
    pthread_mutex_unlock(&g_mu);
    if (i % 64 == 0) usleep(50);
  }
}

void wait_consumed(long n) {
  for (;;) {
    pthread_mutex_lock(&g_mu);
    const bool all = g_consumed == n;
    pthread_mutex_unlock(&g_mu);
    if (all) return;
    usleep(1000);
  }
}

bool timed_race_leaves_no_sleeper() {
  pthread_t timed[kTimedWaiters], plain[kPlainWaiters];
  for (pthread_t& t : timed) pthread_create(&t, nullptr, timed_waiter, nullptr);
  for (pthread_t& t : plain) pthread_create(&t, nullptr, plain_waiter, nullptr);
  produce(kRaceItems);
  wait_consumed(kRaceItems);
  pthread_mutex_lock(&g_mu);
  g_timed_stop = true;
  pthread_mutex_unlock(&g_mu);
  for (pthread_t& t : timed) pthread_join(t, nullptr);
  produce(kTailItems);
  wait_consumed(kRaceItems + kTailItems);
  pthread_mutex_lock(&g_mu);
  g_done = true;
  pthread_cond_broadcast(&g_item_cv);
  pthread_mutex_unlock(&g_mu);
  for (pthread_t& t : plain) pthread_join(t, nullptr);
  printf("timed-race-timeouts=%ld\n", g_timeouts);
  return g_consumed == kRaceItems + kTailItems && g_items == 0;
}

// pthread_cond_wait is a cancellation point: a cancelled waiter leaves
// the wait with the mutex re-acquired and runs its cleanup handler,
// which here releases the mutex (rc 0 proves it was held again).
pthread_cond_t g_cancel_cv = PTHREAD_COND_INITIALIZER;
bool g_cancel_waiting = false;
bool g_never = false;
int g_cleanup_unlock_rc = -1;

void unlock_on_cancel(void*) {
  g_cleanup_unlock_rc = pthread_mutex_unlock(&g_mu);
}

void* cancelled_waiter(void*) {
  pthread_mutex_lock(&g_mu);
  pthread_cleanup_push(unlock_on_cancel, nullptr);
  g_cancel_waiting = true;
  while (!g_never) pthread_cond_wait(&g_cancel_cv, &g_mu);
  pthread_cleanup_pop(1);
  return nullptr;
}

bool cancel_acts_on_cond_wait() {
  pthread_t t;
  pthread_create(&t, nullptr, cancelled_waiter, nullptr);
  for (bool waiting = false; !waiting; usleep(1000)) {
    pthread_mutex_lock(&g_mu);
    waiting = g_cancel_waiting;
    pthread_mutex_unlock(&g_mu);
  }
  usleep(20000);  // let the waiter park
  pthread_cancel(t);
  void* res = nullptr;
  pthread_join(t, &res);
  const int trc = pthread_mutex_trylock(&g_mu);
  if (trc == 0) pthread_mutex_unlock(&g_mu);
  return res == PTHREAD_CANCELED && g_cleanup_unlock_rc == 0 && trc == 0;
}

int run_cond() {
  pthread_t a, b;
  pthread_create(&a, nullptr, ping_pong, reinterpret_cast<void*>(0L));
  pthread_create(&b, nullptr, ping_pong, reinterpret_cast<void*>(1L));
  pthread_join(a, nullptr);
  pthread_join(b, nullptr);
  printf("handoffs=%ld\n", g_handoffs);
  printf("broadcast-woken=%d\n", broadcast_wakes_all());
  printf("monotonic-timeout=%s\n", monotonic_cond_times_out() ? "ok" : "bad");
  printf("bad-nsec-einval=%s\n", bad_nsec_is_einval() ? "ok" : "bad");
  printf("static-cond=%s\n", static_cond_works() ? "ok" : "bad");
  printf("timed-race=%s\n", timed_race_leaves_no_sleeper() ? "ok" : "bad");
  printf("cancel=%s\n", cancel_acts_on_cond_wait() ? "ok" : "bad");
  return 0;
}

// ---------------------------------------------------------------------
// exit
// ---------------------------------------------------------------------

// Its destructor is registered during static initialization, before
// the first lock call brings up the collector, so exit() runs it after
// the collector's destructor.
struct ExitPool {
  static constexpr int kWorkers = 4;
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t cv = PTHREAD_COND_INITIALIZER;
  pthread_t tids[kWorkers];
  int parked = 0;
  bool started = false;
  bool stop = false;

  static void* worker(void* p) {
    ExitPool* pool = static_cast<ExitPool*>(p);
    pthread_mutex_lock(&pool->mu);
    ++pool->parked;
    while (!pool->stop) pthread_cond_wait(&pool->cv, &pool->mu);
    pthread_mutex_unlock(&pool->mu);
    return nullptr;
  }

  void start() {
    for (pthread_t& t : tids) pthread_create(&t, nullptr, worker, this);
    started = true;
    for (bool all = false; !all; usleep(1000)) {
      pthread_mutex_lock(&mu);
      all = parked == kWorkers;
      pthread_mutex_unlock(&mu);
    }
    usleep(50000);  // let the last one park
  }

  ~ExitPool() {
    if (!started) return;
    pthread_mutex_lock(&mu);
    stop = true;
    pthread_mutex_unlock(&mu);
    pthread_cond_broadcast(&cv);
    for (pthread_t& t : tids) pthread_join(t, nullptr);
    printf("exit-pool-joined=%d\n", kWorkers);
  }
};

ExitPool g_exit_pool;

}  // namespace

int main(int argc, char** argv) {
  setvbuf(stdout, nullptr, _IONBF, 0);  // keep lines printed before a hang
  alarm(60);
  if (argc == 2 && strcmp(argv[1], "misuse") == 0) return run_misuse();
  if (argc == 2 && strcmp(argv[1], "cond") == 0) {
    const int rc = run_cond();
    printf("cond-child-exit\n");
    return rc;
  }
  if (argc == 2 && strcmp(argv[1], "exit") == 0) {
    g_exit_pool.start();
    printf("exit-pool-started\n");
    return 0;
  }
  fprintf(stderr, "usage: %s misuse|cond|exit\n", argv[0]);
  return 2;
}
