// Clock-variant guinea pig (glibc 2.30+ entry points): a shim-unaware
// pthread program whose lock traffic goes through the clock-based
// calls — pthread_mutex_clocklock, pthread_rwlock_clock{rd,wr}lock,
// pthread_cond_clockwait.
// Compiled at test time by test_preload.cpp and run under
// LD_PRELOAD=libresilock_preload.so.
//
// The mixed-entry counter is the load-bearing check: half the threads
// lock with pthread_mutex_lock, half with a CLOCK_MONOTONIC
// clocklock. If the clock variants were NOT interposed, those threads
// would lock the raw glibc object while the others hold the adopted
// handle — no mutual exclusion — and the printed total would tear.
#include <errno.h>
#include <pthread.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

namespace {

constexpr int kThreads = 4;
constexpr long kPerThread = 20000;

pthread_mutex_t g_mu = PTHREAD_MUTEX_INITIALIZER;
long g_counter = 0;

timespec mono_in_ms(long ms) {
  timespec t;
  clock_gettime(CLOCK_MONOTONIC, &t);
  t.tv_sec += ms / 1000;
  t.tv_nsec += (ms % 1000) * 1000000L;
  if (t.tv_nsec >= 1000000000L) {
    t.tv_nsec -= 1000000000L;
    ++t.tv_sec;
  }
  return t;
}

void* plain_worker(void*) {
  for (long i = 0; i < kPerThread; ++i) {
    pthread_mutex_lock(&g_mu);
    ++g_counter;
    pthread_mutex_unlock(&g_mu);
  }
  return nullptr;
}

void* clock_worker(void*) {
  for (long i = 0; i < kPerThread; ++i) {
    const timespec dl = mono_in_ms(10000);
    if (pthread_mutex_clocklock(&g_mu, CLOCK_MONOTONIC, &dl) != 0) {
      fprintf(stderr, "clocklock failed mid-loop\n");
      exit(1);
    }
    ++g_counter;
    pthread_mutex_unlock(&g_mu);
  }
  return nullptr;
}

// Holds the mutex (or rwlock in write mode) long enough for main to
// observe a clock-deadline timeout against it.
struct HoldArgs {
  pthread_mutex_t* mu;
  pthread_rwlock_t* rw;
  long hold_ms;
};

void* holder(void* p) {
  HoldArgs* a = static_cast<HoldArgs*>(p);
  if (a->mu != nullptr) pthread_mutex_lock(a->mu);
  if (a->rw != nullptr) pthread_rwlock_wrlock(a->rw);
  timespec nap = {a->hold_ms / 1000, (a->hold_ms % 1000) * 1000000L};
  nanosleep(&nap, nullptr);
  if (a->rw != nullptr) pthread_rwlock_unlock(a->rw);
  if (a->mu != nullptr) pthread_mutex_unlock(a->mu);
  return nullptr;
}

}  // namespace

int main() {
  pthread_t tids[kThreads];
  for (int i = 0; i < kThreads; ++i) {
    void* (*fn)(void*) = (i % 2 == 0) ? plain_worker : clock_worker;
    if (pthread_create(&tids[i], nullptr, fn, nullptr) != 0) {
      fprintf(stderr, "pthread_create failed\n");
      return 1;
    }
  }
  for (int i = 0; i < kThreads; ++i) pthread_join(tids[i], nullptr);
  printf("clock-total=%ld\n", g_counter);

  // Timeout semantics against a held mutex: the monotonic deadline
  // must expire with ETIMEDOUT, through whatever translation the
  // interposer applies.
  {
    HoldArgs a = {&g_mu, nullptr, 400};
    pthread_t t;
    pthread_create(&t, nullptr, holder, &a);
    timespec settle = {0, 50 * 1000000L};
    nanosleep(&settle, nullptr);  // let the holder take the lock
    const timespec dl = mono_in_ms(100);
    const int rc = pthread_mutex_clocklock(&g_mu, CLOCK_MONOTONIC, &dl);
    printf("clocklock-timeout=%s\n", rc == ETIMEDOUT ? "ok" : "bad");
    pthread_join(t, nullptr);
  }

  // Unsupported clock mirrors glibc: EINVAL, no acquisition.
  {
    const timespec dl = mono_in_ms(100);
    const int rc =
        pthread_mutex_clocklock(&g_mu, CLOCK_PROCESS_CPUTIME_ID, &dl);
    printf("clocklock-einval=%s\n", rc == EINVAL ? "ok" : "bad");
  }

  // rwlock clock variants: rd times out against a live writer, then
  // both rd and wr succeed on the free lock.
  {
    pthread_rwlock_t rw;
    pthread_rwlock_init(&rw, nullptr);
    HoldArgs a = {nullptr, &rw, 400};
    pthread_t t;
    pthread_create(&t, nullptr, holder, &a);
    timespec settle = {0, 50 * 1000000L};
    nanosleep(&settle, nullptr);
    timespec dl = mono_in_ms(100);
    int rc = pthread_rwlock_clockrdlock(&rw, CLOCK_MONOTONIC, &dl);
    printf("clockrdlock-timeout=%s\n", rc == ETIMEDOUT ? "ok" : "bad");
    pthread_join(t, nullptr);
    dl = mono_in_ms(10000);
    rc = pthread_rwlock_clockrdlock(&rw, CLOCK_MONOTONIC, &dl);
    if (rc == 0) rc = pthread_rwlock_unlock(&rw);
    int wrc = pthread_rwlock_clockwrlock(&rw, CLOCK_MONOTONIC, &dl);
    if (wrc == 0) wrc = pthread_rwlock_unlock(&rw);
    printf("clockrwlock-free=%s\n",
           (rc == 0 && wrc == 0) ? "ok" : "bad");
    pthread_rwlock_destroy(&rw);
  }

  // cond_clockwait with nobody signaling: ETIMEDOUT on the monotonic
  // deadline, lock reacquired on the way out (unlock must succeed).
  {
    pthread_cond_t cv;
    pthread_cond_init(&cv, nullptr);
    pthread_mutex_lock(&g_mu);
    const timespec dl = mono_in_ms(100);
    const int rc =
        pthread_cond_clockwait(&cv, &g_mu, CLOCK_MONOTONIC, &dl);
    const int urc = pthread_mutex_unlock(&g_mu);
    printf("clockwait-timeout=%s\n",
           (rc == ETIMEDOUT && urc == 0) ? "ok" : "bad");
    pthread_cond_destroy(&cv);
  }

  printf("clock-child-exit\n");
  return 0;
}
