// The interposition guinea pig: a pthread program with zero resilock
// knowledge, compiled at test time by test_preload.cpp and run under
// LD_PRELOAD=libresilock_preload.so. Everything it does is plain
// POSIX — the point is that the shield, trace pipeline, and lockstat
// signal trigger all light up anyway.
//
// Behavior (asserted by the parent test):
//   1. Four threads push kPerThread increments through a
//      PTHREAD_MUTEX_INITIALIZER-protected counter; the final total
//      printed on stdout proves mutual exclusion held.
//   2. One deliberate double-unlock afterwards: the shield absorbs it
//      (EPERM back, protocol state intact) and the trace JSONL gets a
//      "double-unlock" event.
//   3. The owner's own trylocks get glibc's results: EBUSY on a default
//      mutex and under an rwlock write hold (and a trywrlock under a
//      read hold), 0 on a recursive mutex and a tryrdlock under a read
//      hold. A refused trylock adds no depth, so the one unlock frees.
//   4. raise(SIGUSR2) then a short sleep: the collector's duty cycle
//      renders a lock_stat report that names worker_loop() — this
//      file's own symbol — as the hot call site.
#include <pthread.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <unistd.h>

namespace {

constexpr int kThreads = 4;
constexpr long kPerThread = 20000;

pthread_mutex_t g_mu = PTHREAD_MUTEX_INITIALIZER;
long g_counter = 0;

pthread_mutex_t g_recursive = PTHREAD_RECURSIVE_MUTEX_INITIALIZER_NP;
pthread_rwlock_t g_rw = PTHREAD_RWLOCK_INITIALIZER;

void* trylock_g_mu(void*) {
  const int rc = pthread_mutex_trylock(&g_mu);
  if (rc == 0) pthread_mutex_unlock(&g_mu);
  return reinterpret_cast<void*>(static_cast<long>(rc));
}

void owner_trylocks() {
  pthread_mutex_lock(&g_mu);
  printf("owner-trylock-default=%d\n", pthread_mutex_trylock(&g_mu));
  pthread_mutex_unlock(&g_mu);
  pthread_t t;
  void* rc = nullptr;
  pthread_create(&t, nullptr, trylock_g_mu, nullptr);
  pthread_join(t, &rc);
  printf("owner-trylock-then-free=%ld\n", reinterpret_cast<long>(rc));

  pthread_mutex_lock(&g_recursive);
  const int rec = pthread_mutex_trylock(&g_recursive);
  printf("owner-trylock-recursive=%d\n", rec);
  if (rec == 0) pthread_mutex_unlock(&g_recursive);
  pthread_mutex_unlock(&g_recursive);

  pthread_rwlock_wrlock(&g_rw);
  printf("owner-tryrdlock-wrheld=%d\n", pthread_rwlock_tryrdlock(&g_rw));
  printf("owner-trywrlock-wrheld=%d\n", pthread_rwlock_trywrlock(&g_rw));
  pthread_rwlock_unlock(&g_rw);
  pthread_rwlock_rdlock(&g_rw);
  printf("owner-trywrlock-rdheld=%d\n", pthread_rwlock_trywrlock(&g_rw));
  const int rd = pthread_rwlock_tryrdlock(&g_rw);
  printf("owner-tryrdlock-rdheld=%d\n", rd);
  if (rd == 0) pthread_rwlock_unlock(&g_rw);
  pthread_rwlock_unlock(&g_rw);
}

}  // namespace

// External C linkage and out-of-line so -rdynamic exports the symbol:
// lockstat resolves call sites with dladdr, which only sees the
// dynamic symbol table. The parent test greps the SIGUSR2 report for
// "worker_loop".
extern "C" __attribute__((noinline)) void worker_loop() {
  for (long i = 0; i < kPerThread; ++i) {
    pthread_mutex_lock(&g_mu);
    ++g_counter;
    pthread_mutex_unlock(&g_mu);
  }
}

namespace {

void* worker(void*) {
  worker_loop();
  return nullptr;
}

}  // namespace

int main() {
  pthread_t tids[kThreads];
  for (int i = 0; i < kThreads; ++i) {
    if (pthread_create(&tids[i], nullptr, worker, nullptr) != 0) {
      fprintf(stderr, "pthread_create failed\n");
      return 1;
    }
  }
  for (int i = 0; i < kThreads; ++i) pthread_join(tids[i], nullptr);
  printf("total=%ld\n", g_counter);

  // The §4 bug, injected once: a second unlock of a lock this thread
  // no longer holds. Bare glibc would corrupt (normal mutexes) or
  // EPERM (errorcheck); the shield always absorbs and reports EPERM.
  pthread_mutex_lock(&g_mu);
  pthread_mutex_unlock(&g_mu);
  int rc = pthread_mutex_unlock(&g_mu);
  printf("double-unlock-rc=%d\n", rc);

  owner_trylocks();

  // Live observability: ask for a lock_stat dump the way an operator
  // would, then give the collector a couple of duty cycles to render.
  // Only when the run enables lockstat — without it no handler is
  // installed and the default SIGUSR2 disposition would kill us.
  if (getenv("RESILOCK_LOCKSTAT") != nullptr) {
    raise(SIGUSR2);
    usleep(400000);
  }
  printf("child-exit\n");
  return 0;
}
