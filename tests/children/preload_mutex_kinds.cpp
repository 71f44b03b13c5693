// Mutex kinds the preload leaves to glibc, under the preload. The
// parent test reads the output and the preload's stats JSON
// (RESILOCK_PRELOAD_STATS_FILE).
//
//   preload_mutex_kinds pshared  a PTHREAD_PROCESS_SHARED mutex in
//                                MAP_SHARED memory keeps glibc's own
//                                state: a hold shows the holder's tid
//                                in __owner, and a mutex another
//                                process holds is refused here (EBUSY)
//                                until that process unlocks it; two
//                                processes' counting under it adds up
//   preload_mutex_kinds robust   a robust mutex whose holder thread
//                                exited is EOWNERDEAD to the next
//                                trylock and lock, and usable again
//                                (a cond wait included) after
//                                pthread_mutex_consistent
//   preload_mutex_kinds kinds    one robust, one PI, one pshared and one
//                                default mutex, each locked once; the
//                                stats file counts the first three by
//                                reason
#include <errno.h>
#include <pthread.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

namespace {

int init_with(pthread_mutex_t* m, int robust, int protocol, int pshared) {
  pthread_mutexattr_t a;
  pthread_mutexattr_init(&a);
  pthread_mutexattr_setrobust(&a, robust);
  pthread_mutexattr_setprotocol(&a, protocol);
  pthread_mutexattr_setpshared(&a, pshared);
  const int rc = pthread_mutex_init(m, &a);
  pthread_mutexattr_destroy(&a);
  return rc;
}

struct Shared {
  pthread_mutex_t mu;
  long counter;
};

constexpr int kCountsPerProcess = 20000;

void count(Shared* s) {
  for (int i = 0; i < kCountsPerProcess; ++i) {
    pthread_mutex_lock(&s->mu);
    const long v = s->counter;
    if ((i & 63) == 0) sched_yield();  // widen the race an exclusion bug loses
    s->counter = v + 1;
    pthread_mutex_unlock(&s->mu);
  }
}

int run_pshared() {
  void* mem = mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return 1;
  Shared* s = static_cast<Shared*>(mem);
  if (init_with(&s->mu, PTHREAD_MUTEX_STALLED, PTHREAD_PRIO_NONE,
                PTHREAD_PROCESS_SHARED) != 0) {
    return 1;
  }
  if (pthread_mutex_lock(&s->mu) != 0) return 1;
  printf("pshared-owner=%s\n",
         s->mu.__data.__owner == gettid() ? "ok" : "NOT-GLIBC");
  if (pthread_mutex_unlock(&s->mu) != 0) return 1;

  // Another process takes the mutex and holds it until told to go.
  int held[2], go[2];
  if (pipe(held) != 0 || pipe(go) != 0) return 1;
  const pid_t holder = fork();
  if (holder == 0) {
    char c = 0;
    const int rc = pthread_mutex_lock(&s->mu);
    if (write(held[1], &c, 1) != 1 || read(go[0], &c, 1) != 1) _exit(2);
    _exit(rc != 0 ? 3 : pthread_mutex_unlock(&s->mu));
  }
  char c = 0;
  if (read(held[0], &c, 1) != 1) return 1;
  printf("pshared-other-process-held-trylock=%d\n",
         pthread_mutex_trylock(&s->mu));
  if (write(go[1], &c, 1) != 1) return 1;
  int status = 0;
  waitpid(holder, &status, 0);
  printf("pshared-holder-exit=%d\n",
         WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  const int rc = pthread_mutex_trylock(&s->mu);
  printf("pshared-released-trylock=%d\n", rc);
  if (rc == 0) pthread_mutex_unlock(&s->mu);

  const pid_t counter = fork();
  if (counter == 0) {
    count(s);
    _exit(0);
  }
  count(s);
  waitpid(counter, &status, 0);
  printf("pshared-count=%s\n",
         s->counter == 2L * kCountsPerProcess ? "ok" : "LOST-UPDATES");
  printf("pshared-destroy=%d\n", pthread_mutex_destroy(&s->mu));
  munmap(mem, sizeof(Shared));
  return 0;
}

pthread_mutex_t g_robust;
pthread_cond_t g_cond = PTHREAD_COND_INITIALIZER;

void* lock_and_exit(void*) {
  pthread_mutex_lock(&g_robust);
  return nullptr;  // exits holding it
}

void orphan() {
  pthread_t t;
  pthread_create(&t, nullptr, lock_and_exit, nullptr);
  pthread_join(t, nullptr);
}

int run_robust() {
  if (init_with(&g_robust, PTHREAD_MUTEX_ROBUST, PTHREAD_PRIO_NONE,
                PTHREAD_PROCESS_PRIVATE) != 0) {
    return 1;
  }
  orphan();
  printf("robust-dead-owner-trylock=%d\n", pthread_mutex_trylock(&g_robust));
  printf("robust-consistent=%d\n", pthread_mutex_consistent(&g_robust));
  printf("robust-unlock=%d\n", pthread_mutex_unlock(&g_robust));
  orphan();
  printf("robust-dead-owner-lock=%d\n", pthread_mutex_lock(&g_robust));
  pthread_mutex_consistent(&g_robust);
  // A cond wait releases and re-acquires glibc's mutex.
  timespec soon;
  clock_gettime(CLOCK_REALTIME, &soon);
  soon.tv_nsec += 1000000;
  if (soon.tv_nsec >= 1000000000L) {
    soon.tv_nsec -= 1000000000L;
    ++soon.tv_sec;
  }
  printf("robust-timedwait=%d\n",
         pthread_cond_timedwait(&g_cond, &g_robust, &soon));
  printf("robust-unlock-again=%d\n", pthread_mutex_unlock(&g_robust));
  printf("robust-destroy=%d\n", pthread_mutex_destroy(&g_robust));
  return 0;
}

int run_kinds() {
  pthread_mutex_t robust, pi, shared, plain;
  int rc = init_with(&robust, PTHREAD_MUTEX_ROBUST, PTHREAD_PRIO_NONE,
                     PTHREAD_PROCESS_PRIVATE) |
           init_with(&pi, PTHREAD_MUTEX_STALLED, PTHREAD_PRIO_INHERIT,
                     PTHREAD_PROCESS_PRIVATE) |
           init_with(&shared, PTHREAD_MUTEX_STALLED, PTHREAD_PRIO_NONE,
                     PTHREAD_PROCESS_SHARED) |
           pthread_mutex_init(&plain, nullptr);
  if (rc != 0) {
    fprintf(stderr, "mutex init failed\n");
    return 1;
  }
  pthread_mutex_t* all[] = {&robust, &pi, &shared, &plain};
  for (pthread_mutex_t* m : all) {
    rc |= pthread_mutex_lock(m) | pthread_mutex_unlock(m);
  }
  for (pthread_mutex_t* m : all) rc |= pthread_mutex_destroy(m);
  printf("kinds-exercised=%s\n", rc == 0 ? "ok" : "FAILED");
  return rc == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Unbuffered: a run that wedges still shows how far it got.
  setvbuf(stdout, nullptr, _IONBF, 0);
  if (argc > 1 && strcmp(argv[1], "pshared") == 0) return run_pshared();
  if (argc > 1 && strcmp(argv[1], "robust") == 0) return run_robust();
  return run_kinds();
}
