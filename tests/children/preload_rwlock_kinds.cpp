// The rwlock kinds and pshared flag an app stores in its locks, under
// the preload. The parent test reads the output and the preload's stats
// JSON (RESILOCK_PRELOAD_STATS_FILE).
//
//   preload_rwlock_kinds kinds    one lock of every kind mix below, each
//                                 read- and write-locked once; the stats
//                                 file then counts 4 reader-preference,
//                                 3 writer-preference and 1 pass-through
//                                 rwlock
//   preload_rwlock_kinds pshared  a PTHREAD_PROCESS_SHARED rwlock keeps
//                                 glibc's own state: a write hold shows
//                                 the holder's tid in __cur_writer, the
//                                 holder's own timed read is EDEADLK,
//                                 and another thread or a forked
//                                 process is refused a read
#include <pthread.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

namespace {

pthread_rwlock_t g_static_default = PTHREAD_RWLOCK_INITIALIZER;
pthread_rwlock_t g_static_writer =
    PTHREAD_RWLOCK_WRITER_NONRECURSIVE_INITIALIZER_NP;

int init_kind(pthread_rwlock_t* rw, int kind) {
  pthread_rwlockattr_t a;
  pthread_rwlockattr_init(&a);
  pthread_rwlockattr_setkind_np(&a, kind);
  const int rc = pthread_rwlock_init(rw, &a);
  pthread_rwlockattr_destroy(&a);
  return rc;
}

int init_pshared(pthread_rwlock_t* rw) {
  pthread_rwlockattr_t a;
  pthread_rwlockattr_init(&a);
  pthread_rwlockattr_setpshared(&a, PTHREAD_PROCESS_SHARED);
  const int rc = pthread_rwlock_init(rw, &a);
  pthread_rwlockattr_destroy(&a);
  return rc;
}

// One read pair and one write pair; nonzero on any failure.
int exercise(pthread_rwlock_t* rw) {
  return pthread_rwlock_rdlock(rw) | pthread_rwlock_unlock(rw) |
         pthread_rwlock_wrlock(rw) | pthread_rwlock_unlock(rw);
}

int run_kinds() {
  pthread_rwlock_t defaults[2], writer_np, nonrecursive[2], shared;
  int rc = 0;
  for (pthread_rwlock_t& rw : defaults) {
    rc |= pthread_rwlock_init(&rw, nullptr);
  }
  rc |= init_kind(&writer_np, PTHREAD_RWLOCK_PREFER_WRITER_NP);
  for (pthread_rwlock_t& rw : nonrecursive) {
    rc |= init_kind(&rw, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
  }
  rc |= init_pshared(&shared);
  if (rc != 0) {
    fprintf(stderr, "rwlock init failed\n");
    return 1;
  }
  pthread_rwlock_t* all[] = {&defaults[0],     &defaults[1],
                             &g_static_default, &writer_np,
                             &nonrecursive[0], &nonrecursive[1],
                             &g_static_writer,  &shared};
  for (pthread_rwlock_t* rw : all) rc |= exercise(rw);
  for (pthread_rwlock_t* rw : all) rc |= pthread_rwlock_destroy(rw);
  printf("kinds-exercised=%s\n", rc == 0 ? "ok" : "FAILED");
  return rc == 0 ? 0 : 1;
}

pthread_rwlock_t* g_shared = nullptr;

void* try_read(void*) {
  const int rc = pthread_rwlock_tryrdlock(g_shared);
  if (rc == 0) pthread_rwlock_unlock(g_shared);
  return reinterpret_cast<void*>(static_cast<long>(rc));
}

int tryrdlock_from_thread() {
  pthread_t t;
  void* rc = nullptr;
  pthread_create(&t, nullptr, try_read, nullptr);
  pthread_join(t, &rc);
  return static_cast<int>(reinterpret_cast<long>(rc));
}

int run_pshared() {
  // In a shared mapping, as a real cross-process lock would be.
  void* mem = mmap(nullptr, sizeof(pthread_rwlock_t), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return 1;
  g_shared = static_cast<pthread_rwlock_t*>(mem);
  if (init_pshared(g_shared) != 0) return 1;

  if (pthread_rwlock_wrlock(g_shared) != 0) return 1;
  printf("pshared-cur-writer=%s\n",
         g_shared->__data.__cur_writer == gettid() ? "ok" : "NOT-GLIBC");
  printf("pshared-thread-tryrdlock=%d\n", tryrdlock_from_thread());
  timespec soon;
  clock_gettime(CLOCK_MONOTONIC, &soon);
  soon.tv_nsec += 1000000;
  if (soon.tv_nsec >= 1000000000L) {
    soon.tv_nsec -= 1000000000L;
    ++soon.tv_sec;
  }
  // glibc's own answer to a read by the write holder: EDEADLK.
  printf("pshared-own-clockrdlock=%d\n",
         pthread_rwlock_clockrdlock(g_shared, CLOCK_MONOTONIC, &soon));
  fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) _exit(pthread_rwlock_tryrdlock(g_shared));
  int status = 0;
  waitpid(pid, &status, 0);
  printf("pshared-fork-tryrdlock=%d\n",
         WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  if (pthread_rwlock_unlock(g_shared) != 0) return 1;
  printf("pshared-released-tryrdlock=%d\n", tryrdlock_from_thread());
  printf("pshared-destroy=%d\n", pthread_rwlock_destroy(g_shared));
  munmap(mem, sizeof(pthread_rwlock_t));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && strcmp(argv[1], "pshared") == 0) return run_pshared();
  return run_kinds();
}
