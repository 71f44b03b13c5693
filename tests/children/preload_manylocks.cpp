// Footprint probe for apps with one lock per object (hash buckets,
// rows, connections): initialise many locks, lock and unlock each once,
// destroy them all, and print the peak resident set. The parent test
// bounds it, so a per-lock cost of kilobytes (a per-thread table in
// every lock) shows up as hundreds of megabytes.
//
//   preload_manylocks mutex   100k pthread_mutex_t, one lock pair each
//   preload_manylocks rwlock  20k pthread_rwlock_t, one write pair each
#include <pthread.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>

namespace {

template <typename Lock, typename Init, typename Pair, typename Destroy>
int run(long n, Init init, Pair pair, Destroy destroy) {
  Lock* locks = static_cast<Lock*>(calloc(n, sizeof(Lock)));
  if (locks == nullptr) return 1;
  for (long i = 0; i < n; ++i) {
    if (init(&locks[i]) != 0) return 1;
  }
  for (long i = 0; i < n; ++i) {
    if (pair(&locks[i]) != 0) return 1;
  }
  for (long i = 0; i < n; ++i) {
    if (destroy(&locks[i]) != 0) return 1;
  }
  free(locks);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool rw = argc > 1 && strcmp(argv[1], "rwlock") == 0;
  int rc;
  if (rw) {
    rc = run<pthread_rwlock_t>(
        20000,
        [](pthread_rwlock_t* l) { return pthread_rwlock_init(l, nullptr); },
        [](pthread_rwlock_t* l) {
          return pthread_rwlock_wrlock(l) | pthread_rwlock_unlock(l);
        },
        [](pthread_rwlock_t* l) { return pthread_rwlock_destroy(l); });
  } else {
    rc = run<pthread_mutex_t>(
        100000,
        [](pthread_mutex_t* l) { return pthread_mutex_init(l, nullptr); },
        [](pthread_mutex_t* l) {
          return pthread_mutex_lock(l) | pthread_mutex_unlock(l);
        },
        [](pthread_mutex_t* l) { return pthread_mutex_destroy(l); });
  }
  if (rc != 0) {
    printf("manylocks-failed\n");
    return 1;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  printf("%s-maxrss-kb=%ld\n", rw ? "rwlock" : "mutex", ru.ru_maxrss);
  return 0;
}
