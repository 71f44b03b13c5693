// A pthread program that repeats one lock order many times and then
// inverts it once: two threads each take A then B 10k times, and after
// they have joined, the main thread takes B then A. Under the preload,
// lockdep must record both orders (2 edges) and report the inversion
// once, while the 20k repeats of A->B hit its chain-key cache instead
// of walking the graph. The parent test reads the counters from the
// RESILOCK_METRICS_FILE the preload's collector writes at exit.
#include <pthread.h>
#include <stdio.h>

namespace {

constexpr int kThreads = 2;
constexpr long kPerThread = 10000;

pthread_mutex_t g_a;
pthread_mutex_t g_b;
long g_counter = 0;  // guarded by g_b

void* worker(void*) {
  for (long i = 0; i < kPerThread; ++i) {
    pthread_mutex_lock(&g_a);
    pthread_mutex_lock(&g_b);
    ++g_counter;
    pthread_mutex_unlock(&g_b);
    pthread_mutex_unlock(&g_a);
  }
  return nullptr;
}

}  // namespace

int main() {
  pthread_mutex_init(&g_a, nullptr);
  pthread_mutex_init(&g_b, nullptr);
  pthread_t tids[kThreads];
  for (int i = 0; i < kThreads; ++i) {
    if (pthread_create(&tids[i], nullptr, worker, nullptr) != 0) {
      fprintf(stderr, "pthread_create failed\n");
      return 2;
    }
  }
  for (int i = 0; i < kThreads; ++i) pthread_join(tids[i], nullptr);
  // The inversion, taken once by one thread: nothing can wedge here,
  // but lockdep flags the order on its first occurrence.
  pthread_mutex_lock(&g_b);
  pthread_mutex_lock(&g_a);
  pthread_mutex_unlock(&g_a);
  pthread_mutex_unlock(&g_b);
  printf("counter=%ld expected=%ld\n", g_counter, kThreads * kPerThread);
  pthread_mutex_destroy(&g_b);
  pthread_mutex_destroy(&g_a);
  return g_counter == kThreads * kPerThread ? 0 : 1;
}
