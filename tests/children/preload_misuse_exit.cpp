// Misuse-then-exit guinea pig: a shim-unaware pthread program that
// idles long enough for the telemetry collector to back off to its
// longest sleep, then does 50 double unlocks and returns from main at
// once, so the events are still queued when exit() begins. Compiled at
// test time by test_preload.cpp and run under
// LD_PRELOAD=libresilock_preload.so with a trace or metrics file: the
// exit path must write each file once, in the format asked for.
#include <errno.h>
#include <pthread.h>
#include <stdio.h>
#include <unistd.h>

int main() {
  pthread_mutex_t mu;
  pthread_mutex_init(&mu, nullptr);
  usleep(20000);
  int eperm = 0;
  for (int i = 0; i < 50; ++i) {
    pthread_mutex_lock(&mu);
    pthread_mutex_unlock(&mu);
    eperm += pthread_mutex_unlock(&mu) == EPERM;
  }
  printf("double-unlock-eperm=%d\n", eperm);
  return 0;
}
