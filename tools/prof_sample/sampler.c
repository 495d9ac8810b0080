/* SIGPROF stack sampler, loaded with LD_PRELOAD by tools/prof_sample.
 *
 * On load it arms ITIMER_PROF (one sample per PERIOD_US microseconds of
 * process CPU time; the kernel rounds the period up to its tick). Each
 * SIGPROF walks the interrupted thread's frame-pointer chain (x86-64:
 * rip, then the return address above each saved rbp) into a
 * preallocated buffer; the handler takes no lock and calls no allocator.
 * At exit the samples and /proc/self/maps are written to
 * PROF_SAMPLE_OUT.<pid> (one file per process, since LD_PRELOAD reaches
 * child processes too), one line per sample: "s <pc> <ret> <ret> ..." in
 * hex, innermost first, then "m <maps line>".
 * Only frames compiled with -fno-omit-frame-pointer chain; the walk stops
 * at the first frame pointer that does not climb the stack. In code built
 * without frame pointers rbp is an ordinary register, so each frame is
 * read with process_vm_readv, which fails on an unmapped address instead
 * of faulting inside the handler.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
#define MAX_SAMPLES (1u << 16)
#define MAX_STACK_BYTES (64u << 20)
#define PERIOD_US 1000

static pid_t self;         /* this process, for process_vm_readv */

static uintptr_t *frames;  /* MAX_SAMPLES x MAX_DEPTH, 0-terminated */
static unsigned samples;   /* claimed slots (atomic) */
static unsigned dropped;   /* samples past MAX_SAMPLES (atomic) */

/* Copy the saved frame pointer and return address at `fp` into `frame`;
 * 0 when they cannot be read. */
static int read_frame(uintptr_t fp, uintptr_t frame[2]) {
  struct iovec local = {frame, 2 * sizeof *frame};
  struct iovec remote = {(void *)fp, 2 * sizeof *frame};
  return process_vm_readv(self, &local, 1, &remote, 1, 0) ==
         (ssize_t)(2 * sizeof *frame);
}

static void on_prof(int sig, siginfo_t *info, void *uctx) {
  (void)sig;
  (void)info;
#if defined(__x86_64__)
  const unsigned slot = __atomic_fetch_add(&samples, 1, __ATOMIC_RELAXED);
  if (slot >= MAX_SAMPLES) {
    __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
    return;
  }
  const int saved_errno = errno;  /* process_vm_readv may set it */
  const ucontext_t *uc = (const ucontext_t *)uctx;
  uintptr_t *out = frames + (size_t)slot * MAX_DEPTH;
  const uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  unsigned n = 0;
  out[n++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  while (n < MAX_DEPTH - 1 && fp >= sp && fp - sp < MAX_STACK_BYTES &&
         (fp & 7u) == 0) {
    uintptr_t frame[2];
    if (!read_frame(fp, frame)) break;
    const uintptr_t ret = frame[1];
    if (ret == 0) break;
    out[n++] = ret;
    if (frame[0] <= fp) break;  /* the chain must climb the stack */
    fp = frame[0];
  }
  out[n] = 0;
  errno = saved_errno;
#else
  (void)uctx;
#endif
}

static void put_hex(FILE *f, uintptr_t v) { fprintf(f, " %lx", (unsigned long)v); }

__attribute__((destructor)) static void sampler_stop(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char *prefix = getenv("PROF_SAMPLE_OUT");
  if (frames == NULL || prefix == NULL) return;
  char path[4096];
  snprintf(path, sizeof path, "%s.%ld", prefix, (long)getpid());
  FILE *f = fopen(path, "w");
  if (f == NULL) return;
  unsigned n = __atomic_load_n(&samples, __ATOMIC_RELAXED);
  if (n > MAX_SAMPLES) n = MAX_SAMPLES;
  fprintf(f, "dropped %u\n", __atomic_load_n(&dropped, __ATOMIC_RELAXED));
  for (unsigned i = 0; i < n; ++i) {
    const uintptr_t *s = frames + (size_t)i * MAX_DEPTH;
    fputc('s', f);
    for (unsigned d = 0; d < MAX_DEPTH && s[d] != 0; ++d) put_hex(f, s[d]);
    fputc('\n', f);
  }
  FILE *maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL) fprintf(f, "m %s", line);
    fclose(maps);
  }
  fclose(f);
}

__attribute__((constructor)) static void sampler_start(void) {
  if (getenv("PROF_SAMPLE_OUT") == NULL) return;
  frames = calloc((size_t)MAX_SAMPLES * MAX_DEPTH, sizeof *frames);
  if (frames == NULL) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  self = getpid();
  uintptr_t probe[2] = {0, 0};
  if (!read_frame((uintptr_t)probe, probe)) {
    perror("prof_sample: process_vm_readv");
    return;
  }
  const struct itimerval tv = {{0, PERIOD_US}, {0, PERIOD_US}};
  if (setitimer(ITIMER_PROF, &tv, NULL) != 0) perror("prof_sample: setitimer");
}
