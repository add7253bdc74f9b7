/* A SIGPROF stack sampler loaded with LD_PRELOAD.
 *
 *   cc -O2 -shared -fPIC -o sampler.so tools/sigprof/sampler.c
 *   SIGPROF_OUT=prof.txt LD_PRELOAD=./sampler.so ./program ...
 *
 * On load it arms ITIMER_PROF (SIGPROF_HZ samples per CPU second, default
 * 1000). Each SIGPROF writes the interrupted PC and the stack above the
 * signal frame into a buffer mapped up front, so the handler neither
 * allocates nor locks. Each sample also records the process's RSS
 * high-water mark so far (getrusage's ru_maxrss, in KiB), so the
 * report can say in which window the peak was set. At exit it writes
 * SIGPROF_OUT (default sigprof.out) in tools/common/stack_dump.h's format:
 * a "# samples" header, then one line per sample: the high-water mark in
 * decimal, then the interrupted PC and the stack.
 * scripts/profile_e2e.sh symbolizes and summarizes that file.
 *
 * glibc's backtrace() is not on the async-signal-safe list: its first
 * call loads the unwinder, which allocates. The constructor makes that
 * first call, so the handler only ever walks unwind tables.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

#include "../common/stack_dump.h"

#if defined(__x86_64__)
static uintptr_t InterruptedPc(const ucontext_t* uc) {
  return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
}
#elif defined(__aarch64__)
static uintptr_t InterruptedPc(const ucontext_t* uc) {
  return (uintptr_t)uc->uc_mcontext.pc;
}
#else
#error "sampler.c reads the interrupted PC on x86-64 and AArch64 only"
#endif

enum { kMaxDepth = 64, kBufferWords = 1 << 21 };

/* [depth, max_rss_kib, pc, frames...] per sample; depth counts pc and
 * frames. */
static uintptr_t* g_buf;
static volatile size_t g_used;    /* words written */
static volatile size_t g_dropped; /* samples that did not fit */

static void OnProf(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  void* frames[kMaxDepth + 4];
  const int n = backtrace(frames, kMaxDepth + 4);
  const uintptr_t pc = InterruptedPc((const ucontext_t*)context);
  /* frames[0] is this handler and frames[1] the sigreturn trampoline; the
   * interrupted PC follows. Start after it when found, else after the
   * trampoline. */
  int first = n < 2 ? n : 2;
  for (int i = 0; i < n && i < 4; ++i) {
    if ((uintptr_t)frames[i] == pc) {
      first = i + 1;
      break;
    }
  }
  int depth = n - first;
  if (depth > kMaxDepth - 1) depth = kMaxDepth - 1;
  const size_t need = (size_t)depth + 3;
  if (g_buf == NULL || g_used + need > kBufferWords) {
    ++g_dropped;
    return;
  }
  /* getrusage is a plain system call: it neither allocates nor locks. */
  struct rusage usage;
  memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  uintptr_t* out = g_buf + g_used;
  out[0] = (uintptr_t)depth + 1;
  out[1] = (uintptr_t)usage.ru_maxrss;
  out[2] = pc;
  for (int i = 0; i < depth; ++i) out[3 + i] = (uintptr_t)frames[first + i];
  g_used += need;
}

static void Dump(void) {
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);

  FILE* out = StackDumpOpen("SIGPROF_OUT", "sigprof.out");
  if (out == NULL) return;
  fprintf(out, "# samples dropped=%zu\n", (size_t)g_dropped);
  for (size_t at = 0; at < g_used;) {
    const size_t depth = g_buf[at];
    fprintf(out, "%lu", (unsigned long)g_buf[at + 1]);
    StackDumpFrames(out, g_buf + at + 2, depth);
    at += depth + 2;
  }
  fclose(out);
}

__attribute__((constructor)) static void Start(void) {
  StackDumpWarmUnwinder();
  g_buf = StackDumpMap(sizeof(uintptr_t) * kBufferWords,
                       "sigprof: map sample buffer");
  if (g_buf == NULL) return;

  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  atexit(Dump);

  const char* hz_env = getenv("SIGPROF_HZ");
  long hz = hz_env != NULL ? strtol(hz_env, NULL, 10) : 1000;
  if (hz <= 0 || hz > 100000) hz = 1000;
  struct itimerval tv;
  tv.it_interval.tv_sec = 0;
  tv.it_interval.tv_usec = 1000000 / hz;
  tv.it_value = tv.it_interval;
  setitimer(ITIMER_PROF, &tv, NULL);
}
