/* A heap-allocation counter loaded with LD_PRELOAD.
 *
 *   cc -O2 -shared -fPIC -o alloccount.so tools/alloccount/alloccount.c
 *   ALLOCCOUNT_OUT=allocs.txt LD_PRELOAD=./alloccount.so ./program ...
 *
 * It wraps malloc, calloc, realloc, memalign, aligned_alloc and
 * posix_memalign (operator new reaches malloc through libstdc++) and counts
 * every call that returns a block and the bytes it asked for. Every
 * ALLOCCOUNT_EVERY-th allocation (default 1: all of them) also records its
 * call stack into a table of distinct stacks with a count and a byte sum
 * each, so a run that allocates millions of times keeps a few thousand
 * stacks, not millions. At exit it writes ALLOCCOUNT_OUT (default
 * alloccount.out) in tools/common/stack_dump.h's format: a "# total"
 * header, then one line per distinct stack, its count and its bytes first.
 * scripts/alloc_e2e.sh symbolizes and summarizes that file.
 *
 * The table and its frame arena are mapped up front, so recording never
 * allocates. The constructor warms the unwinder, and a per-thread flag
 * lets any allocation made while a stack is being recorded through
 * uncounted.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <string.h>

#include "../common/stack_dump.h"

extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t n, size_t size);
extern void* __libc_realloc(void* p, size_t size);
extern void* __libc_memalign(size_t alignment, size_t size);

enum {
  kMaxDepth = 64,
  kSlots = 1 << 16,        /* distinct stacks; a power of two */
  kArenaWords = 1 << 22,   /* frames of all distinct stacks */
};

struct Slot {
  uint64_t hash;
  uint64_t count;
  uint64_t bytes;  /* requested by the recorded allocations */
  uint32_t offset; /* into g_arena */
  uint32_t depth;  /* 0: empty slot */
};

static struct Slot* g_slots;
static uintptr_t* g_arena;
static size_t g_arena_used;
static uint64_t g_total;    /* every allocation */
static uint64_t g_total_bytes;  /* requested by every allocation */
static uint64_t g_sampled;  /* allocations whose stack was looked at */
static uint64_t g_dropped;  /* sampled stacks that did not fit */
static uint64_t g_every = 1;
static uint64_t g_countdown = 1;
static volatile int g_ready;
static int g_lock;
static __thread int t_in_hook;

static void Lock(void) {
  while (__atomic_test_and_set(&g_lock, __ATOMIC_ACQUIRE)) {
  }
}
static void Unlock(void) { __atomic_clear(&g_lock, __ATOMIC_RELEASE); }

static uint64_t Hash(void* const* frames, int n) {
  uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < n; ++i) {
    h ^= (uint64_t)(uintptr_t)frames[i];
    h *= 1099511628211ull;
  }
  return h | 1; /* never 0, so an empty slot reads as hash 0 */
}

/* Frames 0 and 1 are this function and the wrapper that called it. */
__attribute__((noinline)) static void Record(size_t size) {
  void* frames[kMaxDepth + 2];
  const int n = backtrace(frames, kMaxDepth + 2) - 2;
  if (n <= 0) return;
  void* const* stack = frames + 2;
  const uint64_t h = Hash(stack, n);
  for (uint64_t probe = 0; probe < kSlots; ++probe) {
    struct Slot* s = &g_slots[(h + probe) & (kSlots - 1)];
    if (s->depth == 0) {
      if (g_arena_used + (size_t)n > kArenaWords) break;
      s->hash = h;
      s->count = 1;
      s->bytes = size;
      s->offset = (uint32_t)g_arena_used;
      s->depth = (uint32_t)n;
      for (int i = 0; i < n; ++i) g_arena[g_arena_used++] = (uintptr_t)stack[i];
      return;
    }
    if (s->hash == h && s->depth == (uint32_t)n &&
        memcmp(g_arena + s->offset, stack, sizeof(uintptr_t) * n) == 0) {
      ++s->count;
      s->bytes += size;
      return;
    }
  }
  ++g_dropped;
}

static void* Counted(void* p, size_t size) {
  if (p == NULL || !g_ready || t_in_hook) return p;
  t_in_hook = 1;
  Lock();
  ++g_total;
  g_total_bytes += size;
  if (--g_countdown == 0) {
    g_countdown = g_every;
    ++g_sampled;
    Record(size);
  }
  Unlock();
  t_in_hook = 0;
  return p;
}

void* malloc(size_t size) { return Counted(__libc_malloc(size), size); }
void* calloc(size_t n, size_t size) {
  return Counted(__libc_calloc(n, size), n * size);
}
/* realloc to a new size counts as an allocation (it may move the block);
 * realloc(p, 0) frees and is not counted. */
void* realloc(void* p, size_t size) {
  void* q = __libc_realloc(p, size);
  return size == 0 ? q : Counted(q, size);
}
void* memalign(size_t alignment, size_t size) {
  return Counted(__libc_memalign(alignment, size), size);
}
void* aligned_alloc(size_t alignment, size_t size) {
  return Counted(__libc_memalign(alignment, size), size);
}
int posix_memalign(void** out, size_t alignment, size_t size) {
  if (alignment % sizeof(void*) != 0 ||
      (alignment & (alignment - 1)) != 0) {
    return EINVAL;
  }
  void* p = Counted(__libc_memalign(alignment, size), size);
  if (p == NULL) return ENOMEM;
  *out = p;
  return 0;
}

static void Dump(void) {
  Lock();
  g_ready = 0;
  Unlock();
  FILE* out = StackDumpOpen("ALLOCCOUNT_OUT", "alloccount.out");
  if (out == NULL) return;
  fprintf(out,
          "# total=%llu bytes=%llu sampled=%llu every=%llu dropped=%llu\n",
          (unsigned long long)g_total, (unsigned long long)g_total_bytes,
          (unsigned long long)g_sampled, (unsigned long long)g_every,
          (unsigned long long)g_dropped);
  for (size_t i = 0; i < kSlots; ++i) {
    const struct Slot* s = &g_slots[i];
    if (s->depth == 0) continue;
    fprintf(out, "%llu %llu", (unsigned long long)s->count,
            (unsigned long long)s->bytes);
    StackDumpFrames(out, g_arena + s->offset, s->depth);
  }
  fclose(out);
}

__attribute__((constructor)) static void Start(void) {
  t_in_hook = 1;
  StackDumpWarmUnwinder();
  g_slots = StackDumpMap(sizeof(struct Slot) * kSlots,
                         "alloccount: map stack table");
  g_arena = StackDumpMap(sizeof(uintptr_t) * kArenaWords,
                         "alloccount: map frame arena");
  if (g_slots == NULL || g_arena == NULL) {
    t_in_hook = 0;
    return;
  }
  const char* every = getenv("ALLOCCOUNT_EVERY");
  if (every != NULL && strtoull(every, NULL, 10) > 0) {
    g_every = strtoull(every, NULL, 10);
  }
  g_countdown = g_every;
  atexit(Dump);
  t_in_hook = 0;
  g_ready = 1;
}
