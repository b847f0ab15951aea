/* Heap allocation counter: an LD_PRELOAD shim over glibc's allocator.
 *
 * Counts every malloc/calloc/realloc/aligned allocation a process makes
 * (C++ operator new lands in malloc) and the bytes requested, and prints
 * one line to stderr at exit:
 *
 *   alloc_count: allocs=<N> bytes=<B>
 *
 * Build and use (glibc only; the shim forwards to the __libc_* entry
 * points, so no dlsym bootstrap is needed):
 *
 *   cc -O2 -shared -fPIC -o alloc_count.so tools/alloc_count.c -ldl
 *   LD_PRELOAD=$PWD/alloc_count.so ./pipeline_bench --workload fanout ...
 *
 * Per delivered row at steady state: run a short and a long pass, and
 * divide the difference in allocations by the difference in delivered
 * rows (ROADMAP.md has the exact recipe). A statically linked binary
 * ignores LD_PRELOAD; use the ordinary dynamic build.
 *
 * ALLOC_COUNT_SITES=N also counts allocations per call stack (a "site")
 * and prints, after the totals, the top N sites by allocations, each frame
 * as module+offset like tools/heap_profile.c:
 *
 *   alloc_count: top 20 of 3112 sites by allocations:
 *   #1 483210 allocs 61850880 bytes
 *       /path/pipeline_bench+0x5f2a1
 *       ...
 *
 * tools/heap_report.py symbolizes such a report, and diffs two of them by
 * site group, e.g. a full pass against a set-up-only pass. Unwinding
 * every allocation is slow (a few microseconds each); without the
 * variable the shim only counts. The site table holds 2^18 stacks; the
 * excess is charged to one "(site table full)" entry.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <elf.h>
#include <execinfo.h>
#include <pthread.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t n, size_t size);
extern void* __libc_realloc(void* p, size_t size);
extern void* __libc_memalign(size_t align, size_t size);
extern void __libc_free(void* p);

enum {
  kMaxFrames = 16,     /* frames kept per site */
  kUnwindFrames = 24,  /* frames unwound, the shim's own included */
  kSiteBits = 18,      /* site table: 2^18 slots */
  kSiteFull = 0,       /* slot 0 collects stacks the table has no room for */
};

struct Site {
  uint64_t hash; /* 0 = empty slot */
  uint64_t allocs;
  uint64_t bytes;
  int depth;
  void* frames[kMaxFrames];
};

static atomic_ullong g_allocs;
static atomic_ullong g_bytes;

static int g_top;                /* ALLOC_COUNT_SITES; 0 = no site counts */
static int g_ready;
static struct Site* g_sites;     /* 2^kSiteBits, mmap'd */
static size_t g_site_count;
static pthread_mutex_t g_lock = PTHREAD_MUTEX_INITIALIZER;
static __thread int g_in_hook __attribute__((tls_model("initial-exec")));

static struct Site* site_of(void* const* frames, int depth) {
  uint64_t h = 1469598103934665603ULL;
  for (int i = 0; i < depth; ++i) {
    h = (h ^ (uint64_t)(uintptr_t)frames[i]) * 1099511628211ULL;
  }
  if (h == 0) h = 1;
  size_t mask = ((size_t)1 << kSiteBits) - 1;
  size_t i = (size_t)h & mask;
  for (size_t probes = 0; probes <= mask; ++probes, i = (i + 1) & mask) {
    if (i == kSiteFull) continue;
    struct Site* s = &g_sites[i];
    if (s->hash == 0) {
      s->hash = h;
      s->depth = depth;
      memcpy(s->frames, frames, (size_t)depth * sizeof(void*));
      ++g_site_count;
      return s;
    }
    if (s->hash == h && s->depth == depth &&
        memcmp(s->frames, frames, (size_t)depth * sizeof(void*)) == 0) {
      return s;
    }
    if (g_site_count * 4 >= mask * 3) break; /* keep probes short */
  }
  return &g_sites[kSiteFull];
}

/* Not inlined, and count() always is, so the first two frames are this
 * function and the allocation entry point that called it. */
__attribute__((noinline)) static void count_site(size_t bytes) {
  if (g_in_hook || !g_ready) return;
  g_in_hook = 1;
  void* raw[kUnwindFrames];
  int n = backtrace(raw, kUnwindFrames);
  int skip = n < 2 ? n : 2;
  int depth = n - skip < kMaxFrames ? n - skip : kMaxFrames;
  void* frames[kMaxFrames];
  for (int i = 0; i < depth; ++i) {
    /* Return addresses point past the call; minus one names its line. */
    frames[i] = (char*)raw[skip + i] - 1;
  }
  pthread_mutex_lock(&g_lock);
  struct Site* s = site_of(frames, depth);
  ++s->allocs;
  s->bytes += bytes;
  pthread_mutex_unlock(&g_lock);
  g_in_hook = 0;
}

static inline __attribute__((always_inline)) void count(size_t bytes) {
  atomic_fetch_add_explicit(&g_allocs, 1, memory_order_relaxed);
  atomic_fetch_add_explicit(&g_bytes, bytes, memory_order_relaxed);
  if (g_top > 0) count_site(bytes);
}

void* malloc(size_t size) {
  count(size);
  return __libc_malloc(size);
}

void* calloc(size_t n, size_t size) {
  count(n * size);
  return __libc_calloc(n, size);
}

void* realloc(void* p, size_t size) {
  count(size);
  return __libc_realloc(p, size);
}

void* memalign(size_t align, size_t size) {
  count(size);
  return __libc_memalign(align, size);
}

void* aligned_alloc(size_t align, size_t size) { return memalign(align, size); }

int posix_memalign(void** out, size_t align, size_t size) {
  void* p = memalign(align, size);
  if (p == NULL) return 12; /* ENOMEM */
  *out = p;
  return 0;
}

void free(void* p) { __libc_free(p); }

__attribute__((constructor)) static void init(void) {
  const char* env = getenv("ALLOC_COUNT_SITES");
  if (env == NULL || atoi(env) <= 0) return;
  size_t bytes = ((size_t)1 << kSiteBits) * sizeof(struct Site);
  void* p = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    fprintf(stderr, "alloc_count: out of memory for the site table; off\n");
    return;
  }
  g_sites = p;
  /* The first backtrace() loads the unwinder, which allocates. */
  void* warm[2];
  g_in_hook = 1;
  backtrace(warm, 2);
  g_in_hook = 0;
  g_top = atoi(env);
  g_ready = 1;
}

/* One frame as module+offset (absolute for a non-PIE executable, which is
 * what addr2line expects of each); the shim's own frames are left out. */
static void print_frame(void* pc, const char* self) {
  Dl_info info;
  if (dladdr(pc, &info) == 0 || info.dli_fname == NULL) {
    fprintf(stderr, "    %p\n", pc);
    return;
  }
  if (self != NULL && strcmp(info.dli_fname, self) == 0) return;
  const Elf64_Ehdr* ehdr = (const Elf64_Ehdr*)info.dli_fbase;
  uintptr_t off = (uintptr_t)pc;
  if (ehdr->e_type == ET_DYN) off -= (uintptr_t)info.dli_fbase;
  const char* module = info.dli_fname[0] != '\0' ? info.dli_fname : "(main)";
  fprintf(stderr, "    %s+0x%lx\n", module, (unsigned long)off);
}

__attribute__((destructor)) static void report(void) {
  fprintf(stderr, "alloc_count: allocs=%llu bytes=%llu\n",
          (unsigned long long)atomic_load(&g_allocs),
          (unsigned long long)atomic_load(&g_bytes));
  if (!g_ready) return;
  g_in_hook = 1;
  pthread_mutex_lock(&g_lock);
  Dl_info self_info;
  const char* self =
      dladdr((void*)&report, &self_info) ? self_info.dli_fname : NULL;
  fprintf(stderr, "alloc_count: top %d of %zu sites by allocations:\n", g_top,
          g_site_count);
  size_t n = (size_t)1 << kSiteBits;
  for (int rank = 1; rank <= g_top; ++rank) {
    size_t best = n;
    for (size_t i = 0; i < n; ++i) {
      if (g_sites[i].allocs == 0) continue;
      if (best == n || g_sites[i].allocs > g_sites[best].allocs) best = i;
    }
    if (best == n) break;
    fprintf(stderr, "#%d %llu allocs %llu bytes%s\n", rank,
            (unsigned long long)g_sites[best].allocs,
            (unsigned long long)g_sites[best].bytes,
            best == kSiteFull ? " (site table full)" : "");
    for (int f = 0; f < g_sites[best].depth; ++f) {
      print_frame(g_sites[best].frames[f], self);
    }
    g_sites[best].allocs = 0;
  }
  pthread_mutex_unlock(&g_lock);
}
