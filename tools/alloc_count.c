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
 *   cc -O2 -shared -fPIC -o alloc_count.so tools/alloc_count.c
 *   LD_PRELOAD=$PWD/alloc_count.so ./pipeline_bench --workload fanout ...
 *
 * Per delivered row at steady state: run a short and a long pass, and
 * divide the difference in allocations by the difference in delivered
 * rows (ROADMAP.md has the exact recipe). A statically linked binary
 * ignores LD_PRELOAD; use the ordinary dynamic build.
 */
#define _GNU_SOURCE
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>

extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t n, size_t size);
extern void* __libc_realloc(void* p, size_t size);
extern void* __libc_memalign(size_t align, size_t size);
extern void __libc_free(void* p);

static atomic_ullong g_allocs;
static atomic_ullong g_bytes;

static void count(size_t bytes) {
  atomic_fetch_add_explicit(&g_allocs, 1, memory_order_relaxed);
  atomic_fetch_add_explicit(&g_bytes, bytes, memory_order_relaxed);
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

__attribute__((destructor)) static void report(void) {
  fprintf(stderr, "alloc_count: allocs=%llu bytes=%llu\n",
          (unsigned long long)atomic_load(&g_allocs),
          (unsigned long long)atomic_load(&g_bytes));
}
