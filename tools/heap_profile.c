/* Heap profiler: an LD_PRELOAD shim that attributes live heap bytes to the
 * call stacks that allocated them.
 *
 * A sibling of tools/alloc_count.c, which counts allocations; this one
 * answers "who holds the memory". Every malloc/calloc/realloc/aligned
 * allocation records its call stack and usable size; free forgets it. The
 * shim keeps the live bytes per distinct stack (a "site") and, as the
 * process's live total climbs, snapshots them each time it exceeds the
 * previous snapshot by 1% (and 64 KiB), so the last snapshot sits within
 * about 1% of the peak. At exit it prints, to stderr, the top sites of that
 * snapshot by live bytes, each frame as module+offset:
 *
 *   heap_profile: peak 183.41 MB live in 2950112 blocks; snapshot at
 *     181.67 MB after 3932160 of 4170711 allocations; top 20 of 14203
 *     sites:
 *   #1 32.92 MB in 171480 blocks
 *       /path/pipeline_bench+0x5f2a1
 *       ...
 *
 * Resolve a frame with `addr2line -Cfipe MODULE OFFSET` (offsets are
 * return addresses minus one, so they name the calling line; build the
 * profiled program with -g for file:line). Build and use (glibc only; the
 * shim forwards to the __libc_* entry points, so no dlsym bootstrap):
 *
 *   cc -O2 -shared -fPIC -o heap_profile.so tools/heap_profile.c -ldl
 *   LD_PRELOAD=$PWD/heap_profile.so ./pipeline_bench --workload fanout ...
 *
 * HEAP_PROFILE_TOP sets how many sites print (default 20).
 *
 * HEAP_PROFILE_AT=exit reports the heap at the end of the program's work
 * instead of at its peak. The shim then snapshots every 1024 allocations
 * and reports the last of those snapshots (or the heap at exit when there
 * was none); the header says "exit snapshot" and after how many of the
 * process's allocations it was taken. A program that tears its state down
 * before it exits (C++ destructors at the end of main) allocates little
 * while doing so, so the last snapshot shows what it held when it
 * finished its work, teardown not begun; the allocation counts in the
 * header show how close to the end that was.
 *
 * Unwinding every allocation is slow (a few microseconds each), so
 * profile short passes.
 * Allocations the shim's own unwinder makes are not tracked, and neither
 * are blocks whose site table slot could not be found (the table holds
 * 2^18 sites; the excess is charged to one "(site table full)" entry). A
 * statically linked binary ignores LD_PRELOAD; use the ordinary dynamic
 * build.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <elf.h>
#include <execinfo.h>
#include <malloc.h>
#include <pthread.h>
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
  kMaxFrames = 16,      /* frames kept per site */
  kUnwindFrames = 24,   /* frames unwound, the shim's own included */
  kSiteBits = 18,       /* site table: 2^18 slots */
  kSiteFull = 0,        /* slot 0 collects stacks the table has no room for */
  kExitEvery = 1024,    /* allocations between snapshots at HEAP_PROFILE_AT=exit */
};

struct Site {
  uint64_t hash;  /* 0 = empty slot */
  int depth;
  void* frames[kMaxFrames];
};

/* Live block: its address, usable size and site; address 0 = empty. */
struct Block {
  uintptr_t addr;
  size_t size;
  uint32_t site;
};

static pthread_mutex_t g_lock = PTHREAD_MUTEX_INITIALIZER;
static __thread int g_in_hook __attribute__((tls_model("initial-exec")));
static int g_ready;

static struct Site* g_sites;       /* 2^kSiteBits */
static uint64_t* g_site_bytes;     /* live bytes per site, now */
static uint64_t* g_site_blocks;    /* live blocks per site, now */
static uint64_t* g_snap_bytes;     /* ... at the last snapshot */
static uint64_t* g_snap_blocks;
static size_t g_site_count;

static struct Block* g_blocks;     /* open addressing, linear probing */
static size_t g_block_cap;         /* power of two */
static size_t g_block_count;

static uint64_t g_live, g_live_blocks, g_peak, g_peak_blocks, g_snap_live;
static int g_at_exit;            /* HEAP_PROFILE_AT=exit */
static uint64_t g_tracked;       /* allocations tracked so far */
static int g_snapped;            /* a snapshot has been taken */
static uint64_t g_snap_at;       /* ... after this many allocations */

static void* map_zeroed(size_t bytes) {
  void* p = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? NULL : p;
}

static size_t block_slot(uintptr_t addr, size_t cap) {
  uint64_t h = (uint64_t)addr;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return (size_t)h & (cap - 1);
}

static void block_put(struct Block* table, size_t cap, struct Block b) {
  size_t i = block_slot(b.addr, cap);
  while (table[i].addr != 0) i = (i + 1) & (cap - 1);
  table[i] = b;
}

/* Double the block table once it is half full. */
static int blocks_grow(void) {
  size_t cap = g_block_cap ? g_block_cap * 2 : (size_t)1 << 20;
  struct Block* table = map_zeroed(cap * sizeof(struct Block));
  if (table == NULL) return 0;
  for (size_t i = 0; i < g_block_cap; ++i) {
    if (g_blocks[i].addr != 0) block_put(table, cap, g_blocks[i]);
  }
  if (g_blocks != NULL) munmap(g_blocks, g_block_cap * sizeof(struct Block));
  g_blocks = table;
  g_block_cap = cap;
  return 1;
}

/* Remove `addr`, returning its record (addr 0 when untracked). Backward
 * shift deletion keeps every probe chain intact without tombstones. */
static struct Block block_take(uintptr_t addr) {
  struct Block none = {0, 0, 0};
  if (g_block_cap == 0) return none;
  size_t mask = g_block_cap - 1;
  size_t i = block_slot(addr, g_block_cap);
  while (g_blocks[i].addr != addr) {
    if (g_blocks[i].addr == 0) return none;
    i = (i + 1) & mask;
  }
  struct Block found = g_blocks[i];
  size_t hole = i;
  for (size_t j = (i + 1) & mask; g_blocks[j].addr != 0; j = (j + 1) & mask) {
    size_t home = block_slot(g_blocks[j].addr, g_block_cap);
    /* Move j back into the hole unless its home lies cyclically in
     * (hole, j]. */
    int stays = hole <= j ? (home > hole && home <= j)
                          : (home > hole || home <= j);
    if (!stays) {
      g_blocks[hole] = g_blocks[j];
      hole = j;
    }
  }
  g_blocks[hole].addr = 0;
  --g_block_count;
  return found;
}

static uint32_t site_of(void* const* frames, int depth) {
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
      return (uint32_t)i;
    }
    if (s->hash == h && s->depth == depth &&
        memcmp(s->frames, frames, (size_t)depth * sizeof(void*)) == 0) {
      return (uint32_t)i;
    }
    if (g_site_count * 4 >= mask * 3) break; /* keep probes short */
  }
  return kSiteFull;
}

static void snapshot(void) {
  size_t n = (size_t)1 << kSiteBits;
  memcpy(g_snap_bytes, g_site_bytes, n * sizeof(uint64_t));
  memcpy(g_snap_blocks, g_site_blocks, n * sizeof(uint64_t));
  g_snap_live = g_live;
  g_snapped = 1;
  g_snap_at = g_tracked;
}

/* Not inlined, so the first two frames are always this function and the
 * allocation entry point that called it. */
__attribute__((noinline)) static void track(void* p) {
  if (p == NULL || g_in_hook || !g_ready) return;
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
  size_t size = malloc_usable_size(p);
  pthread_mutex_lock(&g_lock);
  if ((g_block_count + 1) * 2 <= g_block_cap || blocks_grow()) {
    uint32_t site = site_of(frames, depth);
    struct Block b = {(uintptr_t)p, size, site};
    block_put(g_blocks, g_block_cap, b);
    ++g_block_count;
    g_site_bytes[site] += size;
    ++g_site_blocks[site];
    g_live += size;
    ++g_live_blocks;
    if (g_live > g_peak) {
      g_peak = g_live;
      g_peak_blocks = g_live_blocks;
    }
    ++g_tracked;
    if (g_at_exit ? g_tracked % kExitEvery == 0
                  : g_live > g_snap_live + g_snap_live / 100 + 65536) {
      snapshot();
    }
  }
  pthread_mutex_unlock(&g_lock);
  g_in_hook = 0;
}

/* A free from inside the hook (the unwinder's, or the report's while it
 * holds the lock) is of a block the hook never tracked. */
static void untrack(void* p) {
  if (p == NULL || g_in_hook || !g_ready) return;
  pthread_mutex_lock(&g_lock);
  struct Block b = block_take((uintptr_t)p);
  if (b.addr != 0) {
    g_site_bytes[b.site] -= b.size;
    --g_site_blocks[b.site];
    g_live -= b.size;
    --g_live_blocks;
  }
  pthread_mutex_unlock(&g_lock);
}

void* malloc(size_t size) {
  void* p = __libc_malloc(size);
  track(p);
  return p;
}

void* calloc(size_t n, size_t size) {
  void* p = __libc_calloc(n, size);
  track(p);
  return p;
}

void* realloc(void* old, size_t size) {
  void* p = __libc_realloc(old, size);
  if (p != NULL || size == 0) untrack(old);
  track(p);
  return p;
}

void* memalign(size_t align, size_t size) {
  void* p = __libc_memalign(align, size);
  track(p);
  return p;
}

void* aligned_alloc(size_t align, size_t size) { return memalign(align, size); }

int posix_memalign(void** out, size_t align, size_t size) {
  void* p = memalign(align, size);
  if (p == NULL) return 12; /* ENOMEM */
  *out = p;
  return 0;
}

void free(void* p) {
  untrack(p);
  __libc_free(p);
}

__attribute__((constructor)) static void init(void) {
  size_t n = (size_t)1 << kSiteBits;
  g_sites = map_zeroed(n * sizeof(struct Site));
  g_site_bytes = map_zeroed(n * sizeof(uint64_t));
  g_site_blocks = map_zeroed(n * sizeof(uint64_t));
  g_snap_bytes = map_zeroed(n * sizeof(uint64_t));
  g_snap_blocks = map_zeroed(n * sizeof(uint64_t));
  if (g_sites == NULL || g_site_bytes == NULL || g_site_blocks == NULL ||
      g_snap_bytes == NULL || g_snap_blocks == NULL || !blocks_grow()) {
    fprintf(stderr, "heap_profile: out of memory for the tables; off\n");
    return;
  }
  const char* at = getenv("HEAP_PROFILE_AT");
  g_at_exit = at != NULL && strcmp(at, "exit") == 0;
  /* The first backtrace() loads the unwinder, which allocates. */
  void* warm[2];
  g_in_hook = 1;
  backtrace(warm, 2);
  g_in_hook = 0;
  g_ready = 1;
}

/* One frame as module+offset (absolute for a non-PIE executable, which is
 * what addr2line expects of each). */
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
  if (!g_ready) return;
  g_in_hook = 1;
  pthread_mutex_lock(&g_lock);
  int top = 20;
  const char* env = getenv("HEAP_PROFILE_TOP");
  if (env != NULL && atoi(env) > 0) top = atoi(env);
  Dl_info self_info;
  const char* self =
      dladdr((void*)&report, &self_info) ? self_info.dli_fname : NULL;
  if (g_at_exit && !g_snapped) snapshot();
  fprintf(stderr,
          "heap_profile: peak %.2f MB live in %llu blocks; %s %.2f MB "
          "after %llu of %llu allocations; top %d of %zu sites:\n",
          (double)g_peak / 1e6, (unsigned long long)g_peak_blocks,
          g_at_exit ? "exit snapshot" : "snapshot at",
          (double)g_snap_live / 1e6, (unsigned long long)g_snap_at,
          (unsigned long long)g_tracked, top, g_site_count);
  size_t n = (size_t)1 << kSiteBits;
  for (int rank = 1; rank <= top; ++rank) {
    size_t best = n;
    for (size_t i = 0; i < n; ++i) {
      if (g_snap_bytes[i] == 0) continue;
      if (best == n || g_snap_bytes[i] > g_snap_bytes[best]) best = i;
    }
    if (best == n) break;
    fprintf(stderr, "#%d %.2f MB in %llu blocks%s\n", rank,
            (double)g_snap_bytes[best] / 1e6,
            (unsigned long long)g_snap_blocks[best],
            best == kSiteFull ? " (site table full)" : "");
    for (int f = 0; f < g_sites[best].depth; ++f) {
      print_frame(g_sites[best].frames[f], self);
    }
    g_snap_bytes[best] = 0;
  }
  pthread_mutex_unlock(&g_lock);
}
