/* LD_PRELOAD allocation tracker for tools/heapprof.sh. Every malloc,
 * calloc, realloc, aligned allocation and free goes through glibc's own
 * __libc_* entry points; on the way it keeps the whole heap's live bytes
 * (malloc_usable_size) and, for each block of 32 KiB or more, its size
 * and the backtrace() of the call that made it. Whenever the live bytes
 * of those big blocks reach a new high, the set is copied: at exit that
 * copy is the peak live set. At exit, /proc/self/maps and the peak go to
 * $SBHEAP_OUT, one per line: "M <maps line>", "P <peak big bytes>
 * <peak heap bytes>" and "A <size> <return pc> <return pc> ...". */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <malloc.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define BIG (32ul << 10)
#define DEPTH 32
#define SLOTS 4096 /* big blocks live at once; more are counted, not traced */

struct block {
    void *ptr;
    size_t size;
    int depth;
    void *pcs[DEPTH];
};

static struct block live[SLOTS], peak[SLOTS];
static int nlive, npeak;
static size_t live_big, peak_big, heap, peak_heap;
static atomic_flag lock = ATOMIC_FLAG_INIT;
static __thread int inside; /* backtrace() may allocate: those pass through */

static void take(void) {
    while (atomic_flag_test_and_set_explicit(&lock, memory_order_acquire))
        ;
}

static void give(void) { atomic_flag_clear_explicit(&lock, memory_order_release); }

static void *note(void *p, size_t size) {
    if (!p)
        return p;
    struct block b = {p, size, 0, {0}};
    if (size >= BIG && !inside) {
        inside = 1;
        b.depth = backtrace(b.pcs, DEPTH);
        inside = 0;
    }
    take();
    heap += malloc_usable_size(p);
    if (heap > peak_heap)
        peak_heap = heap;
    if (size >= BIG && b.depth && nlive < SLOTS) {
        live[nlive++] = b;
        live_big += size;
        if (live_big > peak_big) {
            peak_big = live_big;
            npeak = nlive;
            memcpy(peak, live, nlive * sizeof *live);
        }
    }
    give();
    return p;
}

static void forget(void *p) {
    if (!p)
        return;
    size_t usable = malloc_usable_size(p);
    take();
    heap -= usable;
    for (int i = 0; usable >= BIG && i < nlive; i++)
        if (live[i].ptr == p) {
            live_big -= live[i].size;
            live[i] = live[--nlive];
            break;
        }
    give();
}

void *malloc(size_t n) { return note(__libc_malloc(n), n); }

void *calloc(size_t k, size_t n) { return note(__libc_calloc(k, n), k * n); }

void *memalign(size_t align, size_t n) { return note(__libc_memalign(align, n), n); }

void *aligned_alloc(size_t align, size_t n) { return memalign(align, n); }

int posix_memalign(void **out, size_t align, size_t n) {
    void *p = memalign(align, n);
    if (!p)
        return ENOMEM;
    *out = p;
    return 0;
}

void free(void *p) {
    forget(p);
    __libc_free(p);
}

void *realloc(void *p, size_t n) {
    forget(p);
    return note(__libc_realloc(p, n), n);
}

__attribute__((constructor)) static void start(void) {
    void *pcs[2];
    inside = 1; /* the first backtrace() loads libgcc_s */
    backtrace(pcs, 2);
    inside = 0;
}

__attribute__((destructor)) static void finish(void) {
    const char *path = getenv("SBHEAP_OUT");
    FILE *out = path ? fopen(path, "w") : 0, *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (out && maps && fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    if (maps)
        fclose(maps);
    if (!out)
        return;
    /* No lock: printing may allocate, and the program is done by now. */
    fprintf(out, "P %zu %zu\n", peak_big, peak_heap);
    for (int i = 0; i < npeak; i++) {
        fprintf(out, "A %zu", peak[i].size);
        for (int f = 0; f < peak[i].depth; f++)
            fprintf(out, " %lx", (unsigned long)peak[i].pcs[f]);
        fputc('\n', out);
    }
    fclose(out);
}
