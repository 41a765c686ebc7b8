/* LD_PRELOAD sampler for tools/hostprof.sh: every 200 us of wall time
 * (ITIMER_REAL; ITIMER_PROF ticks at 4 ms on the hosts this was written
 * on) SIGALRM records the interrupted rip and the rbp chain above it. At
 * exit, /proc/self/maps and the samples go to $SBPROF_OUT, one per line:
 * "M <maps line>" and "S <leaf pc> <caller pc> ...". The profiled binary
 * must be built with frame pointers; frames of code without them (libc)
 * are cut short by the bounds check, never followed out of the stack. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>

#define DEPTH 64
#define WORDS (1ul << 24)     /* 128 MiB of address space, touched as filled */
#define STACK_MAX (8ul << 20) /* the main thread's stack is searched no deeper */

static uint64_t *buf, used, stack_top;

static void on_alarm(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uint64_t sp = r[REG_RSP], fp = r[REG_RBP];
    if (!buf || used + DEPTH + 1 > WORDS || sp >= stack_top || sp < stack_top - STACK_MAX)
        return; /* full, or not on the main thread's stack */
    uint64_t *n = &buf[used++];
    buf[used++] = r[REG_RIP];
    for (*n = 1; *n < DEPTH && fp > sp && fp + 16 <= stack_top && fp % 8 == 0; ++*n) {
        buf[used++] = ((uint64_t *)fp)[1];
        sp = fp;
        fp = ((uint64_t *)fp)[0];
    }
}

__attribute__((constructor)) static void start(void) {
    char line[512];
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]"))
            sscanf(line, "%*x-%lx", &stack_top);
    if (maps)
        fclose(maps);
    buf = mmap(0, WORDS * 8, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED || !stack_top || !getenv("SBPROF_OUT")) {
        buf = 0;
        return;
    }
    struct sigaction sa = {.sa_sigaction = on_alarm, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGALRM, &sa, 0);
    struct itimerval every = {{0, 200}, {0, 200}};
    setitimer(ITIMER_REAL, &every, 0);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_REAL, &off, 0);
    FILE *out = buf ? fopen(getenv("SBPROF_OUT"), "w") : 0, *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (out && maps && fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    for (uint64_t i = 0; out && i < used; i += buf[i] + 1) {
        fputc('S', out);
        for (uint64_t f = 1; f <= buf[i]; f++)
            fprintf(out, " %lx", buf[i + f]);
        fputc('\n', out);
    }
    if (out)
        fclose(out);
}
