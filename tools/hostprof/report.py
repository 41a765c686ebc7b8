"""Symbolise and tabulate a tools/hostprof/sampler.c dump.

    report.py SAMPLES [ROOT_FRAME_SUBSTRING]

Keeps the samples whose stack holds a frame matching ROOT (default: the
benchmark's measured loop, `Prepared>::run`), cuts each stack at that
frame, and prints self, inclusive and caller tables. Symbols come from
`nm -C` on the profiled executable (the first file mapped; a PIE's load
bias is the start of its offset-0 mapping); frames anywhere else — libc
is stripped of all but its exports — read as `[object]`.
"""
import bisect, collections, os, re, subprocess, sys

samples, root = sys.argv[1], (sys.argv[2:] or ["Prepared>::run"])[0]
maps, stacks = [], []  # (start, end, bias, path); [pc, ...]
bias = {}
for line in open(samples):
    kind, _, rest = line.partition(" ")
    if kind == "S":
        stacks.append([int(pc, 16) for pc in rest.split()])
        continue
    span, _perms, offset, _dev, _inode, *path = rest.split()
    path = path[0] if path else ""
    start, end = (int(x, 16) for x in span.split("-"))
    if int(offset, 16) == 0:
        bias.setdefault(path, start)
    maps.append((start, end, bias.get(path, start), path))

exe = next(path for *_, path in maps if os.path.isfile(path))
symbols = []
for sym in subprocess.run(["nm", "-C", "--defined-only", exe], capture_output=True, text=True).stdout.splitlines():
    parts = sym.split(" ", 2)
    if len(parts) == 3 and parts[1] in "tTwW":
        symbols.append((int(parts[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", parts[2])))
symbols.sort()
addresses = [address for address, _ in symbols]


def name(pc):
    for start, end, base, path in maps:
        if start <= pc < end:
            at = bisect.bisect_right(addresses, pc - base) - 1
            if path == exe and at >= 0:
                return symbols[at][1]
            return "[%s]" % os.path.basename(path or "anon")
    return "[unmapped]"


self_, inclusive, callers = (collections.Counter() for _ in range(3))
kept = 0
for pcs in stacks:
    # A return address belongs to the call before it.
    frames = [name(pc - (i > 0)) for i, pc in enumerate(pcs)]
    cut = next((i for i, f in enumerate(frames) if root in f), None)
    if cut is None:
        continue
    frames, kept = frames[: cut + 1], kept + 1
    self_[frames[0]] += 1
    inclusive.update(set(frames))
    callers[(frames[0], frames[1] if len(frames) > 1 else "-")] += 1

print("%d samples, %d under a frame matching %r" % (len(stacks), kept, root))
for title, counts in (("self", self_), ("inclusive", inclusive)):
    print("\n%-9s %6s  symbol" % (title, "%"))
    for sym, n in counts.most_common(25):
        print("%9d %6.1f  %s" % (n, 100.0 * n / max(kept, 1), sym))
print("\ncallers of the ten largest self entries")
for sym, _ in self_.most_common(10):
    print("  " + sym)
    for (leaf, caller), n in callers.most_common():
        if leaf == sym and n * 50 >= self_[sym]:
            print("%9d %6.1f    <- %s" % (n, 100.0 * n / self_[sym], caller))
