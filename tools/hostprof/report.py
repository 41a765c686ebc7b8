"""Symbolise and tabulate a tools/hostprof/sampler.c dump.

    report.py SAMPLES [ROOT_FRAME_SUBSTRING] [--under SYMBOL_SUBSTRING] [--lines SYMBOL_SUBSTRING]

Keeps the samples whose stack holds a frame matching ROOT (default: the
benchmark's measured loop, `Prepared>::run`), cuts each stack at that
frame, and prints self, inclusive and caller tables. With `--under`, also
prints what the outermost frame matching SYMBOL was running — itself, or
which callee — and who called it, each as a share of the kept samples
(so `--under walk::translate` sizes the walk's parts against the whole
run, and `--under libc.so` names who calls into libc). With `--lines`,
also prints the source lines of the samples whose leaf frame matches
SYMBOL (`addr2line` on the executable's line tables; inlined code reads
as its own source line, not its caller's), as shares of the run. Symbols come from
`nm -C` on the profiled executable (the first file mapped; a PIE's load
bias is the start of its offset-0 mapping); frames anywhere else — libc
is stripped of all but its exports — read as `[object]`.
"""
import bisect, collections, os, re, signal, subprocess, sys

# A reader that closes the pipe early (`| head`) ends the report quietly.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)
args = sys.argv[1:]
if "-h" in args or "--help" in args:
    print(__doc__)
    sys.exit(0)
options = {"--under": None, "--lines": None}
for flag in options:
    if flag in args:
        at = args.index(flag)
        options[flag] = args[at + 1] if at + 1 < len(args) else ""
        del args[at : at + 2]
under, lines = options["--under"], options["--lines"]
if not args or "" in options.values():
    print(__doc__, file=sys.stderr)
    sys.exit(2)
samples, root = args[0], (args[1:] or ["Prepared>::run"])[0]
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


def file_offset(pc):
    """`pc` as an address in the executable's file, for addr2line."""
    return next(pc - base for start, end, base, _ in maps if start <= pc < end)


self_, inclusive, callers, callees, parents, leaf_pcs = (collections.Counter() for _ in range(6))
kept = 0
for pcs in stacks:
    # A return address belongs to the call before it.
    frames = [name(pc - (i > 0)) for i, pc in enumerate(pcs)]
    cut = next((i for i, f in enumerate(frames) if root in f), None)
    if cut is None:
        continue
    frames, kept = frames[: cut + 1], kept + 1
    self_[frames[0]] += 1
    if lines and lines in frames[0]:
        leaf_pcs[file_offset(pcs[0])] += 1
    inclusive.update(set(frames))
    callers[(frames[0], frames[1] if len(frames) > 1 else "-")] += 1
    # Outermost match: frames run leaf first.
    at = max((i for i, f in enumerate(frames) if under and under in f), default=None)
    if at is not None:
        callees[frames[at - 1] if at else "(self)"] += 1
        parents[frames[at + 1] if at + 1 < len(frames) else "-"] += 1

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
if under:
    total = sum(callees.values())
    print("\n%d samples (%.1f %% of the run) under a frame matching %r" % (total, 100.0 * total / max(kept, 1), under))
    for title, counts in (("running", callees), ("called by", parents)):
        print("\n%-9s %6s  %s, as a share of the run" % ("samples", "%", title))
        for sym, n in counts.most_common(25):
            print("%9d %6.1f  %s" % (n, 100.0 * n / max(kept, 1), sym))
if lines:
    repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))) + os.sep
    where = subprocess.run(
        ["addr2line", "-e", exe] + ["%x" % pc for pc in leaf_pcs], capture_output=True, text=True
    ).stdout.splitlines()
    by_line = collections.Counter()
    for line, n in zip(where, leaf_pcs.values()):
        by_line[line.removeprefix(repo)] += n
    total = sum(leaf_pcs.values())
    print("\n%d samples (%.1f %% of the run) with a leaf frame matching %r" % (total, 100.0 * total / max(kept, 1), lines))
    print("\n%-9s %6s  source line, as a share of the run" % ("samples", "%"))
    for line, n in by_line.most_common(25):
        print("%9d %6.1f  %s" % (n, 100.0 * n / max(kept, 1), line))
