"""Symbolise and tabulate a tools/heapprof/shim.c dump.

    report.py DUMP [--frames N]

Prints the peak live set of heap blocks of 32 KiB or more, grouped by
call site: the innermost frame of each block's stack that is not
allocator plumbing (`alloc::`, `core::`, `std::`, `hashbrown::`, the
`__rust_*`/`__rdl_*` shims, libc), followed by the N - 1 frames that
called it (default N = 2). A frame is the out-of-line function a
return address lies in, named by `addr2line -f -C -i` on the profiled
executable (the first file mapped; a PIE's load bias is the start of
its offset-0 mapping) — with `-i` its first answer is the full path,
and the inlined calls that follow it are dropped; frames anywhere else
read as `[object]`.
"""
import collections, os, re, signal, subprocess, sys

# A reader that closes the pipe early (`| head`) ends the report quietly.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)
args = sys.argv[1:]
if "-h" in args or "--help" in args:
    print(__doc__)
    sys.exit(0)
depth = 2
if "--frames" in args:
    at = args.index("--frames")
    depth = int(args[at + 1]) if args[at + 1 :] else 0
    del args[at : at + 2]
if not args or depth < 1:
    print(__doc__, file=sys.stderr)
    sys.exit(2)
maps, blocks, bias = [], [], {}
peak_big = peak_heap = 0
for line in open(args[0]):
    kind, _, rest = line.partition(" ")
    if kind == "A":
        size, *pcs = rest.split()
        blocks.append((int(size), [int(pc, 16) for pc in pcs]))
    elif kind == "P":
        peak_big, peak_heap = (int(x) for x in rest.split())
    elif kind == "M":
        span, _perms, offset, _dev, _inode, *path = rest.split()
        path = path[0] if path else ""
        start, end = (int(x, 16) for x in span.split("-"))
        if int(offset, 16) == 0:
            bias.setdefault(path, start)
        maps.append((start, end, bias.get(path, start), path))

exe = next(path for *_, path in maps if os.path.isfile(path))


def mapping(pc):
    return next(((b, p) for s, e, b, p in maps if s <= pc < e), (0, ""))


# A return address points past its call: look up the byte before it.
wanted = sorted({pc for _, pcs in blocks for pc in pcs if mapping(pc)[1] == exe})
names = {}
if wanted:
    cmd = ["addr2line", "-e", exe, "-f", "-C", "-i", "-a"]
    out = subprocess.run(cmd + [hex(pc - mapping(pc)[0] - 1) for pc in wanted],
                         capture_output=True, text=True).stdout.splitlines()
    frames, it = [], iter(out)
    for text in it:
        if text.startswith("0x"):
            frames.append([])
        else:
            frames[-1].append(re.sub(r"::h[0-9a-f]{16}$", "", text))
            next(it, None)  # its file:line
    names = {pc: f[0] for pc, f in zip(wanted, frames) if f}


def stack(pcs):
    return [names.get(pc) or f"[{os.path.basename(mapping(pc)[1]) or '?'}]" for pc in pcs]


plumbing = re.compile(r"^<?&?(dyn )?(alloc|core|std|hashbrown)::|^__rust|^__rdl|^\[|^\?\?$|^_?start|^main$")
sites = collections.defaultdict(lambda: [0, 0])
for size, pcs in blocks:
    frames = [f for f in stack(pcs) if not plumbing.search(f)]
    site = " <- ".join(frames[:depth]) or "[allocator only]"
    sites[site][0] += size
    sites[site][1] += 1

kib = lambda b: f"{b / 1024:,.0f}"
print(f"peak live set of blocks >= 32 KiB: {kib(peak_big)} KiB in {len(blocks)} blocks"
      f" (the whole heap peaked at {kib(peak_heap)} KiB, not necessarily at the same moment)")
rows = sorted(sites.items(), key=lambda kv: (-kv[1][0], kv[0]))
print(f"{'KiB':>8} {'blocks':>6} {'share':>6}  call site <- its callers")
for site, (size, n) in rows:
    share = 100 * size / peak_big if peak_big else 0
    print(f"{kib(size):>8} {n:>6} {share:>5.1f}%  {site}")
