#!/usr/bin/env python3
"""Sorts every non-test function of the workspace by what reaches it.

    scan.py ROOT ARTEFACTS LEDGER [--check]

ARTEFACTS holds one line per binary `tools/reach.sh` built at opt-level 0
(so no ordinary function is inlined away): `program PATH`, or
`test PATH SRC_PATH` with the source file of the test's crate root. A
binary reaches a function when it holds the function's symbol, a closure
of it, or a live inlined copy of it in its DWARF (an `#[inline(always)]`
function is inlined even at opt-level 0).

Functions are named by crate and impl type: `<T as Trait>::f` and
`<impl T>::f` both become `crate::T::f`; a free function is its module
path, `crate::module::f`. Each non-test function of a workspace package
that no program reaches is one row of LEDGER, `test-only` (naming a test
that reaches it) or `unreached`. A row may end in `# note`, which a
rewrite keeps. With `--check` the ledger is not written: the run exits 1
naming every row that the ledger lacks or that no longer holds.
"""

import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# --- Rust source -----------------------------------------------------------

TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<line>//[^\n]*)
    | (?P<block>/\*)
    | (?P<raw>b?r(?P<hashes>\#*)")
    | (?P<str>b?"(?:\\.|[^"\\])*")
    | (?P<char>b?'(?:\\(?:x[0-9a-fA-F]{2}|u\{[0-9a-fA-F]+\}|.)|[^\\'\n])')
    | (?P<life>'[A-Za-z_][A-Za-z0-9_]*)
    | (?P<ident>r\#[A-Za-z_][A-Za-z0-9_]*|[A-Za-z_][A-Za-z0-9_]*)
    | (?P<num>[0-9][0-9A-Za-z_.]*)
    | (?P<punct>::|->|=>|.)
    """,
    re.VERBOSE | re.DOTALL,
)
IDENT = re.compile(r"[A-Za-z_]")


def tokenize(src):
    """(text, line) per token; comments go and each literal becomes `"`."""
    out, i, line = [], 0, 1
    while i < len(src):
        m = TOKEN.match(src, i)
        end, kind = m.end(), m.lastgroup
        if m.group("block"):
            depth = 1
            while depth:
                if src.startswith("/*", end):
                    depth, end = depth + 1, end + 2
                elif src.startswith("*/", end):
                    depth, end = depth - 1, end + 2
                else:
                    end += 1
        elif m.group("raw") is not None:
            close = '"' + m.group("hashes")
            end = src.index(close, end) + len(close)
            out.append(('"', line))
        elif kind in ("str", "char"):
            out.append(('"', line))
        elif kind in ("ident", "num", "punct", "life"):
            out.append((m.group(kind), line))
        line += src.count("\n", i, end)
        i = end
    return out


class Fn:
    """One `fn` that has a body."""

    def __init__(self, key, name, file, line, test, is_test, label, const):
        self.key, self.name, self.file, self.line = key, name, file, line
        self.const = const  # a `const fn`
        self.test = test  # test code: under `#[cfg(test)]` or in a test target
        self.is_test = is_test  # a `#[test]` function
        self.label = label  # `file::module::name`
        self.mentions = set()  # the identifiers its body names


# What may stand between an item's start and its keyword.
MODIFIERS = {"pub", "crate", "in", "self", "super", "(", ")", "unsafe", "const",
             "async", "extern", '"', "default"}


def group_end(toks, i, open_, close):
    """The index just past the group that opens at or after `i`."""
    depth = 0
    while i < len(toks):
        t = toks[i][0]
        if t == open_:
            depth += 1
        elif t == close:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


def last_segment(ty):
    """The last path segment of a type at angle depth 0, generics dropped."""
    depth, name = 0, None
    for t in ty:
        depth += (t == "<") - (t == ">")
        if depth == 0 and IDENT.match(t) and t not in ("dyn", "mut"):
            name = t
    return name


def impl_self_type(header):
    """The self type's name in the tokens after `impl` and before `{`."""
    if header and header[0] == "<":
        depth = 0
        for n, t in enumerate(header):
            depth += (t == "<") - (t == ">")
            if depth == 0:
                header = header[n + 1:]
                break
    if "where" in header:
        header = header[: header.index("where")]
    depth = 0
    for n, t in enumerate(header):
        depth += (t == "<") - (t == ">")
        if depth == 0 and t == "for" and n > 0:
            return last_segment(header[n + 1:])
    return last_segment(header)


def is_test_attr(attr):
    return attr == "test" or re.fullmatch(r"cfg \( (all \( )?test\b.*", attr) is not None


# Identifiers named by a non-test const or static initialiser.
CONST_NAMES = set()


def scan_file(path, rel, crate, modpath, test_target, fns):
    """Appends every fn with a body in `path` to `fns`. A frame of the
    stack is [kind, name, test, fn]: kind is mod/impl/trait/fn/block."""
    toks = tokenize(path.read_text(encoding="utf-8"))
    stack = [["mod", None, test_target, None]]
    attrs, start, pending, depth, i = [], True, None, 0, 0
    while i < len(toks):
        t, line = toks[i]
        test = stack[-1][2]
        if t == "#" and i + 1 < len(toks) and toks[i + 1][0] in ("[", "!"):
            j = i + 1 if toks[i + 1][0] == "[" else i + 2
            end = group_end(toks, j, "[", "]")
            attrs.append(" ".join(x for x, _ in toks[j + 1: end - 1]))
            i, start = end, True
            continue
        if t == "macro_rules" and start:
            # A macro's body is a template, not code: skip it whole.
            i = group_end(toks, i, "{", "}")
            attrs, start = [], True
            continue
        nxt = toks[i + 1][0] if i + 1 < len(toks) else ""
        if start and t in ("const", "static") and IDENT.match(nxt) and nxt != "fn" and not test:
            # A const or static initialiser runs at compile time, so a
            # `const fn` it calls has no symbol: record what it names.
            j, level = i, 0
            while toks[j][0] != ";" or level:
                level += (toks[j][0] in ("(", "[", "{")) - (toks[j][0] in (")", "]", "}"))
                CONST_NAMES.add(toks[j][0])
                j += 1
        if start and pending is None and depth == 0 and t in ("mod", "impl", "trait", "fn"):
            test_item = test or any(is_test_attr(a) for a in attrs)
            if t == "fn" and IDENT.match(nxt):
                const = toks[i - 1][0] == "const"
                pending = ["fn", nxt, test_item, line, "test" in attrs, const]
            elif t == "mod" and i + 2 < len(toks) and toks[i + 2][0] == "{":
                pending = ["mod", nxt, test_item]
            elif t in ("impl", "trait"):
                j, header = i + 1, []
                while toks[j][0] not in ("{", ";"):
                    header.append(toks[j][0])
                    j += 1
                name = impl_self_type(header) if t == "impl" else header[0]
                pending = [t, name, test_item]
        if t in ("(", "["):
            depth += 1
        elif t in (")", "]"):
            depth -= 1
        if t == ";" and depth == 0:
            pending, attrs, start = None, [], True
        elif t == "{":
            frame = ["block", None, test, None]
            if pending and pending[0] == "fn":
                _, name, ftest, fline, is_test, const = pending
                mods = [f[1] for f in stack if f[0] == "mod" and f[1]]
                outer = [f[1] for f in stack if f[0] == "fn"]
                owners = [n for n, f in enumerate(stack) if f[0] in ("impl", "trait") and f[1]]
                if owners:
                    inner = [f[1] for f in stack[owners[-1] + 1:] if f[0] == "fn"]
                    key = "::".join([crate, stack[owners[-1]][1]] + inner + [name])
                else:
                    key = "::".join([crate] + modpath + mods + outer + [name])
                fn = Fn(key, name, rel, fline, ftest, is_test,
                        "::".join([rel] + mods + [name]), const)
                fns.append(fn)
                frame = ["fn", name, ftest, fn]
            elif pending:
                frame = pending[:3] + [None]
            stack.append(frame)
            pending, attrs, start = None, [], True
        elif t == "}":
            stack.pop()
            pending, attrs, start = None, [], True
        else:
            if IDENT.match(t):
                for frame in reversed(stack):
                    if frame[3]:
                        frame[3].mentions.add(t)
                        break
            if t not in MODIFIERS:
                start = False
        i += 1


def module_path(src_dir, file):
    """The module path of `file` under a crate's `src/`."""
    parts = list(file.relative_to(src_dir).with_suffix("").parts)
    if parts[0] == "bin":
        return parts[1].replace("-", "_"), []
    if parts[-1] in ("lib", "main", "mod"):
        parts = parts[:-1]
    return None, parts


def packages(root):
    """(package dir, lib crate name) of every workspace package of ours:
    the root, `crates/*`; not `vendor/` nor the standalone `benchmark/`."""
    out = []
    for manifest in [root / "Cargo.toml"] + sorted(root.glob("crates/*/Cargo.toml")):
        name = re.search(r'^name\s*=\s*"([^"]+)"', manifest.read_text(), re.M).group(1)
        out.append((manifest.parent, name.replace("-", "_")))
    return out


def scan_sources(root):
    """Every fn of every package: library and binary code, unit tests,
    and the integration tests under `tests/`."""
    fns = []
    for pkg, crate in packages(root):
        src = pkg / "src"
        for file in sorted(src.rglob("*.rs")):
            bin_crate, mods = module_path(src, file)
            scan_file(file, str(file.relative_to(root)), bin_crate or crate, mods, False, fns)
        for file in sorted((pkg / "tests").rglob("*.rs")):
            scan_file(file, str(file.relative_to(root)), "test", [], True, fns)
    return fns


# --- Symbols ---------------------------------------------------------------

ESCAPES = {"$LT$": "<", "$GT$": ">", "$C$": ",", "$RF$": "&", "$BP$": "*",
           "$SP$": "@", "$LP$": "(", "$RP$": ")", "$u20$": " ", "$u27$": "'",
           "$u5b$": "[", "$u5d$": "]", "$u7b$": "{", "$u7d$": "}", "$u7e$": "~",
           "$u3b$": ";", "$u2b$": "+", "$u22$": '"', "$u21$": "!"}


def demangle(sym):
    """A legacy-mangled Rust symbol as its path, hash dropped; else None."""
    m = re.match(r"_?_ZN(.*)E(?:\.llvm\.\d+)?$", sym)
    if not m:
        return None
    rest, parts = m.group(1), []
    while rest and rest[0].isdigit():
        n = re.match(r"\d+", rest).group(0)
        part, rest = rest[len(n): len(n) + int(n)], rest[len(n) + int(n):]
        parts.append(part)
    if parts and re.fullmatch(r"h[0-9a-f]{16}", parts[-1]):
        parts.pop()
    out = []
    for part in parts:
        if part.startswith("_$"):
            part = part[1:]
        part = re.sub(r"\$[A-Za-z0-9]+\$", lambda e: ESCAPES.get(e.group(0), e.group(0)), part)
        out.append(part.replace("..", "::"))
    return "::".join(out)


def split_path(path):
    """`a::b<c::d>::e` → ['a', 'b<c::d>', 'e'] (angle groups kept whole)."""
    parts, depth, cur, i = [], 0, "", 0
    while i < len(path):
        c = path[i]
        if c == "<":
            depth += 1
        elif c == ">" and path[i - 1] != "-":
            depth -= 1
        if depth == 0 and path.startswith("::", i):
            parts.append(cur)
            cur, i = "", i + 2
            continue
        cur += c
        i += 1
    return parts + [cur]


def bare(segment):
    return segment.split("<", 1)[0]


def type_path(ty):
    """`&mut a::B<c::D>` → ['a', 'B'] (generics and references dropped)."""
    return [bare(p) for p in split_path(ty.lstrip("&*").replace("mut ", "").replace("const ", ""))]


def keys(path):
    """The names a demangled symbol can reach a source function by."""
    parts = split_path(path)
    while parts and parts[-1].startswith("{{"):
        parts.pop()  # a closure, shim or constant of the function
    if len(parts) < 2:
        return set()
    if parts[0].startswith("<"):
        # `<Type as Trait>::f` or `<Type>::f`.
        inner, fn = parts[0][1:-1], parts[1]
        depth, cut = 0, None
        for n, c in enumerate(inner):
            depth += (c == "<") - (c == ">")
            if depth == 0 and inner.startswith(" as ", n):
                cut = n
        ty, trait = (inner[:cut], inner[cut + 4:]) if cut is not None else (inner, None)
        ty_parts = type_path(ty)
        crates = {ty_parts[0]} if len(ty_parts) > 1 else set()
        if trait:
            crates.add(split_path(trait)[0])
        return {f"{c}::{ty_parts[-1]}::{fn}" for c in crates}
    # `crate::module::<impl Type>::f`: an inherent impl in another module
    # than its type.
    plain = [type_path(p[6:-1])[-1] if p.startswith("<impl ") else bare(p) for p in parts]
    out = {"::".join(plain)}
    typed = [n for n, p in enumerate(plain[1:-1], 1) if p[:1].isupper()]
    if typed:
        out.add("::".join([plain[0]] + plain[typed[-1]:]))
    return out


def reached(binary, crates):
    """Every key of a function of `crates` that `binary` reaches."""
    names = set()
    nm = subprocess.run(["nm", "--defined-only", binary], capture_output=True, text=True,
                        check=True).stdout
    for line in nm.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in "tTwW":
            names.add(fields[2])
    # Inlined copies. The DWARF of a function the linker dropped stays,
    # with address 0, so only an inlined copy at a non-zero address (or
    # whose first range starts at one) counts.
    dump = subprocess.Popen(
        f"llvm-dwarfdump --debug-info '{binary}' | grep -A3 -F DW_TAG_inlined_subroutine",
        shell=True, stdout=subprocess.PIPE, text=True)
    state, origin = 0, None
    for line in dump.stdout:
        if state == 0 or "DW_TAG_inlined_subroutine" in line:
            state = "DW_TAG_inlined_subroutine" in line
        elif state == 1:
            m = re.search(r'DW_AT_abstract_origin\s.*"(_ZN[^"]+)"', line)
            origin, state = (m.group(1), 2) if m else (None, 0)
        elif state == 2 and "DW_AT_ranges" in line:
            state = 3
        else:
            m = re.search(r"(?:DW_AT_low_pc\s+\(|^\s*\[)0x([0-9a-f]+)", line)
            if m and int(m.group(1), 16):
                names.add(origin)
            state = 0
    if dump.wait() not in (0, 1):
        sys.exit(f"llvm-dwarfdump failed on {binary}")
    out = set()
    pattern = re.compile("|".join(re.escape(c) for c in crates))
    for sym in names:
        path = pattern.search(sym) and demangle(sym)
        if path:
            out |= {k for k in keys(path) if k.split("::", 1)[0] in crates}
    return out


# --- The ledger ------------------------------------------------------------

HEADER = """\
# Functions no program reaches. Written by `bash tools/reach.sh`, held by
# `bash tools/reach.sh --check` (CI's `reach` job); tools/reach/scan.py
# says how a function is named and when a binary reaches it.
#
# The programs are sb-bench, the root package's examples and benchmark/'s
# sb-benchmark, built at opt-level 0. A `test-only` row names a test in a
# test binary that reaches the function, one whose body names it (or, when
# none does, the binary's crate root); an `unreached` row names nothing.
# A trailing `# note` says why the row stays, and survives a rewrite.
#
# status    function    defined in    test
"""


def name_test(fn, scopes, fns):
    """A test, in the first of `scopes` that has one, whose body names
    `fn` (one that names its type too, if any does), or names a function
    that does (up to five calls away), or at last names `fn`'s type."""
    owner = fn.key.split("::")[-2]
    typed = owner[:1].isupper()
    # A `Debug` or `Display` impl is called by the formatting macros.
    targets = {fn.name} | ({"format", "to_string"} if fn.name == "fmt" else set())
    for hop in range(6):
        for scope in scopes:
            hits = [t for t in scope if t.mentions & targets]
            if hop == 0 and typed:
                hits = [t for t in hits if owner in t.mentions] or hits
            if hits:
                return min(hits, key=lambda t: (t.file, t.line)).label
        callers = {f.name for f in fns if f.mentions & targets}
        if callers <= targets:
            break
        targets |= callers
    for scope in scopes:
        hits = [t for t in scope if typed and owner in t.mentions]
        if hits:
            return min(hits, key=lambda t: (t.file, t.line)).label
    return None


def crate_dir(path):
    """`crates/sim/` for any file of that package, `` for the root's."""
    return path.split("src/")[0].split("tests/")[0]


def test_scope(rel, test_fns):
    """The `#[test]` functions of the test binary whose crate root is
    `rel`: a package's unit tests, or one integration test file and the
    modules in the directories beside it (`tests/support/`)."""
    if "/src/" in "/" + rel:
        return [t for t in test_fns if crate_dir(t.file) == crate_dir(rel)
                and "/src/" in "/" + t.file]
    here = rel.rsplit("/", 1)[0] + "/"
    return [t for t in test_fns
            if t.file == rel or t.file.startswith(here) and "/" in t.file[len(here):]]


def rows(root, artefacts):
    fns = scan_sources(root)
    crates = {crate for _, crate in packages(root)} | {
        f.key.split("::")[0] for f in fns if not f.test}
    programs, tests = set(), []
    lines = [line.split() for line in Path(artefacts).read_text().splitlines()]
    with ThreadPoolExecutor(2) as pool:
        found = pool.map(lambda f: reached(f[1], crates), lines)
        for (kind, _, *src), keys_ in zip(lines, found):
            if kind == "program":
                programs |= keys_
            else:
                tests.append((str(Path(src[0]).resolve().relative_to(root)), keys_))
    test_fns = [f for f in fns if f.is_test]
    out, seen = [], set()
    for fn in sorted((f for f in fns if not f.test), key=lambda f: (f.key, f.file, f.line)):
        if fn.key in programs or fn.key in seen or fn.const and fn.name in CONST_NAMES:
            continue
        seen.add(fn.key)
        # The function's own package's tests first, unit tests first.
        bins = sorted((rel for rel, keys_ in tests if fn.key in keys_),
                      key=lambda rel: (crate_dir(rel) != crate_dir(fn.file),
                                       "/src/" not in "/" + rel, rel))
        if not bins:
            out.append(("unreached", fn.key, fn.file, "-"))
            continue
        label = name_test(fn, [test_scope(rel, test_fns) for rel in bins], fns)
        out.append(("test-only", fn.key, fn.file, label or bins[0]))
    return out, fns, programs


def parse(text):
    table = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        row, _, note = line.partition("  #")
        fields = tuple(row.split())
        table[fields[1]] = (fields, note.strip())
    return table


def main():
    root, artefacts, ledger = Path(sys.argv[1]).resolve(), sys.argv[2], Path(sys.argv[3])
    check = "--check" in sys.argv[4:]
    measured, fns, programs = rows(root, artefacts)
    committed = parse(ledger.read_text()) if ledger.exists() else {}
    counts = {s: sum(1 for r in measured if r[0] == s) for s in ("test-only", "unreached")}
    summary = f"reach: {counts['test-only']} test-only, {counts['unreached']} unreached"
    if not check:
        lines = []
        for row in measured:
            note = committed.get(row[1], (None, ""))[1]
            lines.append(" ".join(row) + (f"  # {note}" if note else ""))
        ledger.write_text(HEADER + "\n".join(lines) + "\n")
        print(f"{summary}; wrote {ledger}")
        return 0
    bad = []
    now = {r[1]: r for r in measured}
    known = {f.key for f in fns if not f.test}
    for key, row in now.items():
        if key not in committed:
            bad.append(f"unlisted: {' '.join(row)}")
        elif committed[key][0] != row:
            bad.append(f"changed: listed `{' '.join(committed[key][0])}`, measured `{' '.join(row)}`")
    for key, (row, _) in committed.items():
        if key not in now:
            why = "a program reaches it now" if key in programs else (
                "no such function" if key not in known else "not measured")
            bad.append(f"stale: {' '.join(row)} ({why})")
    for line in bad:
        print(line)
    print(f"{summary}; {len(bad)} row(s) differ from {ledger}" if bad
          else f"{summary}; {ledger} holds")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
