//! The binary-rewriter experiments: Table 3 (the rewriting strategy for
//! every inadvertent-VMFUNC overlap case, demonstrated on real
//! encodings: scan → classify → rewrite → verify clean → interpret for
//! equivalence) and Table 6 (inadvertent occurrences across a corpus).

use std::{fs, path::PathBuf};

use sb_rewriter::{
    corpus,
    elf::exec_sections,
    interp::{run, Program, State},
    rewrite::rewrite_code,
    scan::{classify, find_occurrences, OverlapKind},
};

use super::{Artefact, PaperRow};

/// Table 6 as this machine can reproduce it: the paper found no
/// inadvertent `VMFUNC` in any compiled corpus it names (SPEC, PARSEC,
/// the servers, `vmlinux`, 2,934 modules), so none is expected in the
/// compiler output installed here.
pub const OCCURRENCES: &[PaperRow] = &[
    ("/usr/bin", &[0.0]),
    ("/usr/sbin", &[0.0]),
    ("/bin", &[0.0]),
    ("/usr/lib/x86_64-linux-gnu", &[0.0]),
];

/// ELF files Table 6 scans per directory.
const ELF_LIMIT: usize = 400;

const CODE_BASE: u64 = 0x40_0000;
const PAGE_BASE: u64 = 0x1000;

/// Table 3's cases: name, strategy, encoding.
const CASES: [(&str, &str, &[u8]); 7] = [
    (
        "1: opcode = VMFUNC",
        "replace with 3 NOPs",
        &[0x0f, 0x01, 0xd4, 0xc3, 0x90, 0x90],
    ),
    (
        "2: ModRM = 0x0F",
        "push/pop scratch register",
        // imul ecx, [rdi], 0xD401.
        &[0x69, 0x0f, 0x01, 0xd4, 0x00, 0x00, 0xc3, 0x90],
    ),
    (
        "3: SIB = 0x0F",
        "push/pop scratch register",
        // lea ebx, [rdi + rcx + 0xD401].
        &[0x8d, 0x9c, 0x0f, 0x01, 0xd4, 0x00, 0x00, 0xc3],
    ),
    (
        "4: displacement = 0x0F..",
        "precompute displacement (LEA split)",
        // add ebx, [rax + 0xD4010F].
        &[0x03, 0x98, 0x0f, 0x01, 0xd4, 0x00, 0xc3, 0x90],
    ),
    (
        "5: immediate = 0x0F..",
        "apply instruction twice",
        // add eax, 0xD4010F.
        &[0x05, 0x0f, 0x01, 0xd4, 0x00, 0xc3, 0x90, 0x90],
    ),
    (
        "5b: jump-like immediate",
        "relocate + recompute offset",
        // call rel32 = 0xD4010F.
        &[0xe8, 0x0f, 0x01, 0xd4, 0x00, 0xc3, 0x90, 0x90],
    ),
    (
        "C2: spanning instructions",
        "relocate with NOP separator",
        // mov eax, 0x0F000000 ; add esp, edx.
        &[0xb8, 0x00, 0x00, 0x00, 0x0f, 0x01, 0xd4, 0xc3, 0x90],
    ),
];

/// The register file after interpreting `code` (with its rewrite `page`)
/// from one fixed starting state.
fn interpret(code: &[u8], page: &[u8]) -> [u64; 16] {
    let mut s = State::default();
    s.regs[0] = 0x1111;
    s.regs[1] = 3;
    s.regs[2] = 0;
    s.regs[3] = 5;
    s.regs[7] = 0x9000;
    for i in 0..8u64 {
        s.mem.insert(0x9000 + i, 7);
        s.mem.insert(0x9000 + 0xd4010f + i, 9);
        s.mem.insert(0x100 + 0xd4010f + i, 9);
    }
    let program = Program {
        code,
        code_base: CODE_BASE,
        page,
        page_base: PAGE_BASE,
    };
    run(program, &mut s, 10_000).expect("the case interprets");
    s.regs
}

pub fn table3(_: &[PaperRow], a: &mut Artefact) {
    for (name, strategy, code) in CASES {
        let kind = match classify(code).first().map(|o| o.kind) {
            Some(OverlapKind::Vmfunc) => "C1".to_string(),
            Some(OverlapKind::Spanning) => "C2".to_string(),
            Some(OverlapKind::Within(f)) => format!("C3/{f:?}"),
            None => "none".to_string(),
        };
        let rewritten = rewrite_code(code, CODE_BASE, PAGE_BASE).expect("the case rewrites");
        let clean = find_occurrences(&rewritten.code).is_empty()
            && find_occurrences(&rewritten.rewrite_page).is_empty();
        // Equivalence spot check for interpretable cases (all but the
        // out-of-range call, which the unit tests verify statically).
        let equivalent = if name.starts_with("5b") {
            "static"
        } else if interpret(code, &[]) == interpret(&rewritten.code, &rewritten.rewrite_page) {
            "yes"
        } else {
            "NO"
        };
        a.put(name, "classified", kind);
        a.put(name, "strategy", strategy);
        a.put(name, "clean", if clean { "yes" } else { "NO" });
        a.put(name, "equivalent", equivalent);
        a.put(
            name,
            "stub",
            format!("{}B stub", rewritten.rewrite_page.len()),
        );
    }
    a.table(
        "Table 3: rewrite strategies for inadvertent VMFUNC encodings",
        "case",
    );
}

/// One corpus row of Table 6.
#[derive(Default)]
struct Scan {
    programs: usize,
    bytes: usize,
    hits: usize,
    /// `file (section, count)` for every section with an occurrence.
    hit_names: Vec<String>,
}

impl Scan {
    /// Places the corpus's size columns; its count is the caller's.
    fn put(&self, a: &mut Artefact, corpus: &str) {
        a.put(corpus, "programs", self.programs);
        a.put(corpus, "code KiB", self.bytes / 1024);
    }
}

/// Scans the executable sections of the first `limit` ELF files of
/// `dir`, in name order.
fn scan_dir(dir: &str, limit: usize) -> Scan {
    let mut scan = Scan::default();
    let Ok(entries) = fs::read_dir(dir) else {
        return scan;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths.into_iter().take(limit) {
        let Ok(data) = fs::read(&path) else { continue };
        let Ok(sections) = exec_sections(&data) else {
            continue;
        };
        if sections.is_empty() {
            continue;
        }
        scan.programs += 1;
        for sec in &sections {
            scan.bytes += sec.bytes.len();
            let found = find_occurrences(&sec.bytes).len();
            if found > 0 {
                scan.hits += found;
                scan.hit_names.push(format!(
                    "{} ({}, {found})",
                    path.file_name().unwrap_or_default().to_string_lossy(),
                    sec.name
                ));
            }
        }
    }
    scan
}

/// The paper scanned SPEC CPU 2006, PARSEC, Nginx, Apache, Memcached,
/// Redis, `vmlinux`, 2,934 kernel modules and 2,605 other programs, and
/// found exactly one inadvertent occurrence (in GIMP 2.8, inside a call
/// immediate). Our corpus is (a) the ELF binaries installed on this
/// machine — real compiler output — and (b) deterministic synthetic
/// instruction streams, including one with injected occurrences to prove
/// the scanner's sensitivity.
pub fn table6(paper: &[PaperRow], a: &mut Artefact) {
    let mut all_hits = Vec::new();
    for (dir, paper) in paper {
        let scan = scan_dir(dir, ELF_LIMIT);
        if scan.programs > 0 {
            scan.put(a, dir);
            a.cell(dir, "VMFUNC count", scan.hits as f64, paper[0]);
            all_hits.extend(scan.hit_names);
        }
    }
    for (name, inject) in [("synthetic (clean)", 0u64), ("synthetic (injected)", 25)] {
        let mut scan = Scan::default();
        for seed in 1..=64u64 {
            let code = corpus::generate(seed, 64 * 1024, inject);
            scan.programs += 1;
            scan.bytes += code.len();
            scan.hits += find_occurrences(&code).len();
        }
        scan.put(a, name);
        a.put(name, "VMFUNC count", scan.hits);
    }
    a.table(
        "Table 6: inadvertent VMFUNC occurrences — measured (paper)",
        "corpus",
    );
    if all_hits.is_empty() {
        a.text += "\nno occurrences in the real-binary corpus\n";
    } else {
        a.text += "\noccurrences found in:\n";
        for h in &all_hits {
            a.text += &format!("  {h}\n");
        }
    }
    a.text += "\npaper: 0 occurrences across SPEC/PARSEC/servers/vmlinux/modules;\n\
               exactly 1 in 2,605 other programs (GIMP 2.8, call immediate).\n\
               Shape to check: real binaries are (almost always) clean; the\n\
               injected synthetic corpus shows the scanner finds what exists.\n";
}
