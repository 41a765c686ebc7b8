//! The Table 3 rewriting strategies.
//!
//! Every occurrence of `0F 01 D4` in a code region is replaced with
//! functionally equivalent instructions:
//!
//! | Overlap | Strategy (paper Table 3) |
//! |---|---|
//! | opcode = VMFUNC (C1) | replace with 3 NOPs |
//! | spanning instructions (C2) | relocate the spanning instructions to the rewrite page with a NOP inserted between them |
//! | ModRM = 0x0F | push/pop a scratch register; address through it |
//! | SIB = 0x0F | same scratch-register substitution on the SIB base |
//! | displacement contains 0x0F... | precompute part of the displacement with `LEA` |
//! | immediate contains the bytes | apply the operation twice with two immediates (ALU), `MOV`+`LEA` split (moves), or relocate-and-refixup (jump-like) |
//!
//! Rewritten sequences that no longer fit in place are moved to the
//! *rewrite page* (mapped at the otherwise-unused low address, §5.1); the
//! original site becomes `JMP rel32` to the snippet plus NOP padding, and
//! each snippet ends with a `JMP rel32` back.
//!
//! After every patch the whole region is rescanned; if a patch's own bytes
//! (a jump offset, a split constant) happen to recreate the pattern, the
//! snippet is nudged (shifted by a NOP / the split constants rotated) and
//! re-emitted. [`rewrite_code`] only returns success when the final scan
//! is clean.

use crate::{
    insn::{decode, Field, Insn},
    scan::{classify, find_occurrences, Occurrence, OverlapKind},
};

/// Result of rewriting one code region.
#[derive(Debug, Clone)]
pub struct RewriteOutput {
    /// The patched code (same length as the input).
    pub code: Vec<u8>,
    /// Contents of the rewrite page(s); map at `rewrite_base`, executable.
    pub rewrite_page: Vec<u8>,
    /// Number of relocation snippets emitted.
    pub stubs: usize,
    /// Occurrences fixed in place (C1 NOPs).
    pub in_place: usize,
}

/// Why rewriting failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// An occurrence sits in an instruction form no strategy covers.
    Unrewritable {
        /// Offset of the occurrence.
        offset: usize,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Patching made no progress (pathological overlapping patterns).
    NoProgress,
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteError::Unrewritable { offset, reason } => {
                write!(f, "cannot rewrite occurrence at {offset:#x}: {reason}")
            }
            RewriteError::NoProgress => write!(f, "rewriting made no progress"),
        }
    }
}

impl std::error::Error for RewriteError {}

/// Scratch-constant candidates for immediate/displacement splitting; the
/// emitter rotates through them until the assembled bytes are
/// pattern-free.
const SPLIT_CANDIDATES: [i32; 4] = [0x0101_0101, 0x0202_0202, 0x1133_5577, 0x0907_0503];

/// Rewrites `code` (mapped at `code_base`), producing patched code plus a
/// rewrite page to map at `rewrite_base`.
///
/// # Examples
///
/// ```
/// use sb_rewriter::{rewrite::rewrite_code, scan::find_occurrences};
///
/// // add eax, 0x00D4010F — the VMFUNC bytes hide in the immediate.
/// let code = [0x05, 0x0f, 0x01, 0xd4, 0x00, 0xc3, 0x90, 0x90];
/// assert_eq!(find_occurrences(&code).len(), 1);
/// let out = rewrite_code(&code, 0x40_0000, 0x1000).unwrap();
/// assert!(find_occurrences(&out.code).is_empty());
/// assert_eq!(out.code.len(), code.len());
/// ```
pub fn rewrite_code(
    code: &[u8],
    code_base: u64,
    rewrite_base: u64,
) -> Result<RewriteOutput, RewriteError> {
    let mut out = RewriteOutput {
        code: code.to_vec(),
        rewrite_page: Vec::new(),
        stubs: 0,
        in_place: 0,
    };
    let initial = find_occurrences(code).len();
    let mut fuse = initial * 4 + 8;
    loop {
        let occs = classify(&out.code);
        // Ignore occurrences inside already-emitted NOP/JMP patch sites?
        // There are none by construction; the loop re-verifies everything.
        let Some(occ) = occs.first().copied() else {
            break;
        };
        if fuse == 0 {
            return Err(RewriteError::NoProgress);
        }
        fuse -= 1;
        rewrite_one(&mut out, occ, code_base, rewrite_base)?;
    }
    // The rewrite page itself must be clean.
    if !find_occurrences(&out.rewrite_page).is_empty() {
        return Err(RewriteError::NoProgress);
    }
    Ok(out)
}

fn rewrite_one(
    out: &mut RewriteOutput,
    occ: Occurrence,
    code_base: u64,
    rewrite_base: u64,
) -> Result<(), RewriteError> {
    match occ.kind {
        OverlapKind::Vmfunc => {
            // C1: the whole instruction (including any prefixes) becomes
            // NOPs.
            for b in &mut out.code[occ.insn_start..occ.span_end] {
                *b = 0x90;
            }
            out.in_place += 1;
            Ok(())
        }
        OverlapKind::Spanning => relocate_region(
            out,
            occ.insn_start,
            occ.span_end,
            code_base,
            rewrite_base,
            occ.offset,
            Transform::NopSeparated,
        ),
        OverlapKind::Within(field) => {
            let insn =
                decode(&out.code[occ.insn_start..]).map_err(|_| RewriteError::Unrewritable {
                    offset: occ.offset,
                    reason: "undecodable instruction",
                })?;
            let end = occ.insn_start + insn.len;
            let transform = match field {
                Field::Opcode => {
                    return Err(RewriteError::Unrewritable {
                        offset: occ.offset,
                        reason: "pattern in a non-VMFUNC opcode",
                    })
                }
                Field::ModRm => Transform::ScratchRm,
                Field::Sib => Transform::ScratchSibBase,
                Field::Displacement => {
                    if is_rip_relative(&out.code[occ.insn_start..], &insn) {
                        Transform::RipRefixup
                    } else {
                        Transform::DispSplit
                    }
                }
                Field::Immediate => {
                    if insn.is_relative_branch {
                        Transform::BranchRefixup
                    } else {
                        Transform::ImmSplit
                    }
                }
            };
            relocate_region(
                out,
                occ.insn_start,
                end,
                code_base,
                rewrite_base,
                occ.offset,
                transform,
            )
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transform {
    /// Copy instructions verbatim (with branch fixups), NOP between them.
    NopSeparated,
    /// Replace the ModRM base register with a scratch register.
    ScratchRm,
    /// Replace the SIB base register with a scratch register.
    ScratchSibBase,
    /// Split the displacement via a scratch LEA.
    DispSplit,
    /// RIP-relative displacement: relocation refixup changes the bytes.
    RipRefixup,
    /// Split the immediate (ALU twice / MOV+LEA).
    ImmSplit,
    /// Relative branch: relocation refixup changes the offset bytes.
    BranchRefixup,
}

fn is_rip_relative(bytes: &[u8], insn: &Insn) -> bool {
    if let Some(m) = insn.modrm_off {
        let modrm = bytes[m];
        return modrm >> 6 == 0b00 && modrm & 0x07 == 0b101;
    }
    false
}

/// Relocates `[start, end)` (extended to ≥ 5 bytes on instruction
/// boundaries) into the rewrite page, applying `transform` to the
/// instruction containing `occ_offset`.
#[allow(clippy::too_many_arguments)]
fn relocate_region(
    out: &mut RewriteOutput,
    start: usize,
    mut end: usize,
    code_base: u64,
    rewrite_base: u64,
    occ_offset: usize,
    transform: Transform,
) -> Result<(), RewriteError> {
    // Extend the region to at least 5 bytes (JMP rel32) on instruction
    // boundaries.
    while end - start < 5 {
        if end >= out.code.len() {
            return Err(RewriteError::Unrewritable {
                offset: occ_offset,
                reason: "too little room for a JMP at end of region",
            });
        }
        let next = decode(&out.code[end..]).map(|i| i.len).unwrap_or(1);
        end += next;
    }
    let end = end.min(out.code.len());

    // Decode the instructions of the region.
    let mut insns = Vec::new();
    let mut at = start;
    while at < end {
        let i = decode(&out.code[at..]).map_err(|_| RewriteError::Unrewritable {
            offset: occ_offset,
            reason: "undecodable instruction in relocation region",
        })?;
        insns.push((at, i));
        at += i.len;
    }
    if at != end {
        return Err(RewriteError::Unrewritable {
            offset: occ_offset,
            reason: "region does not end on an instruction boundary",
        });
    }

    // Try emitting the snippet with increasing NOP nudges and rotating
    // split constants until the result is pattern-free.
    for nudge in 0..16usize {
        let snippet_off = out.rewrite_page.len() + nudge;
        let snippet_addr = rewrite_base + snippet_off as u64;
        match emit_snippet(
            &out.code,
            &insns,
            occ_offset,
            transform,
            code_base,
            snippet_addr,
            end,
            nudge,
        ) {
            Ok(snippet) => {
                // Patch site: JMP rel32 to the snippet + NOP fill.
                let mut site = Vec::with_capacity(end - start);
                let site_addr = code_base + start as u64;
                site.push(0xe9);
                site.extend_from_slice(
                    &(snippet_addr.wrapping_sub(site_addr + 5) as u32).to_le_bytes(),
                );
                site.resize(end - start, 0x90);
                // Verify the patch site (with one byte of context each
                // side) and snippet are clean.
                let mut probe = Vec::new();
                probe.extend_from_slice(&out.code[start.saturating_sub(2)..start]);
                probe.extend_from_slice(&site);
                probe.extend_from_slice(&out.code[end..(end + 2).min(out.code.len())]);
                if find_occurrences(&probe).is_empty() && find_occurrences(&snippet).is_empty() {
                    out.code[start..end].copy_from_slice(&site);
                    for _ in 0..nudge {
                        out.rewrite_page.push(0x90);
                    }
                    out.rewrite_page.extend_from_slice(&snippet);
                    out.stubs += 1;
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(RewriteError::Unrewritable {
        offset: occ_offset,
        reason: "could not find a pattern-free emission",
    })
}

/// Emits the snippet body: all region instructions (transformed /
/// fixed-up) followed by a JMP back to the instruction after the region.
#[allow(clippy::too_many_arguments)]
fn emit_snippet(
    code: &[u8],
    insns: &[(usize, Insn)],
    occ_offset: usize,
    transform: Transform,
    code_base: u64,
    snippet_addr: u64,
    region_end: usize,
    variant: usize,
) -> Result<Vec<u8>, RewriteError> {
    let mut s: Vec<u8> = Vec::new();
    for &(at, insn) in insns {
        let bytes = &code[at..at + insn.len];
        let contains_occ = occ_offset >= at && occ_offset < at + insn.len;
        let emit_addr = snippet_addr + s.len() as u64;
        let orig_addr = code_base + at as u64;
        if contains_occ && transform != Transform::NopSeparated {
            let rewritten = transform_insn(
                bytes,
                &insn,
                transform,
                orig_addr,
                emit_addr,
                occ_offset - at,
                variant,
            )?;
            s.extend_from_slice(&rewritten);
        } else if insn.is_relative_branch {
            let fixed = refix_branch(bytes, &insn, orig_addr, emit_addr).map_err(|reason| {
                RewriteError::Unrewritable {
                    offset: occ_offset,
                    reason,
                }
            })?;
            s.extend_from_slice(&fixed);
        } else if is_rip_relative(bytes, &insn) {
            let fixed = refix_rip(bytes, &insn, orig_addr, emit_addr);
            s.extend_from_slice(&fixed);
        } else {
            s.extend_from_slice(bytes);
        }
        if transform == Transform::NopSeparated {
            // §5.2 C2: a NOP between consecutive instructions breaks any
            // spanning pattern.
            s.push(0x90);
        }
    }
    // JMP back.
    let back_target = code_base + region_end as u64;
    let jmp_addr = snippet_addr + s.len() as u64;
    s.push(0xe9);
    s.extend_from_slice(&(back_target.wrapping_sub(jmp_addr + 5) as u32).to_le_bytes());
    Ok(s)
}

/// Recomputes a relative branch for its new address (promoting rel8 to
/// rel32 where needed).
fn refix_branch(
    bytes: &[u8],
    insn: &Insn,
    orig_addr: u64,
    emit_addr: u64,
) -> Result<Vec<u8>, &'static str> {
    let (imm_off, imm_len) = insn.imm.ok_or("branch without immediate")?;
    let disp: i64 = match imm_len {
        1 => bytes[imm_off] as i8 as i64,
        4 => i32::from_le_bytes(bytes[imm_off..imm_off + 4].try_into().unwrap()) as i64,
        _ => return Err("unsupported branch immediate width"),
    };
    let target = orig_addr
        .wrapping_add(insn.len as u64)
        .wrapping_add(disp as u64);
    let op = bytes[insn.opcode_off];
    // Promote to a rel32 form.
    let mut out = Vec::new();
    let rel32_len: u64 = match (insn.opcode_len, op) {
        (1, 0xeb) | (1, 0xe9) => {
            out.push(0xe9);
            5
        }
        (1, 0xe8) => {
            out.push(0xe8);
            5
        }
        (1, cc @ 0x70..=0x7f) => {
            out.push(0x0f);
            out.push(0x80 + (cc - 0x70));
            6
        }
        (2, cc @ 0x80..=0x8f) if bytes[insn.opcode_off] == 0x0f => {
            out.push(0x0f);
            out.push(cc);
            6
        }
        (2, _) if bytes[insn.opcode_off] == 0x0f => {
            let cc = bytes[insn.opcode_off + 1];
            out.push(0x0f);
            out.push(cc);
            6
        }
        _ => return Err("unsupported branch form (LOOP/JRCXZ)"),
    };
    let rel = target.wrapping_sub(emit_addr + rel32_len) as i64;
    let rel32 = i32::try_from(rel).map_err(|_| "branch target out of rel32 range")?;
    out.extend_from_slice(&rel32.to_le_bytes());
    Ok(out)
}

/// Recomputes a RIP-relative displacement for the new address.
fn refix_rip(bytes: &[u8], insn: &Insn, orig_addr: u64, emit_addr: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let (off, len) = insn.disp.expect("RIP-relative without displacement");
    debug_assert_eq!(len, 4);
    let disp = i32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as i64;
    let target = orig_addr
        .wrapping_add(insn.len as u64)
        .wrapping_add(disp as u64);
    let new_disp = target.wrapping_sub(emit_addr + insn.len as u64) as i64;
    // The relocation distance always fits: code and rewrite page sit in
    // the low 4 GiB of the address space.
    out[off..off + 4].copy_from_slice(&(new_disp as i32).to_le_bytes());
    out
}

/// Registers referenced by an instruction's ModRM/SIB (numbers 0–15).
fn referenced_regs(bytes: &[u8], insn: &Insn) -> Vec<u8> {
    let mut regs = Vec::new();
    let rex = rex_byte(bytes, insn);
    let (r, x, b) = (
        rex.map_or(0, |v| (v >> 2) & 1),
        rex.map_or(0, |v| (v >> 1) & 1),
        rex.map_or(0, |v| v & 1),
    );
    if let Some(m) = insn.modrm_off {
        let modrm = bytes[m];
        regs.push(((modrm >> 3) & 7) | (r << 3));
        let mode = modrm >> 6;
        let rm = modrm & 7;
        if mode == 0b11 || rm != 0b100 {
            regs.push(rm | (b << 3));
        }
    }
    if let Some(so) = insn.sib_off {
        let sib = bytes[so];
        regs.push(((sib >> 3) & 7) | (x << 3)); // Index.
        regs.push((sib & 7) | (b << 3)); // Base.
    }
    regs
}

fn rex_byte(bytes: &[u8], insn: &Insn) -> Option<u8> {
    (insn.opcode_off > 0)
        .then(|| bytes[insn.opcode_off - 1])
        .filter(|b| (0x40..=0x4f).contains(b))
}

fn pick_scratch(used: &[u8]) -> u8 {
    // Low registers only (no REX.B games): rax, rcx, rdx, rbx.
    for cand in [0u8, 1, 2, 3] {
        if !used.contains(&cand) {
            return cand;
        }
    }
    unreachable!("an instruction references at most 3 of the 4 candidates")
}

fn push_reg(s: &mut Vec<u8>, reg: u8) {
    debug_assert!(reg < 8);
    s.push(0x50 + reg);
}

fn pop_reg(s: &mut Vec<u8>, reg: u8) {
    debug_assert!(reg < 8);
    s.push(0x58 + reg);
}

/// `mov scratch, src` (64-bit, src may be r8–r15).
fn mov_reg64(s: &mut Vec<u8>, dst: u8, src: u8) {
    let rex = 0x48 | ((src >= 8) as u8) << 2 | ((dst >= 8) as u8);
    s.push(rex);
    s.push(0x89);
    s.push(0xc0 | ((src & 7) << 3) | (dst & 7));
}

/// `mov r32, imm32` via C7 /0 (no REX: zero-extends, which matches the
/// splitting math used below) or REX.W for sign-extended 64-bit.
fn mov_imm(s: &mut Vec<u8>, dst: u8, imm: i32, wide: bool) {
    debug_assert!(dst < 8);
    if wide {
        s.push(0x48);
    }
    s.push(0xc7);
    s.push(0xc0 | dst);
    s.extend_from_slice(&imm.to_le_bytes());
}

/// `add r, imm32` (81 /0), matching operand width.
fn add_imm(s: &mut Vec<u8>, dst: u8, imm: i32, wide: bool) {
    debug_assert!(dst < 8);
    if wide {
        s.push(0x48);
    }
    s.push(0x81);
    s.push(0xc0 | dst);
    s.extend_from_slice(&imm.to_le_bytes());
}

/// Splits `imm` into `(k1, k2)` with `k1 + k2 == imm` (as i64), rotating
/// candidates by `variant`.
fn split_imm(imm: i64, variant: usize) -> Option<(i32, i32)> {
    for i in 0..SPLIT_CANDIDATES.len() {
        let k2 = SPLIT_CANDIDATES[(variant + i) % SPLIT_CANDIDATES.len()] as i64;
        let k1 = imm - k2;
        if let (Ok(a), Ok(b)) = (i32::try_from(k1), i32::try_from(k2)) {
            return Some((a, b));
        }
        // Try the negated candidate for immediates near i32::MAX.
        let k2 = -k2;
        let k1 = imm - k2;
        if let (Ok(a), Ok(b)) = (i32::try_from(k1), i32::try_from(k2)) {
            return Some((a, b));
        }
    }
    None
}

/// Applies a Table 3 transform to the single offending instruction,
/// returning the replacement byte sequence.
fn transform_insn(
    bytes: &[u8],
    insn: &Insn,
    transform: Transform,
    orig_addr: u64,
    emit_addr: u64,
    _occ_off_in_insn: usize,
    variant: usize,
) -> Result<Vec<u8>, RewriteError> {
    let err = |reason: &'static str| RewriteError::Unrewritable {
        offset: orig_addr as usize,
        reason,
    };
    match transform {
        Transform::BranchRefixup => refix_branch(bytes, insn, orig_addr, emit_addr).map_err(err),
        Transform::RipRefixup => Ok(refix_rip(bytes, insn, orig_addr, emit_addr)),
        Transform::ScratchRm => {
            // ModRM == 0x0F: mod=00, reg=rcx, rm=[rdi]. Send the memory
            // operand through a scratch register: push s; mov s, rdi;
            // <insn with rm=s>; pop s.
            // Guard: CMPXCHG8B/16B (0F C7 /1) uses rax/rbx/rcx/rdx
            // implicitly — no safe scratch exists.
            if insn.opcode_len == 2 && bytes[insn.opcode_off + 1] == 0xc7 {
                return Err(err("CMPXCHG8B/16B has no free scratch register"));
            }
            let m = insn.modrm_off.ok_or_else(|| err("no ModRM"))?;
            let modrm = bytes[m];
            if modrm != 0x0f {
                return Err(err("ModRM overlap is not the 0x0F form"));
            }
            let rex = rex_byte(bytes, insn);
            let base = 7 | rex.map_or(0, |v| (v & 1) << 3); // rdi or r15.
            let scratch = pick_scratch(&referenced_regs(bytes, insn));
            let mut s = Vec::new();
            push_reg(&mut s, scratch);
            mov_reg64(&mut s, scratch, base);
            // Re-encode: clear REX.B (scratch is a low register), set
            // rm = scratch.
            let mut body = bytes.to_vec();
            if let Some(ro) = (insn.opcode_off > 0
                && (0x40..=0x4f).contains(&bytes[insn.opcode_off - 1]))
            .then(|| insn.opcode_off - 1)
            {
                body[ro] &= !0x01;
            }
            body[m] = (modrm & 0xf8) | scratch;
            s.extend_from_slice(&body);
            pop_reg(&mut s, scratch);
            Ok(s)
        }
        Transform::ScratchSibBase => {
            // SIB == 0x0F: scale=1, index=rcx, base=rdi. Same scratch
            // substitution on the SIB base.
            let so = insn.sib_off.ok_or_else(|| err("no SIB"))?;
            let sib = bytes[so];
            if sib != 0x0f {
                return Err(err("SIB overlap is not the 0x0F form"));
            }
            let rex = rex_byte(bytes, insn);
            let base = 7 | rex.map_or(0, |v| (v & 1) << 3);
            let scratch = pick_scratch(&referenced_regs(bytes, insn));
            let mut s = Vec::new();
            push_reg(&mut s, scratch);
            mov_reg64(&mut s, scratch, base);
            let mut body = bytes.to_vec();
            if let Some(ro) = (insn.opcode_off > 0
                && (0x40..=0x4f).contains(&bytes[insn.opcode_off - 1]))
            .then(|| insn.opcode_off - 1)
            {
                body[ro] &= !0x01;
            }
            body[so] = (sib & 0xf8) | scratch;
            s.extend_from_slice(&body);
            pop_reg(&mut s, scratch);
            Ok(s)
        }
        Transform::DispSplit => {
            // Precompute part of the displacement with LEA through a
            // scratch register (Table 3 row 4, made register-neutral).
            let m = insn.modrm_off.ok_or_else(|| err("no ModRM"))?;
            let modrm = bytes[m];
            let mode = modrm >> 6;
            let (doff, dlen) = insn.disp.ok_or_else(|| err("no displacement"))?;
            if dlen != 4 || mode != 0b10 {
                return Err(err("only disp32 register-base forms supported"));
            }
            if modrm & 0x07 == 0b100 {
                return Err(err("disp split with SIB not supported"));
            }
            let rex = rex_byte(bytes, insn);
            let base = (modrm & 7) | rex.map_or(0, |v| (v & 1) << 3);
            let disp = i32::from_le_bytes(bytes[doff..doff + 4].try_into().unwrap());
            let (k1, k2) = split_imm(disp as i64, variant)
                .ok_or_else(|| err("displacement not splittable"))?;
            let scratch = pick_scratch(&referenced_regs(bytes, insn));
            let mut s = Vec::new();
            push_reg(&mut s, scratch);
            // lea scratch, [base + k1] : REX.W 8D /r mod=10.
            let rex_lea = 0x48 | ((base >= 8) as u8);
            s.push(rex_lea);
            s.push(0x8d);
            s.push(0x80 | (scratch << 3) | (base & 7));
            s.extend_from_slice(&k1.to_le_bytes());
            // Original instruction with base=scratch, disp=k2.
            let mut body = bytes.to_vec();
            if let Some(ro) = (insn.opcode_off > 0
                && (0x40..=0x4f).contains(&bytes[insn.opcode_off - 1]))
            .then(|| insn.opcode_off - 1)
            {
                body[ro] &= !0x01;
            }
            body[m] = (modrm & 0xf8) | scratch;
            body[doff..doff + 4].copy_from_slice(&k2.to_le_bytes());
            s.extend_from_slice(&body);
            pop_reg(&mut s, scratch);
            Ok(s)
        }
        Transform::ImmSplit => imm_split(bytes, insn, variant, orig_addr),
        Transform::NopSeparated => unreachable!("handled by caller"),
    }
}

/// ALU opcode for `<op> r/m, r` keyed by the 81-group digit.
fn alu_rm_r_opcode(digit: u8) -> u8 {
    // add or adc sbb and sub xor cmp.
    [0x01, 0x09, 0x11, 0x19, 0x21, 0x29, 0x31, 0x39][digit as usize]
}

fn imm_split(
    bytes: &[u8],
    insn: &Insn,
    variant: usize,
    orig_addr: u64,
) -> Result<Vec<u8>, RewriteError> {
    let err = |reason: &'static str| RewriteError::Unrewritable {
        offset: orig_addr as usize,
        reason,
    };
    let (ioff, ilen) = insn.imm.ok_or_else(|| err("no immediate"))?;
    let rex = rex_byte(bytes, insn);
    let wide = rex.is_some_and(|r| r & 0x08 != 0);
    let op = bytes[insn.opcode_off];
    match (insn.opcode_len, op) {
        // MOV r, imm32/imm64 (B8+r) and MOV r/m, imm32 (C7 /0, mod=11):
        // mov dst, k1; lea dst, [dst + k2] — LEA preserves flags, so the
        // pair is flag-equivalent to the original MOV.
        (1, 0xb8..=0xbf) | (1, 0xc7) => {
            let dst = if op == 0xc7 {
                let m = insn.modrm_off.ok_or_else(|| err("no ModRM"))?;
                if bytes[m] >> 6 != 0b11 {
                    return Err(err("MOV imm to memory not supported"));
                }
                (bytes[m] & 7) | rex.map_or(0, |v| (v & 1) << 3)
            } else {
                (op - 0xb8) | rex.map_or(0, |v| (v & 1) << 3)
            };
            if dst >= 8 {
                return Err(err("MOV split to r8-r15 not supported"));
            }
            let imm: i64 = match ilen {
                4 => {
                    let v = i32::from_le_bytes(bytes[ioff..ioff + 4].try_into().unwrap());
                    if wide {
                        v as i64
                    } else {
                        // 32-bit mov zero-extends; keep 32-bit math by
                        // emitting 32-bit mov + 32-bit lea below.
                        v as i64
                    }
                }
                8 => i64::from_le_bytes(bytes[ioff..ioff + 8].try_into().unwrap()),
                _ => return Err(err("unsupported MOV immediate width")),
            };
            let mut s = Vec::new();
            if ilen == 8 {
                // movabs dst, imm - k2 (full 64-bit residue), then
                // lea dst, [dst + k2]. Only k2 must fit a displacement;
                // the snippet rescan (with constant rotation across
                // nudge variants) ensures the residue is pattern-free.
                let k2 = SPLIT_CANDIDATES[variant % SPLIT_CANDIDATES.len()];
                let k1 = imm.wrapping_sub(k2 as i64);
                s.push(0x48);
                s.push(0xb8 + dst);
                s.extend_from_slice(&k1.to_le_bytes());
                s.push(0x48);
                s.push(0x8d);
                s.push(0x80 | (dst << 3) | dst);
                s.extend_from_slice(&k2.to_le_bytes());
            } else {
                let (k1, k2) = split_imm(imm, variant).ok_or_else(|| err("unsplittable"))?;
                mov_imm(&mut s, dst, k1, wide);
                if wide {
                    s.push(0x48);
                } // 32-bit lea keeps the zero-extension semantics.
                s.push(0x8d);
                s.push(0x80 | (dst << 3) | dst);
                s.extend_from_slice(&k2.to_le_bytes());
            }
            Ok(s)
        }
        // Group-81 ALU r/m, imm32 (mod=11 register forms) and the
        // accumulator short forms: build the immediate in a scratch
        // register (mov+add), then apply the register-register ALU form
        // twice-equivalent: `<op> r/m, scratch`.
        (1, 0x81)
        | (1, 0x05)
        | (1, 0x0d)
        | (1, 0x15)
        | (1, 0x1d)
        | (1, 0x25)
        | (1, 0x2d)
        | (1, 0x35)
        | (1, 0x3d)
        | (1, 0xa9)
        | (1, 0xf7) => {
            let (digit, dst) = if op == 0x81 || op == 0xf7 {
                let m = insn.modrm_off.ok_or_else(|| err("no ModRM"))?;
                if bytes[m] >> 6 != 0b11 {
                    return Err(err("ALU imm to memory not supported"));
                }
                let digit = (bytes[m] >> 3) & 7;
                if op == 0xf7 && digit > 1 {
                    return Err(err("F7 non-TEST form has no immediate"));
                }
                (
                    (if op == 0xf7 { 8 } else { digit }),
                    (bytes[m] & 7) | rex.map_or(0, |v| (v & 1) << 3),
                )
            } else if op == 0xa9 {
                (8, 0) // TEST eax.
            } else {
                ((op >> 3) & 7, 0) // Accumulator forms encode the digit.
            };
            if dst >= 8 {
                return Err(err("ALU split on r8-r15 not supported"));
            }
            if ilen != 4 {
                return Err(err("unsupported ALU immediate width"));
            }
            let imm = i32::from_le_bytes(bytes[ioff..ioff + 4].try_into().unwrap());
            let (k1, k2) = split_imm(imm as i64, variant).ok_or_else(|| err("unsplittable"))?;
            let scratch = pick_scratch(&[dst]);
            let mut s = Vec::new();
            push_reg(&mut s, scratch);
            mov_imm(&mut s, scratch, k1, wide);
            add_imm(&mut s, scratch, k2, wide);
            // <op> dst, scratch.
            if wide {
                s.push(0x48);
            }
            if digit == 8 {
                s.push(0x85); // TEST r/m, r.
            } else {
                s.push(alu_rm_r_opcode(digit));
            }
            s.push(0xc0 | (scratch << 3) | dst);
            pop_reg(&mut s, scratch);
            Ok(s)
        }
        // IMUL r, r/m, imm32 (69 /r): build the factor in a scratch
        // register, multiply via the two-operand form (0F AF), move into
        // the destination.
        (1, 0x69) => {
            let m = insn.modrm_off.ok_or_else(|| err("no ModRM"))?;
            let modrm = bytes[m];
            let dst = ((modrm >> 3) & 7) | rex.map_or(0, |v| ((v >> 2) & 1) << 3);
            if dst >= 8 {
                return Err(err("IMUL split to r8-r15 not supported"));
            }
            if ilen != 4 {
                return Err(err("unsupported IMUL immediate width"));
            }
            let imm = i32::from_le_bytes(bytes[ioff..ioff + 4].try_into().unwrap());
            let (k1, k2) = split_imm(imm as i64, variant).ok_or_else(|| err("unsplittable"))?;
            let scratch = pick_scratch(&referenced_regs(bytes, insn));
            let mut s = Vec::new();
            push_reg(&mut s, scratch);
            mov_imm(&mut s, scratch, k1, wide);
            add_imm(&mut s, scratch, k2, wide);
            // imul scratch, r/m : REX(.W|.B as original) 0F AF /r with
            // reg=scratch, rm copied from the original (including memory
            // forms with SIB/disp).
            let mut rex_new = 0x40 | (wide as u8) << 3 | rex.map_or(0, |v| v & 0x03); // Keep X and B for the rm.
            if scratch >= 8 {
                rex_new |= 0x04;
            }
            if rex_new != 0x40 || rex.is_some() {
                s.push(rex_new);
            }
            s.push(0x0f);
            s.push(0xaf);
            // ModRM with reg=scratch, rest as original.
            s.push((modrm & 0xc7) | ((scratch & 7) << 3));
            // Copy SIB + displacement verbatim.
            if let Some(so) = insn.sib_off {
                s.push(bytes[so]);
            }
            if let Some((doff, dlen)) = insn.disp {
                s.extend_from_slice(&bytes[doff..doff + dlen]);
            }
            // mov dst, scratch (width-matched).
            if wide {
                s.push(0x48);
            }
            s.push(0x89);
            s.push(0xc0 | ((scratch & 7) << 3) | dst);
            pop_reg(&mut s, scratch);
            Ok(s)
        }
        _ => Err(err("immediate form without a split strategy")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CODE_BASE: u64 = 0x40_0000;
    const PAGE_BASE: u64 = 0x1000;

    fn rewrite(code: &[u8]) -> RewriteOutput {
        let out = rewrite_code(code, CODE_BASE, PAGE_BASE).unwrap();
        assert!(
            find_occurrences(&out.code).is_empty(),
            "patched code still contains the pattern"
        );
        assert!(
            find_occurrences(&out.rewrite_page).is_empty(),
            "rewrite page contains the pattern"
        );
        assert_eq!(out.code.len(), code.len(), "code size must not change");
        out
    }

    #[test]
    fn c1_literal_vmfunc_becomes_nops() {
        let code = [0x90, 0x0f, 0x01, 0xd4, 0xc3];
        let out = rewrite(&code);
        assert_eq!(out.code, [0x90, 0x90, 0x90, 0x90, 0xc3]);
        assert_eq!(out.in_place, 1);
        assert_eq!(out.stubs, 0);
    }

    #[test]
    fn c2_spanning_is_relocated() {
        // mov eax, 0x0F000000; add esp, edx; ret; plus padding so the
        // region has room.
        let code = [0xb8, 0x00, 0x00, 0x00, 0x0f, 0x01, 0xd4, 0xc3, 0x90];
        let out = rewrite(&code);
        assert_eq!(out.stubs, 1);
        // The site starts with a JMP rel32 into the rewrite page.
        assert_eq!(out.code[0], 0xe9);
        // The snippet contains the original first opcode and a NOP
        // separator before the jump back.
        assert!(out.rewrite_page.contains(&0xb8));
    }

    #[test]
    fn c3_immediate_alu_split() {
        // add eax, 0x00D4010F (pattern in imm32) then ret + pad.
        let code = [0x05, 0x0f, 0x01, 0xd4, 0x00, 0xc3, 0x90, 0x90];
        let out = rewrite(&code);
        assert_eq!(out.stubs, 1);
    }

    #[test]
    fn c3_imul_immediate() {
        // imul ecx, edi, 0x00D4010F : 69 CF 0F 01 D4 00.
        let code = [0x69, 0xcf, 0x0f, 0x01, 0xd4, 0x00, 0xc3, 0x90];
        let out = rewrite(&code);
        assert_eq!(out.stubs, 1);
    }

    #[test]
    fn c3_modrm_scratch() {
        // imul ecx, [rdi], 0x0000D401 : 69 0F 01 D4 00 00 (ModRM=0x0F).
        let code = [0x69, 0x0f, 0x01, 0xd4, 0x00, 0x00, 0xc3, 0x90];
        let out = rewrite(&code);
        assert_eq!(out.stubs, 1);
        // Snippet routes through a scratch register: starts with PUSH.
        assert!(out.rewrite_page.iter().any(|&b| (0x50..=0x53).contains(&b)));
    }

    #[test]
    fn c3_sib_scratch() {
        // lea ebx, [rdi + rcx + 0xD401] : 8D 9C 0F 01 D4 00 00.
        let code = [0x8d, 0x9c, 0x0f, 0x01, 0xd4, 0x00, 0x00, 0xc3];
        let out = rewrite(&code);
        assert_eq!(out.stubs, 1);
    }

    #[test]
    fn c3_displacement_split() {
        // add ebx, [rax + 0x00D4010F] : 03 98 0F 01 D4 00.
        let code = [0x03, 0x98, 0x0f, 0x01, 0xd4, 0x00, 0xc3, 0x90];
        let out = rewrite(&code);
        assert_eq!(out.stubs, 1);
    }

    #[test]
    fn c3_jump_like_immediate() {
        // call rel32 whose offset bytes contain the pattern:
        // E8 0F 01 D4 00 targets +0xD4010F... relocation refixes it.
        let code = [0xe8, 0x0f, 0x01, 0xd4, 0x00, 0xc3, 0x90, 0x90];
        let out = rewrite(&code);
        assert_eq!(out.stubs, 1);
        // The relocated call must target the same absolute address:
        // original target = base + 5 + 0x00D4010F.
        let target = CODE_BASE + 5 + 0x00d4_010f;
        // Find the call in the snippet (first byte E8 after any NOP
        // nudges).
        let pos = out.rewrite_page.iter().position(|&b| b == 0xe8).unwrap();
        let rel = i32::from_le_bytes(out.rewrite_page[pos + 1..pos + 5].try_into().unwrap()) as i64;
        let call_addr = PAGE_BASE + pos as u64;
        assert_eq!(call_addr.wrapping_add(5).wrapping_add(rel as u64), target);
    }

    #[test]
    fn clean_code_is_untouched() {
        let code = [0x55, 0x48, 0x89, 0xe5, 0xc9, 0xc3];
        let out = rewrite_code(&code, CODE_BASE, PAGE_BASE).unwrap();
        assert_eq!(out.code, code);
        assert!(out.rewrite_page.is_empty());
    }

    #[test]
    fn mov_imm64_with_pattern() {
        // movabs rax, 0x1122_D401_0F33_4455 (LE bytes contain 0F 01 D4).
        let mut code = vec![0x48, 0xb8];
        code.extend_from_slice(&0x1122_d401_0f33_4455u64.to_le_bytes());
        code.push(0xc3);
        let out = rewrite(&code);
        assert_eq!(out.stubs, 1);
    }

    #[test]
    fn multiple_occurrences_all_fixed() {
        let mut code = Vec::new();
        code.extend_from_slice(&[0x0f, 0x01, 0xd4]); // C1.
        code.extend_from_slice(&[0x05, 0x0f, 0x01, 0xd4, 0x00]); // C3 imm.
        code.extend_from_slice(&[0xb8, 0x00, 0x00, 0x00, 0x0f]); // C2 lead.
        code.extend_from_slice(&[0x01, 0xd4]); // add esp, edx.
        code.push(0xc3);
        code.resize(code.len() + 4, 0x90);
        let out = rewrite(&code);
        assert_eq!(out.in_place, 1);
        assert!(out.stubs >= 2);
    }
}
