//! End-to-end rewriting correctness: rewritten code must be pattern-free
//! AND functionally equivalent to the original under the interpreter.

use std::collections::HashMap;

use proptest::prelude::*;
use sb_rewriter::{
    corpus,
    interp::{run, Program, State},
    rewrite::rewrite_code,
    scan::find_occurrences,
};

const CODE_BASE: u64 = 0x40_0000;
const PAGE_BASE: u64 = 0x1000;

fn rewrite_checked(code: &[u8]) -> sb_rewriter::rewrite::RewriteOutput {
    let out = rewrite_code(code, CODE_BASE, PAGE_BASE).unwrap();
    assert!(find_occurrences(&out.code).is_empty());
    assert!(find_occurrences(&out.rewrite_page).is_empty());
    out
}

/// Rewrites `code`, runs the original and the rewrite from the same
/// initial state, and asserts identical final registers, memory, and
/// `VMFUNC` count. `setup` initializes both copies of the state (e.g.
/// pointing `rdi` at a buffer). Flags are compared only when `flags` is
/// true (not in undefined-after-IMUL cases).
fn equivalent(code: &[u8], setup: impl Fn(&mut State), flags: bool) {
    let out = rewrite_checked(code);
    let execute = |code: &[u8], page: &[u8]| {
        let mut st = State::default();
        setup(&mut st);
        let program = Program {
            code,
            code_base: CODE_BASE,
            page,
            page_base: PAGE_BASE,
        };
        run(program, &mut st, 10_000).map(|()| st)
    };
    let a = execute(code, &[]).expect("original program must run");
    let b = execute(&out.code, &out.rewrite_page).expect("rewritten program must run");
    assert_eq!(a.regs, b.regs, "register state diverged");
    // Bytes below the (restored) stack pointer are dead: the rewritten
    // code's PUSH/POP scratch traffic legitimately differs there.
    let live = |m: &HashMap<u64, u8>| -> HashMap<u64, u8> {
        m.iter()
            .filter(|(addr, _)| !(0x7ffe_0000..0x7fff_0000).contains(*addr))
            .map(|(a, v)| (*a, *v))
            .collect()
    };
    assert_eq!(live(&a.mem), live(&b.mem), "memory state diverged");
    assert_eq!(
        a.vmfunc_log.len(),
        b.vmfunc_log.len(),
        "VMFUNC execution count diverged"
    );
    if flags {
        assert_eq!((a.zf, a.sf), (b.zf, b.sf), "flags diverged");
    }
}

#[test]
fn alu_immediate_split_is_equivalent() {
    // add eax, 0x00D4010F; ret (+pad).
    let code = [0x05, 0x0f, 0x01, 0xd4, 0x00, 0xc3, 0x90, 0x90];
    equivalent(&code, |s| s.regs[0] = 123456789, true);
    equivalent(&code, |s| s.regs[0] = u64::MAX, true);
}

#[test]
fn xor_and_sub_immediate_splits_are_equivalent() {
    // xor eax, 0x00D4010F (35 imm32).
    let code = [0x35, 0x0f, 0x01, 0xd4, 0x00, 0xc3, 0x90, 0x90];
    equivalent(&code, |s| s.regs[0] = 0xdeadbeef, true);
    // sub ecx, 0x00D4010F (81 /5).
    let code = [0x81, 0xe9, 0x0f, 0x01, 0xd4, 0x00, 0xc3, 0x90];
    equivalent(&code, |s| s.regs[1] = 0x1_0000_0000 - 5, true);
}

#[test]
fn cmp_immediate_preserves_flags() {
    // cmp edx, 0x00D4010F (81 /7) — the replacement must leave the same
    // ZF/SF because a branch may follow.
    let code = [0x81, 0xfa, 0x0f, 0x01, 0xd4, 0x00, 0xc3, 0x90];
    equivalent(&code, |s| s.regs[2] = 0x00d4_010f, true);
    equivalent(&code, |s| s.regs[2] = 0, true);
    equivalent(&code, |s| s.regs[2] = 0xffff_ffff, true);
}

#[test]
fn imul_immediate_split_is_equivalent() {
    // imul ecx, edi, 0x00D4010F.
    let code = [0x69, 0xcf, 0x0f, 0x01, 0xd4, 0x00, 0xc3, 0x90];
    equivalent(&code, |s| s.regs[7] = 3, false);
    equivalent(&code, |s| s.regs[7] = 0xffff_fff1, false);
    // Destination == source register: imul edi, edi, imm.
    let code = [0x69, 0xff, 0x0f, 0x01, 0xd4, 0x00, 0xc3, 0x90];
    equivalent(&code, |s| s.regs[7] = 7, false);
}

#[test]
fn imul_wide_is_equivalent() {
    // imul rcx, rdi, 0x00D4010F (REX.W).
    let code = [0x48, 0x69, 0xcf, 0x0f, 0x01, 0xd4, 0x00, 0xc3];
    equivalent(&code, |s| s.regs[7] = 0x1_0000_0001, false);
}

#[test]
fn modrm_scratch_is_equivalent() {
    // imul ecx, [rdi], 0x0000D401 — ModRM = 0x0F.
    let code = [0x69, 0x0f, 0x01, 0xd4, 0x00, 0x00, 0xc3, 0x90];
    equivalent(
        &code,
        |s| {
            s.regs[7] = 0x9000;
            for (i, b) in 11u32.to_le_bytes().iter().enumerate() {
                s.mem.insert(0x9000 + i as u64, *b);
            }
        },
        false,
    );
}

#[test]
fn sib_scratch_is_equivalent() {
    // lea ebx, [rdi + rcx + 0xD401] : 8D 9C 0F 01 D4 00 00 (SIB=0x0F).
    let code = [0x8d, 0x9c, 0x0f, 0x01, 0xd4, 0x00, 0x00, 0xc3];
    equivalent(
        &code,
        |s| {
            s.regs[7] = 0x1234;
            s.regs[1] = 0x10;
        },
        true,
    );
}

#[test]
fn displacement_split_is_equivalent() {
    // add ebx, [rax + 0x00D4010F].
    let code = [0x03, 0x98, 0x0f, 0x01, 0xd4, 0x00, 0xc3, 0x90];
    equivalent(
        &code,
        |s| {
            s.regs[0] = 0x100;
            s.regs[3] = 5;
            let addr = 0x100 + 0x00d4_010f;
            for (i, b) in 21u32.to_le_bytes().iter().enumerate() {
                s.mem.insert(addr + i as u64, *b);
            }
        },
        true,
    );
}

#[test]
fn spanning_relocation_is_equivalent() {
    // mov eax, 0x0F000000; add esp, edx — pattern spans them. Use ebx
    // instead of esp to keep the stack sane: add ebx, edx = 01 D3...
    // That changes the bytes; keep add esp, edx (01 D4) but with edx = 0
    // so rsp is unchanged.
    let code = [0xb8, 0x00, 0x00, 0x00, 0x0f, 0x01, 0xd4, 0xc3, 0x90];
    equivalent(&code, |s| s.regs[2] = 0, true);
}

#[test]
fn literal_vmfunc_no_longer_executes() {
    let code = [0x0f, 0x01, 0xd4, 0xc3];
    let out = rewrite_checked(&code);
    let mut st = State::default();
    run(
        Program {
            code: &out.code,
            code_base: CODE_BASE,
            page: &out.rewrite_page,
            page_base: PAGE_BASE,
        },
        &mut st,
        1000,
    )
    .unwrap();
    assert!(st.vmfunc_log.is_empty(), "VMFUNC must be scrubbed");
}

#[test]
fn mov_imm64_split_is_equivalent() {
    let mut code = vec![0x48, 0xb8];
    code.extend_from_slice(&0x1122_d401_0f33_4455u64.to_le_bytes());
    code.push(0xc3);
    code.extend_from_slice(&[0x90; 4]);
    equivalent(&code, |_| {}, true);
}

#[test]
fn branch_with_pattern_offset_reaches_same_target() {
    // jmp rel32 = 0x00D4010F would land outside our buffer; instead use a
    // jz whose rel32 contains the pattern partially... construct a jnz
    // backwards: place target code, then the branch. Simplest verified
    // case: call-style handled in unit tests; here check a jmp rel32 with
    // pattern bytes that stays in-buffer is impossible (target would be
    // ~13 MiB away), so assert the rewriter still produces pattern-free
    // code and the *static* target math is preserved (done in unit
    // tests). Run the C2 path with a branch in the relocated region:
    // cmp eax, 0x0F; jz +2; nop; nop; ret — the 0x0F ends the cmp imm and
    // 01 D4 does not follow, so craft: mov ebx, 0x0F000000 (imm ends 0F)
    // then add esp,edx (01 D4) spanning, followed by jz.
    let code = [
        0xbb, 0x00, 0x00, 0x00, 0x0f, // mov ebx, 0x0F000000
        0x01, 0xd4, // add esp, edx (edx=0)
        0x31, 0xc0, // xor eax, eax (sets ZF)
        0x74, 0x02, // jz +2
        0xb8, 0x01, // (skipped, partial mov…)
        0x90, 0x90, // landing pad
        0xc3, 0x90, 0x90,
    ];
    equivalent(&code, |s| s.regs[2] = 0, true);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any synthetic corpus rewrites to pattern-free code of unchanged
    /// size.
    #[test]
    fn corpus_rewrites_clean(seed in 1u64..5000, inject in 0u64..60) {
        let code = corpus::generate(seed, 2048, inject);
        let out = rewrite_code(&code, CODE_BASE, PAGE_BASE).unwrap();
        prop_assert!(find_occurrences(&out.code).is_empty());
        prop_assert!(find_occurrences(&out.rewrite_page).is_empty());
        prop_assert_eq!(out.code.len(), code.len());
    }

    /// Rewritten synthetic programs compute the same result.
    #[test]
    fn corpus_rewrites_equivalent(seed in 1u64..2000, inject in 0u64..60) {
        let code = corpus::generate(seed, 512, inject);
        let out = rewrite_code(&code, CODE_BASE, PAGE_BASE).unwrap();
        let setup = |s: &mut State| {
            s.regs[0] = 0x1111;
            s.regs[1] = 0x2222;
            s.regs[2] = 0x3333;
            s.regs[3] = 0x4444;
        };
        let mut a = State::default();
        setup(&mut a);
        run(
            Program {
                code: &code,
                code_base: CODE_BASE,
                page: &[],
                page_base: PAGE_BASE,
            },
            &mut a,
            100_000,
        )
        .unwrap();
        let mut b = State::default();
        setup(&mut b);
        run(
            Program {
                code: &out.code,
                code_base: CODE_BASE,
                page: &out.rewrite_page,
                page_base: PAGE_BASE,
            },
            &mut b,
            100_000,
        )
        .unwrap();
        prop_assert_eq!(a.regs, b.regs);
        prop_assert_eq!(a.vmfunc_log.len(), b.vmfunc_log.len());
    }
}
