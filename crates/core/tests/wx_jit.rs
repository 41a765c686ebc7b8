//! §9 W⊕X dynamic code: JIT updates are rescanned before execute is
//! granted.

use sb_mem::{Gva, PteFlags, PAGE_SIZE};
use sb_microkernel::{layout, Kernel, KernelConfig, Personality};
use sb_rewriter::scan::find_occurrences;
use skybridge::{attack, SkyBridge};

fn setup() -> (Kernel, SkyBridge, usize) {
    let mut k = Kernel::boot(KernelConfig::with_rootkernel(Personality::sel4()));
    let mut sb = SkyBridge::default();
    let pid = k.create_process(&sb_rewriter::corpus::generate(1, 4 * 4096, 0));
    let tid = k.create_thread(pid, 0);
    k.run_thread(tid);
    sb.register_process(&mut k, pid).unwrap();
    (k, sb, pid)
}

fn page_flags(k: &Kernel, pid: usize, gva: Gva) -> PteFlags {
    let asp = k.processes[pid].asp;
    asp.translate_setup(&k.mem, gva).unwrap().1
}

#[test]
fn jit_begin_flips_writable_nonexecutable() {
    let (mut k, mut sb, pid) = setup();
    let page = Gva(layout::CODE_BASE.0 + PAGE_SIZE);
    assert!(page_flags(&k, pid, page).exec);
    let update = sb.jit_begin(&mut k, pid, page, 1);
    let f = page_flags(&k, pid, page);
    assert!(f.write && !f.exec, "in-flight JIT pages must be W, not X");
    // Commit restores W^X.
    sb.jit_commit(&mut k, update, &[0x90; 64]).unwrap();
    let f = page_flags(&k, pid, page);
    assert!(!f.write && f.exec);
}

#[test]
fn clean_jit_code_passes_through() {
    let (mut k, mut sb, pid) = setup();
    let page = Gva(layout::CODE_BASE.0 + PAGE_SIZE);
    let code = sb_rewriter::corpus::generate(9, 2048, 0);
    let update = sb.jit_begin(&mut k, pid, page, 1);
    let scrubbed = sb.jit_commit(&mut k, update, &code).unwrap();
    assert_eq!(scrubbed, 0);
    // The emitted bytes are in place.
    let image = attack::dump_code(&k, pid);
    assert_eq!(
        &image[PAGE_SIZE as usize..PAGE_SIZE as usize + code.len()],
        &code[..]
    );
}

#[test]
fn jit_emitted_vmfunc_is_scrubbed_before_execute() {
    let (mut k, mut sb, pid) = setup();
    let page = Gva(layout::CODE_BASE.0 + PAGE_SIZE);
    // A malicious (or unlucky) JIT emits a literal VMFUNC plus an
    // immediate-embedded pattern.
    let mut code = vec![0x90u8; 32];
    code.extend_from_slice(&[0x0f, 0x01, 0xd4]); // vmfunc.
    code.extend_from_slice(&[0x05, 0x0f, 0x01, 0xd4, 0x00]); // add eax, pat.
    code.push(0xc3);
    code.resize(256, 0x90);
    assert!(!find_occurrences(&code).is_empty());
    let update = sb.jit_begin(&mut k, pid, page, 1);
    let scrubbed = sb.jit_commit(&mut k, update, &code).unwrap();
    assert!(scrubbed >= 2, "both occurrences must be found");
    let image = attack::dump_code(&k, pid);
    assert!(
        find_occurrences(&image).is_empty(),
        "no pattern may survive into an executable page"
    );
    // The page is executable again.
    assert!(page_flags(&k, pid, page).exec);
}

#[test]
fn boundary_spanning_pattern_is_caught() {
    let (mut k, mut sb, pid) = setup();
    // First, place a benign instruction ending in 0x0F at the end of page
    // 1 via one JIT update…
    let p1 = Gva(layout::CODE_BASE.0 + PAGE_SIZE);
    let mut tail = vec![0x90u8; PAGE_SIZE as usize];
    // mov eax, 0x0F000000 ends the page: last byte 0x0F.
    tail.truncate(PAGE_SIZE as usize - 5);
    tail.extend_from_slice(&[0xb8, 0x00, 0x00, 0x00, 0x0f]);
    let u = sb.jit_begin(&mut k, pid, p1, 1);
    sb.jit_commit(&mut k, u, &tail).unwrap();
    // …then JIT page 2 beginning with 01 D4 (add esp, edx): the pattern
    // spans the page boundary and only the overlap window can see it.
    let p2 = Gva(layout::CODE_BASE.0 + 2 * PAGE_SIZE);
    let mut head = vec![0x01u8, 0xd4, 0xc3];
    head.resize(64, 0x90);
    let u = sb.jit_begin(&mut k, pid, p2, 1);
    let scrubbed = sb.jit_commit(&mut k, u, &head).unwrap();
    assert!(scrubbed >= 1, "the spanning occurrence must be detected");
    let image = attack::dump_code(&k, pid);
    assert!(find_occurrences(&image).is_empty());
}
