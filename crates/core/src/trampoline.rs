//! The trampoline code page.
//!
//! The trampoline is the one piece of code legally containing a `VMFUNC`
//! (§4.4). The Subkernel maps this page executable (never writable) into
//! every registered process at [`sb_microkernel::layout::TRAMPOLINE_BASE`];
//! the rewriter deliberately skips it. We carry real x86-64 bytes so that
//! (a) the simulated instruction fetches walk a real code footprint and
//! (b) scanning the page with [`sb_rewriter`] finds exactly the one legal
//! `VMFUNC` at [`VMFUNC_OFFSET`].

/// Offset of the call-direction `VMFUNC` within the trampoline page.
pub const VMFUNC_OFFSET: usize = 38;

/// Offset of the return-direction `VMFUNC`.
pub const VMFUNC_RET_OFFSET: usize = 78;

/// Bytes of trampoline code fetched per one-way transit.
pub const TRAMPOLINE_FETCH: usize = 128;

/// Builds the 4 KiB trampoline page image.
///
/// Layout (hand-assembled, decodes under [`sb_rewriter::insn::decode`]):
/// save caller-saved registers, load the EPTP index, `VMFUNC`, install the
/// server stack from the per-connection slot, indirect-call the registered
/// handler; then the mirror return sequence with the second `VMFUNC`.
pub fn page_image() -> Vec<u8> {
    let mut p = Vec::with_capacity(4096);
    // --- direct_server_call entry ---
    // push rbx; push rbp; push r12..r15 (callee-saved save).
    p.extend_from_slice(&[0x53, 0x55]);
    p.extend_from_slice(&[0x41, 0x54, 0x41, 0x55, 0x41, 0x56, 0x41, 0x57]);
    // mov rbp, rsp (remember the client stack).
    p.extend_from_slice(&[0x48, 0x89, 0xe5]);
    // mov rax, 0 ; mov rcx, <slot> (VMFUNC leaf in eax, index in ecx).
    p.extend_from_slice(&[0x48, 0xc7, 0xc0, 0x00, 0x00, 0x00, 0x00]);
    p.extend_from_slice(&[0x48, 0xc7, 0xc1, 0x01, 0x00, 0x00, 0x00]);
    // mov rdx, [rdi+8]; mov rsi, [rdi] (key + args from the descriptor).
    p.extend_from_slice(&[0x48, 0x8b, 0x57, 0x08]);
    p.extend_from_slice(&[0x48, 0x8b, 0x37]);
    // 7 bytes of NOP padding to place VMFUNC at VMFUNC_OFFSET.
    while p.len() < VMFUNC_OFFSET {
        p.push(0x90);
    }
    debug_assert_eq!(p.len(), VMFUNC_OFFSET);
    // vmfunc — the address-space switch.
    p.extend_from_slice(&[0x0f, 0x01, 0xd4]);
    // mov rsp, [rip+...] — install the server stack (slot-indexed).
    p.extend_from_slice(&[0x48, 0x8b, 0x25, 0x00, 0x10, 0x00, 0x00]);
    // call [rip+...] — invoke the registered handler via the function
    // list.
    p.extend_from_slice(&[0xff, 0x15, 0x00, 0x20, 0x00, 0x00]);
    // --- return path ---
    // mov rsp, rbp (restore client stack pointer placeholder).
    p.extend_from_slice(&[0x48, 0x89, 0xec]);
    // xor eax, eax; mov ecx, 0 (EPTP index 0 = caller's own EPT).
    p.extend_from_slice(&[0x31, 0xc0]);
    p.extend_from_slice(&[0xb9, 0x00, 0x00, 0x00, 0x00]);
    while p.len() < VMFUNC_RET_OFFSET {
        p.push(0x90);
    }
    debug_assert_eq!(p.len(), VMFUNC_RET_OFFSET);
    p.extend_from_slice(&[0x0f, 0x01, 0xd4]);
    // pop r15..r12; pop rbp; pop rbx; ret.
    p.extend_from_slice(&[0x41, 0x5f, 0x41, 0x5e, 0x41, 0x5d, 0x41, 0x5c]);
    p.extend_from_slice(&[0x5d, 0x5b, 0xc3]);
    p.resize(4096, 0x90);
    p
}

#[cfg(test)]
mod tests {
    use sb_rewriter::scan::{classify, OverlapKind};

    use super::*;

    #[test]
    fn page_is_one_page() {
        assert_eq!(page_image().len(), 4096);
    }

    #[test]
    fn contains_exactly_two_legal_vmfuncs() {
        let page = page_image();
        let occ = classify(&page);
        assert_eq!(occ.len(), 2, "call + return VMFUNC");
        assert!(occ.iter().all(|o| o.kind == OverlapKind::Vmfunc));
        assert_eq!(occ[0].offset, VMFUNC_OFFSET);
        assert_eq!(occ[1].offset, VMFUNC_RET_OFFSET);
    }

    #[test]
    fn every_byte_decodes() {
        // The trampoline must be walkable by the scanner: no opaque bytes.
        let page = page_image();
        for (off, insn) in sb_rewriter::scan::instruction_boundaries(&page[..96]) {
            assert!(insn.is_some(), "undecodable trampoline byte at {off}");
        }
    }
}
