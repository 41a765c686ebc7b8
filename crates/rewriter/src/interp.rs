//! A mini x86-64 interpreter for equivalence checking.
//!
//! "Functionally-equivalent instructions" (§5) is a testable claim: this
//! module executes the instruction subset the rewriter emits — moves, the
//! 81-group ALU, `IMUL`, `LEA`, `PUSH`/`POP`, branches, and `VMFUNC`
//! itself (logged, not executed) — so tests can run original and rewritten
//! code on the same inputs and compare final machine state.

use std::collections::HashMap;

use crate::insn::{decode, is_vmfunc, Insn};

/// Architectural state of the interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// General-purpose registers, rax..r15.
    pub regs: [u64; 16],
    /// Byte-granular memory.
    pub mem: HashMap<u64, u8>,
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Instruction pointer.
    pub rip: u64,
    /// Addresses at which `VMFUNC` executed.
    pub vmfunc_log: Vec<u64>,
}

/// Register numbers.
pub const RSP: usize = 4;

/// The sentinel return address that halts execution.
pub const HALT: u64 = 0xdead_0000_dead_0000;

impl State {
    fn read_mem(&self, addr: u64, n: usize) -> u64 {
        let mut v = 0u64;
        for i in 0..n {
            v |= (*self.mem.get(&(addr + i as u64)).unwrap_or(&0) as u64) << (8 * i);
        }
        v
    }

    fn write_mem(&mut self, addr: u64, v: u64, n: usize) {
        for i in 0..n {
            self.mem.insert(addr + i as u64, (v >> (8 * i)) as u8);
        }
    }

    fn push(&mut self, v: u64) {
        self.regs[RSP] -= 8;
        let sp = self.regs[RSP];
        self.write_mem(sp, v, 8);
    }

    fn pop(&mut self) -> u64 {
        let sp = self.regs[RSP];
        let v = self.read_mem(sp, 8);
        self.regs[RSP] += 8;
        v
    }
}

/// Fresh state with the stack pointer placed in scratch memory.
impl Default for State {
    fn default() -> Self {
        let mut s = State {
            regs: [0; 16],
            mem: HashMap::new(),
            zf: false,
            sf: false,
            rip: 0,
            vmfunc_log: Vec::new(),
        };
        s.regs[RSP] = 0x7fff_0000;
        s
    }
}

/// Interpreter failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The instruction at `rip` is outside both code regions.
    OutOfBounds(u64),
    /// An instruction form the interpreter does not model.
    Unsupported(u64),
    /// The step budget ran out (likely a loop).
    StepLimit,
}

/// Code mapped at two regions: the program and the rewrite page.
#[derive(Debug, Clone, Copy)]
pub struct Program<'a> {
    /// Program bytes.
    pub code: &'a [u8],
    /// Virtual base of `code`.
    pub code_base: u64,
    /// Rewrite-page bytes (may be empty).
    pub page: &'a [u8],
    /// Virtual base of `page`.
    pub page_base: u64,
}

impl<'a> Program<'a> {
    fn fetch(&self, rip: u64) -> Option<&'a [u8]> {
        if rip >= self.code_base && rip < self.code_base + self.code.len() as u64 {
            Some(&self.code[(rip - self.code_base) as usize..])
        } else if rip >= self.page_base && rip < self.page_base + self.page.len() as u64 {
            Some(&self.page[(rip - self.page_base) as usize..])
        } else {
            None
        }
    }
}

fn rex_of(bytes: &[u8], insn: &Insn) -> u8 {
    if insn.opcode_off > 0 {
        let b = bytes[insn.opcode_off - 1];
        if (0x40..=0x4f).contains(&b) {
            return b;
        }
    }
    0
}

/// Where the ModRM rm operand lives.
enum Loc {
    Reg(usize),
    Mem(u64),
}

fn resolve_rm(bytes: &[u8], insn: &Insn, st: &State, rip_after: u64) -> Loc {
    let rex = rex_of(bytes, insn);
    let b = (rex & 1) as usize;
    let x = ((rex >> 1) & 1) as usize;
    let m = insn.modrm_off.expect("rm operand without ModRM");
    let modrm = bytes[m];
    let mode = modrm >> 6;
    let rm = (modrm & 7) as usize;
    if mode == 0b11 {
        return Loc::Reg(rm | (b << 3));
    }
    let disp = match insn.disp {
        Some((off, 1)) => bytes[off] as i8 as i64,
        Some((off, 4)) => i32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as i64,
        None => 0,
        _ => 0,
    };
    if mode == 0b00 && rm == 0b101 {
        // RIP-relative.
        return Loc::Mem(rip_after.wrapping_add(disp as u64));
    }
    let base_val = if rm == 0b100 {
        let sib = bytes[insn.sib_off.expect("SIB expected")];
        let scale = 1u64 << (sib >> 6);
        let index = ((sib >> 3) & 7) as usize | (x << 3);
        let base = (sib & 7) as usize | (b << 3);
        let mut ea = if (sib & 7) == 0b101 && mode == 0b00 {
            0 // disp32-only base.
        } else {
            st.regs[base]
        };
        if index != 0b100 {
            // index=rsp means "no index".
            ea = ea.wrapping_add(st.regs[index].wrapping_mul(scale));
        }
        ea
    } else {
        st.regs[rm | (b << 3)]
    };
    Loc::Mem(base_val.wrapping_add(disp as u64))
}

fn reg_field(bytes: &[u8], insn: &Insn) -> usize {
    let rex = rex_of(bytes, insn);
    let r = ((rex >> 2) & 1) as usize;
    let m = insn.modrm_off.expect("reg operand without ModRM");
    (((bytes[m] >> 3) & 7) as usize) | (r << 3)
}

fn op_width(bytes: &[u8], insn: &Insn) -> usize {
    if rex_of(bytes, insn) & 0x08 != 0 {
        8
    } else {
        4
    }
}

fn read_loc(st: &State, loc: &Loc, n: usize) -> u64 {
    match loc {
        Loc::Reg(r) => {
            if n == 8 {
                st.regs[*r]
            } else {
                st.regs[*r] & 0xffff_ffff
            }
        }
        Loc::Mem(a) => st.read_mem(*a, n),
    }
}

fn write_loc(st: &mut State, loc: &Loc, v: u64, n: usize) {
    match loc {
        Loc::Reg(r) => {
            // 32-bit writes zero-extend.
            st.regs[*r] = if n == 8 { v } else { v & 0xffff_ffff };
        }
        Loc::Mem(a) => st.write_mem(*a, v, n),
    }
}

fn set_flags(st: &mut State, result: u64, n: usize) {
    let masked = if n == 8 { result } else { result & 0xffff_ffff };
    st.zf = masked == 0;
    st.sf = (masked >> (n * 8 - 1)) & 1 == 1;
}

fn alu(op: u8, a: u64, b: u64) -> u64 {
    match op {
        0 => a.wrapping_add(b),
        1 => a | b,
        4 => a & b,
        5 => a.wrapping_sub(b),
        6 => a ^ b,
        7 => a.wrapping_sub(b), // CMP (result discarded by caller).
        8 => a & b,             // TEST.
        _ => unreachable!("unsupported ALU digit {op}"),
    }
}

/// Runs the program from `code_base` until `RET` pops the [`HALT`]
/// sentinel.
pub fn run(prog: Program<'_>, st: &mut State, max_steps: usize) -> Result<(), InterpError> {
    st.rip = prog.code_base;
    st.push(HALT);
    for _ in 0..max_steps {
        let bytes = prog.fetch(st.rip).ok_or(InterpError::OutOfBounds(st.rip))?;
        let insn = decode(bytes).map_err(|_| InterpError::Unsupported(st.rip))?;
        let rip_after = st.rip + insn.len as u64;
        if is_vmfunc(bytes, &insn) {
            st.vmfunc_log.push(st.rip);
            st.rip = rip_after;
            continue;
        }
        let rex = rex_of(bytes, &insn);
        let bbit = (rex & 1) as usize;
        let op = bytes[insn.opcode_off];
        let n = op_width(bytes, &insn);
        match (insn.opcode_len, op) {
            (1, 0x90) => {}
            (1, 0xc3) => {
                let ret = st.pop();
                if ret == HALT {
                    return Ok(());
                }
                st.rip = ret;
                continue;
            }
            (1, 0x50..=0x57) => {
                let r = (op - 0x50) as usize | (bbit << 3);
                let v = st.regs[r];
                st.push(v);
            }
            (1, 0x58..=0x5f) => {
                let r = (op - 0x58) as usize | (bbit << 3);
                let v = st.pop();
                st.regs[r] = v;
            }
            // MOV r/m, r and MOV r, r/m.
            (1, 0x89) | (1, 0x8b) => {
                let loc = resolve_rm(bytes, &insn, st, rip_after);
                let reg = reg_field(bytes, &insn);
                if op == 0x89 {
                    let v = if n == 8 {
                        st.regs[reg]
                    } else {
                        st.regs[reg] & 0xffff_ffff
                    };
                    write_loc(st, &loc, v, n);
                } else {
                    let v = read_loc(st, &loc, n);
                    st.regs[reg] = if n == 8 { v } else { v & 0xffff_ffff };
                }
            }
            // LEA.
            (1, 0x8d) => {
                let Loc::Mem(ea) = resolve_rm(bytes, &insn, st, rip_after) else {
                    return Err(InterpError::Unsupported(st.rip));
                };
                let reg = reg_field(bytes, &insn);
                st.regs[reg] = if n == 8 { ea } else { ea & 0xffff_ffff };
            }
            // MOV r, imm.
            (1, 0xb8..=0xbf) => {
                let r = (op - 0xb8) as usize | (bbit << 3);
                let (ioff, ilen) = insn.imm.unwrap();
                let v = match ilen {
                    4 => u32::from_le_bytes(bytes[ioff..ioff + 4].try_into().unwrap()) as u64,
                    8 => u64::from_le_bytes(bytes[ioff..ioff + 8].try_into().unwrap()),
                    _ => return Err(InterpError::Unsupported(st.rip)),
                };
                st.regs[r] = v;
            }
            (1, 0xc7) => {
                let loc = resolve_rm(bytes, &insn, st, rip_after);
                let (ioff, _) = insn.imm.unwrap();
                let v = i32::from_le_bytes(bytes[ioff..ioff + 4].try_into().unwrap()) as i64 as u64;
                write_loc(st, &loc, v, n);
            }
            // ALU rm,r / r,rm forms: 01/09/21/29/31/39, 03/0B/23/2B/33/3B,
            // 85 test.
            (1, o)
                if matches!(
                    o,
                    0x01 | 0x09
                        | 0x21
                        | 0x29
                        | 0x31
                        | 0x39
                        | 0x03
                        | 0x0b
                        | 0x23
                        | 0x2b
                        | 0x33
                        | 0x3b
                        | 0x85
                ) =>
            {
                let loc = resolve_rm(bytes, &insn, st, rip_after);
                let reg = reg_field(bytes, &insn);
                let digit = if o == 0x85 { 8 } else { (o >> 3) & 7 };
                let to_rm = o & 0x02 == 0 || o == 0x85;
                let rm_v = read_loc(st, &loc, n);
                let r_v = if n == 8 {
                    st.regs[reg]
                } else {
                    st.regs[reg] & 0xffff_ffff
                };
                let (a, b) = if to_rm { (rm_v, r_v) } else { (r_v, rm_v) };
                let res = alu(digit, a, b);
                set_flags(st, res, n);
                if digit != 7 && digit != 8 {
                    if to_rm {
                        write_loc(st, &loc, res, n);
                    } else {
                        st.regs[reg] = if n == 8 { res } else { res & 0xffff_ffff };
                    }
                }
            }
            // Group 81 imm32 and accumulator short forms.
            (1, 0x81) => {
                let loc = resolve_rm(bytes, &insn, st, rip_after);
                let m = insn.modrm_off.unwrap();
                let digit = (bytes[m] >> 3) & 7;
                let (ioff, _) = insn.imm.unwrap();
                let imm =
                    i32::from_le_bytes(bytes[ioff..ioff + 4].try_into().unwrap()) as i64 as u64;
                let v = read_loc(st, &loc, n);
                let res = alu(digit, v, imm);
                set_flags(st, res, n);
                if digit != 7 {
                    write_loc(st, &loc, res, n);
                }
            }
            (1, 0x83) => {
                let loc = resolve_rm(bytes, &insn, st, rip_after);
                let m = insn.modrm_off.unwrap();
                let digit = (bytes[m] >> 3) & 7;
                let (ioff, _) = insn.imm.unwrap();
                let imm = bytes[ioff] as i8 as i64 as u64;
                let v = read_loc(st, &loc, n);
                let res = alu(digit, v, imm);
                set_flags(st, res, n);
                if digit != 7 {
                    write_loc(st, &loc, res, n);
                }
            }
            (1, o) if matches!(o, 0x05 | 0x0d | 0x25 | 0x2d | 0x35 | 0x3d | 0xa9) => {
                let digit = if o == 0xa9 { 8 } else { (o >> 3) & 7 };
                let (ioff, _) = insn.imm.unwrap();
                let imm =
                    i32::from_le_bytes(bytes[ioff..ioff + 4].try_into().unwrap()) as i64 as u64;
                let v = if n == 8 {
                    st.regs[0]
                } else {
                    st.regs[0] & 0xffff_ffff
                };
                let res = alu(digit, v, imm);
                set_flags(st, res, n);
                if digit != 7 && digit != 8 {
                    st.regs[0] = if n == 8 { res } else { res & 0xffff_ffff };
                }
            }
            // F7 /0: TEST r/m, imm32.
            (1, 0xf7) => {
                let loc = resolve_rm(bytes, &insn, st, rip_after);
                let m = insn.modrm_off.unwrap();
                if (bytes[m] >> 3) & 7 > 1 {
                    return Err(InterpError::Unsupported(st.rip));
                }
                let (ioff, _) = insn.imm.ok_or(InterpError::Unsupported(st.rip))?;
                let imm =
                    i32::from_le_bytes(bytes[ioff..ioff + 4].try_into().unwrap()) as i64 as u64;
                let res = read_loc(st, &loc, n) & imm;
                set_flags(st, res, n);
            }
            // IMUL r, r/m, imm32.
            (1, 0x69) => {
                let loc = resolve_rm(bytes, &insn, st, rip_after);
                let reg = reg_field(bytes, &insn);
                let (ioff, _) = insn.imm.unwrap();
                let imm =
                    i32::from_le_bytes(bytes[ioff..ioff + 4].try_into().unwrap()) as i64 as u64;
                let res = read_loc(st, &loc, n).wrapping_mul(imm);
                st.regs[reg] = if n == 8 { res } else { res & 0xffff_ffff };
            }
            // JMP rel8/rel32, CALL rel32.
            (1, 0xeb) | (1, 0xe9) | (1, 0xe8) => {
                let (ioff, ilen) = insn.imm.unwrap();
                let disp = match ilen {
                    1 => bytes[ioff] as i8 as i64,
                    4 => i32::from_le_bytes(bytes[ioff..ioff + 4].try_into().unwrap()) as i64,
                    _ => unreachable!(),
                };
                if op == 0xe8 {
                    st.push(rip_after);
                }
                st.rip = rip_after.wrapping_add(disp as u64);
                continue;
            }
            // Jcc rel8 (JZ/JNZ only).
            (1, 0x74) | (1, 0x75) => {
                let (ioff, _) = insn.imm.unwrap();
                let disp = bytes[ioff] as i8 as i64;
                let take = (op == 0x74) == st.zf;
                if take {
                    st.rip = rip_after.wrapping_add(disp as u64);
                    continue;
                }
            }
            // Two-byte map.
            (2, _) => {
                let op2 = bytes[insn.opcode_off + 1];
                match op2 {
                    // IMUL r, r/m.
                    0xaf => {
                        let loc = resolve_rm(bytes, &insn, st, rip_after);
                        let reg = reg_field(bytes, &insn);
                        let a = if n == 8 {
                            st.regs[reg]
                        } else {
                            st.regs[reg] & 0xffff_ffff
                        };
                        let res = a.wrapping_mul(read_loc(st, &loc, n));
                        st.regs[reg] = if n == 8 { res } else { res & 0xffff_ffff };
                    }
                    // Jcc rel32 (JZ/JNZ only).
                    0x84 | 0x85 => {
                        let (ioff, _) = insn.imm.unwrap();
                        let disp =
                            i32::from_le_bytes(bytes[ioff..ioff + 4].try_into().unwrap()) as i64;
                        let take = (op2 == 0x84) == st.zf;
                        if take {
                            st.rip = rip_after.wrapping_add(disp as u64);
                            continue;
                        }
                    }
                    _ => return Err(InterpError::Unsupported(st.rip)),
                }
            }
            _ => return Err(InterpError::Unsupported(st.rip)),
        }
        st.rip = rip_after;
    }
    Err(InterpError::StepLimit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_code(code: &[u8], setup: impl Fn(&mut State)) -> State {
        let mut st = State::default();
        setup(&mut st);
        run(
            Program {
                code,
                code_base: 0x40_0000,
                page: &[],
                page_base: 0x1000,
            },
            &mut st,
            1000,
        )
        .unwrap();
        st
    }

    #[test]
    fn mov_add_roundtrip() {
        // mov eax, 5; add eax, 7; ret.
        let code = [0xb8, 5, 0, 0, 0, 0x05, 7, 0, 0, 0, 0xc3];
        let st = run_code(&code, |_| {});
        assert_eq!(st.regs[0], 12);
    }

    #[test]
    fn wide_mov_imm64() {
        let mut code = vec![0x48, 0xb8];
        code.extend_from_slice(&0x1122_3344_5566_7788u64.to_le_bytes());
        code.push(0xc3);
        let st = run_code(&code, |_| {});
        assert_eq!(st.regs[0], 0x1122_3344_5566_7788);
    }

    #[test]
    fn push_pop_balance() {
        // push rcx; pop rdx; ret.
        let code = [0x51, 0x5a, 0xc3];
        let st = run_code(&code, |s| s.regs[1] = 42);
        assert_eq!(st.regs[2], 42);
        assert_eq!(st.regs[RSP], 0x7fff_0000);
    }

    #[test]
    fn memory_load_store() {
        // mov [rdi], rax; mov rbx, [rdi]; ret.
        let code = [0x48, 0x89, 0x07, 0x48, 0x8b, 0x1f, 0xc3];
        let st = run_code(&code, |s| {
            s.regs[0] = 0xabcd;
            s.regs[7] = 0x9000;
        });
        assert_eq!(st.regs[3], 0xabcd);
        assert_eq!(st.read_mem(0x9000, 8), 0xabcd);
    }

    #[test]
    fn lea_with_sib_and_disp() {
        // lea rbx, [rdi + rcx*1 + 0x100]: 48 8D 9C 0F 00 01 00 00.
        let code = [0x48, 0x8d, 0x9c, 0x0f, 0x00, 0x01, 0x00, 0x00, 0xc3];
        let st = run_code(&code, |s| {
            s.regs[7] = 0x1000;
            s.regs[1] = 0x20;
        });
        assert_eq!(st.regs[3], 0x1120);
    }

    #[test]
    fn imul_three_operand() {
        // imul ecx, edi, 100: 69 CF 64 00 00 00.
        let code = [0x69, 0xcf, 100, 0, 0, 0, 0xc3];
        let st = run_code(&code, |s| s.regs[7] = 7);
        assert_eq!(st.regs[1], 700);
    }

    #[test]
    fn vmfunc_is_logged() {
        let code = [0x0f, 0x01, 0xd4, 0xc3];
        let st = run_code(&code, |_| {});
        assert_eq!(st.vmfunc_log, vec![0x40_0000]);
    }

    #[test]
    fn call_and_ret() {
        // call +1 (skip nothing); ret at target returns to after call;
        // then mov eax, 9; ret.
        // call rel32=2 → target = base+5+2; layout: call; mov eax,9; ret
        // ... simpler: jmp over a block.
        // jmp +5; mov eax, 1; ret; mov eax, 9; ret
        let code = [
            0xeb, 0x06, // jmp +6 → to mov eax,9
            0xb8, 1, 0, 0, 0, 0xc3, // mov eax,1; ret
            0xb8, 9, 0, 0, 0, 0xc3, // mov eax,9; ret
        ];
        let st = run_code(&code, |_| {});
        assert_eq!(st.regs[0], 9);
    }

    #[test]
    fn conditional_jump_on_zf() {
        // cmp eax, 5 (81 /7); jz +5; mov ebx,1; ret | mov ebx,2; ret.
        let code = [
            0x81, 0xf8, 5, 0, 0, 0, // cmp eax, 5
            0x74, 0x06, // jz +6
            0xbb, 1, 0, 0, 0, 0xc3, // mov ebx,1; ret
            0xbb, 2, 0, 0, 0, 0xc3, // mov ebx,2; ret
        ];
        let st = run_code(&code, |s| s.regs[0] = 5);
        assert_eq!(st.regs[3], 2);
        let st = run_code(&code, |s| s.regs[0] = 4);
        assert_eq!(st.regs[3], 1);
    }

    #[test]
    fn flags_from_alu() {
        // xor eax, eax → zf.
        let code = [0x31, 0xc0, 0xc3];
        let st = run_code(&code, |s| s.regs[0] = 77);
        assert!(st.zf);
        assert_eq!(st.regs[0], 0);
    }
}
