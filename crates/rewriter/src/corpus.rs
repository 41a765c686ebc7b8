//! Synthetic code-corpus generation.
//!
//! Table 6 scans thousands of programs for inadvertent `VMFUNC`s. We scan
//! the real ELF binaries in this container ([`crate::elf`]), and — for
//! deterministic tests and benches — generate synthetic corpora here:
//! streams of valid, interpreter-supported x86-64 instructions with an
//! optional rate of injected pattern occurrences.

/// A tiny deterministic PRNG (xorshift64*), so the corpus needs no
/// external dependencies and is reproducible across runs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator (seed must be non-zero; 0 is mapped to 1).
    pub fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn emit_random_insn(rng: &mut Rng, out: &mut Vec<u8>) {
    // Only low registers, interpreter-supported forms.
    let r1 = rng.below(4) as u8;
    let r2 = rng.below(4) as u8;
    match rng.below(8) {
        0 => out.push(0x90), // nop
        1 => {
            // mov r32, imm32.
            out.push(0xb8 + r1);
            out.extend_from_slice(&(rng.next_u64() as u32).to_le_bytes());
        }
        2 => {
            // add r/m, r (mod 11).
            out.push(0x01);
            out.push(0xc0 | (r2 << 3) | r1);
        }
        3 => {
            // xor r/m, r.
            out.push(0x31);
            out.push(0xc0 | (r2 << 3) | r1);
        }
        4 => {
            // add r, imm32 (81 /0).
            out.push(0x81);
            out.push(0xc0 | r1);
            out.extend_from_slice(&(rng.next_u64() as u32).to_le_bytes());
        }
        5 => {
            // lea r, [r2 + disp32] (mod 10), 64-bit.
            out.push(0x48);
            out.push(0x8d);
            out.push(0x80 | (r1 << 3) | r2);
            out.extend_from_slice(&(rng.next_u64() as u32).to_le_bytes());
        }
        6 => {
            // mov r64, r64.
            out.push(0x48);
            out.push(0x89);
            out.push(0xc0 | (r2 << 3) | r1);
        }
        _ => {
            // imul r, r, imm32.
            out.push(0x69);
            out.push(0xc0 | (r1 << 3) | r2);
            out.extend_from_slice(&(rng.next_u64() as u32).to_le_bytes());
        }
    }
}

/// Generates roughly `size` bytes of valid instructions ending in `RET`.
///
/// With probability `inject_per_kib / 1024` per emitted instruction, an
/// instruction carrying the `VMFUNC` byte pattern in an immediate is
/// emitted instead — the "inadvertent occurrence" Table 6 hunts for.
pub fn generate(seed: u64, size: usize, inject_per_kib: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(size + 16);
    while out.len() < size {
        if inject_per_kib > 0 && rng.below(1024) < inject_per_kib {
            // add eax, 0x00D4010F — pattern inside the immediate.
            out.push(0x05);
            out.extend_from_slice(&0x00d4_010fu32.to_le_bytes());
        } else {
            emit_random_insn(&mut rng, &mut out);
        }
    }
    out.push(0xc3);
    // Padding so relocation regions near the end have room.
    out.extend_from_slice(&[0x90; 8]);
    out
}

#[cfg(test)]
mod tests {
    use crate::{scan::find_occurrences, scan::instruction_boundaries};

    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        assert_eq!(generate(7, 512, 0), generate(7, 512, 0));
        assert_ne!(generate(7, 512, 0), generate(8, 512, 0));
    }

    #[test]
    fn clean_corpus_decodes_fully() {
        let code = generate(42, 4096, 0);
        for (off, insn) in instruction_boundaries(&code) {
            assert!(insn.is_some(), "undecodable byte at {off}");
        }
    }

    #[test]
    fn injection_rate_controls_occurrences() {
        let clean = generate(3, 16 * 1024, 0);
        let dirty = generate(3, 16 * 1024, 40);
        // The clean corpus may still contain accidental patterns (random
        // immediates), but the injected one must have strictly more.
        assert!(find_occurrences(&dirty).len() > find_occurrences(&clean).len());
        assert!(!find_occurrences(&dirty).is_empty());
        // Table 6's sensitivity: accidental occurrences in random
        // immediates are rare in clean code (the paper found 1 in ~7,000
        // programs), and the scanner finds injected ones on every seed.
        for seed in 1..=16 {
            assert!(find_occurrences(&generate(seed, 32 * 1024, 0)).len() <= 2);
            assert!(!find_occurrences(&generate(seed, 32 * 1024, 30)).is_empty());
        }
    }
}
