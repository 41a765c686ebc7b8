//! LEB128, the workspace's one variable-length integer codec: seven
//! bits a byte, low first, the high bit set on all but the last — 1
//! byte below 128, 3 below 2²¹, 10 for `u64::MAX`. The graph's commit
//! log and the serving runtime's latency tracks are both written with
//! it.

use std::slice::Iter;

/// Appends `x` to `out`.
pub fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Reads the varint `bytes` starts with and moves past it.
pub fn get_varint(bytes: &mut Iter<u8>) -> u64 {
    let mut x = 0;
    for (shift, &b) in (0..).step_by(7).zip(bytes) {
        x |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            break;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn widths_step_every_seven_bits() {
        for (x, width) in [(0, 1), (127, 1), (128, 2), ((1 << 21) - 1, 3), (1 << 21, 4)] {
            let mut out = Vec::new();
            put_varint(&mut out, x);
            assert_eq!(out.len(), width, "{x}");
        }
        let mut out = Vec::new();
        put_varint(&mut out, u64::MAX);
        assert_eq!(out.len(), 10);
    }

    proptest! {
        #[test]
        fn a_run_of_varints_reads_back_as_written(xs in proptest::collection::vec(any::<u64>(), 0..32)) {
            let mut out = Vec::new();
            for &x in &xs {
                put_varint(&mut out, x);
            }
            let mut bytes = out.iter();
            let back: Vec<u64> = xs.iter().map(|_| get_varint(&mut bytes)).collect();
            prop_assert_eq!(back, xs);
            prop_assert!(bytes.next().is_none());
        }
    }
}
