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

/// Reads the varint `bytes` starts with and moves past it. `None` when
/// the bytes end inside it, or when it would not fit a `u64`: an
/// eleventh byte, or a tenth above 1. [`put_varint`] writes neither.
pub fn get_varint(bytes: &mut Iter<u8>) -> Option<u64> {
    let mut x = 0;
    for shift in (0..64).step_by(7) {
        let b = *bytes.next()?;
        let bits = u64::from(b & 0x7f);
        if shift == 63 && bits > 1 {
            return None;
        }
        x |= bits << shift;
        if b < 0x80 {
            return Some(x);
        }
    }
    None
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
            let back: Option<Vec<u64>> = xs.iter().map(|_| get_varint(&mut bytes)).collect();
            prop_assert_eq!(back, Some(xs));
            prop_assert!(bytes.next().is_none());
        }

        /// Whatever the bytes, decoding ends in a value or `None`, never
        /// a panic, and each value read consumes at least one byte.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut it = bytes.iter();
            let mut left = it.len();
            while get_varint(&mut it).is_some() {
                prop_assert!(it.len() < left);
                left = it.len();
            }
        }
    }

    #[test]
    fn a_varint_past_ten_bytes_is_refused() {
        assert_eq!(get_varint(&mut [0xff; 11].iter()), None);
    }

    #[test]
    fn a_truncated_varint_is_refused() {
        assert_eq!(get_varint(&mut [0x80, 0x80].iter()), None);
        assert_eq!(get_varint(&mut [].iter()), None);
    }

    #[test]
    fn a_tenth_byte_above_one_is_refused() {
        let mut max = [0xff; 10];
        max[9] = 0x01;
        assert_eq!(get_varint(&mut max.iter()), Some(u64::MAX));
        max[9] = 0x02;
        assert_eq!(get_varint(&mut max.iter()), None);
    }
}
