//! On-disk inodes.

use crate::blockdev::BSIZE;

/// Direct block pointers per inode.
pub const NDIRECT: usize = 12;

/// Block numbers per indirect block.
pub const NINDIRECT: usize = BSIZE / 4;

/// Maximum file size in blocks (direct + single + double indirect — the
/// double-indirect extension xv6fs needs to hold a multi-megabyte SQLite
/// database file).
pub const MAXFILE: usize = NDIRECT + NINDIRECT + NINDIRECT * NINDIRECT;

/// Bytes per on-disk inode (padded).
pub const INODE_SIZE: usize = 64;

/// Inodes per block.
pub const IPB: usize = BSIZE / INODE_SIZE;

/// Byte offset of the 4-byte `size` in an inode's slot.
pub const SIZE_AT: usize = 4;

/// Byte offset of the 4-byte `addrs[i]` in an inode's slot.
pub const fn addr_at(i: usize) -> usize {
    8 + 4 * i
}

/// Inode type tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InodeType {
    /// Unallocated.
    Free,
    /// Directory.
    Dir,
    /// Regular file.
    File,
}

impl InodeType {
    fn to_u16(self) -> u16 {
        match self {
            InodeType::Free => 0,
            InodeType::Dir => 1,
            InodeType::File => 2,
        }
    }

    fn from_u16(v: u16) -> InodeType {
        match v {
            1 => InodeType::Dir,
            2 => InodeType::File,
            _ => InodeType::Free,
        }
    }
}

/// One on-disk inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dinode {
    /// Type tag.
    pub typ: InodeType,
    /// Hard-link count.
    pub nlink: u16,
    /// File size in bytes.
    pub size: u32,
    /// Direct blocks, one single-indirect, one double-indirect.
    pub addrs: [u32; NDIRECT + 2],
}

impl Dinode {
    /// Serializes into its 64-byte slot.
    pub fn encode(&self) -> [u8; INODE_SIZE] {
        let mut b = [0u8; INODE_SIZE];
        b[0..2].copy_from_slice(&self.typ.to_u16().to_le_bytes());
        b[2..4].copy_from_slice(&self.nlink.to_le_bytes());
        b[SIZE_AT..SIZE_AT + 4].copy_from_slice(&self.size.to_le_bytes());
        for (i, a) in self.addrs.iter().enumerate() {
            b[addr_at(i)..addr_at(i) + 4].copy_from_slice(&a.to_le_bytes());
        }
        b
    }

    /// Deserializes from a 64-byte slot.
    pub fn decode(b: &[u8]) -> Self {
        let mut addrs = [0u32; NDIRECT + 2];
        for (i, a) in addrs.iter_mut().enumerate() {
            *a = u32::from_le_bytes(b[addr_at(i)..addr_at(i) + 4].try_into().unwrap());
        }
        Dinode {
            typ: InodeType::from_u16(u16::from_le_bytes(b[0..2].try_into().unwrap())),
            nlink: u16::from_le_bytes(b[2..4].try_into().unwrap()),
            size: u32::from_le_bytes(b[SIZE_AT..SIZE_AT + 4].try_into().unwrap()),
            addrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let mut d = Dinode {
            typ: InodeType::File,
            nlink: 3,
            size: 123456,
            addrs: [0; NDIRECT + 2],
        };
        d.addrs[0] = 77;
        d.addrs[NDIRECT + 1] = 99;
        assert_eq!(Dinode::decode(&d.encode()), d);
    }

    #[test]
    fn geometry() {
        assert_eq!(IPB, 16);
        assert_eq!(NINDIRECT, 256);
        assert_eq!(MAXFILE, 268 + 256 * 256);
    }
}
