//! The file-system facade: superblock, allocation, files, directories.

use crate::{
    blockdev::{BlockDevice, BSIZE, ZERO_BLOCK},
    dir::{Dirent, DIRENT_SIZE, DIRSIZ},
    inode::{addr_at, Dinode, InodeType, INODE_SIZE, IPB, MAXFILE, NDIRECT, NINDIRECT, SIZE_AT},
    log::{Log, LOG_CAPACITY},
};

/// Inode number (0 is invalid; 1 is the root directory).
pub type Inum = u16;

/// The root directory's inode number.
pub const ROOT_INUM: Inum = 1;

const MAGIC: u32 = 0x5bf5_2019;

/// File-system errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// Path component does not exist.
    NotFound,
    /// Create target already exists.
    Exists,
    /// A non-directory appeared mid-path.
    NotADir,
    /// Expected a file, found a directory.
    IsADir,
    /// Out of data blocks or inodes.
    NoSpace,
    /// Write beyond the maximum file size.
    FileTooLarge,
    /// Name longer than [`DIRSIZ`].
    NameTooLong,
    /// Not a valid file system (bad magic, or a geometry the device
    /// cannot hold).
    BadSuperblock,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FsError::NotFound => "not found",
            FsError::Exists => "already exists",
            FsError::NotADir => "not a directory",
            FsError::IsADir => "is a directory",
            FsError::NoSpace => "no space",
            FsError::FileTooLarge => "file too large",
            FsError::NameTooLong => "name too long",
            FsError::BadSuperblock => "bad superblock",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for FsError {}

/// On-disk layout descriptor (block 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Total blocks.
    pub size: u32,
    /// Log region blocks (header + slots).
    pub nlog: u32,
    /// First log block.
    pub logstart: u32,
    /// Inode count.
    pub ninodes: u32,
    /// First inode block.
    pub inodestart: u32,
    /// First bitmap block.
    pub bmapstart: u32,
    /// First data block.
    pub datastart: u32,
}

impl Superblock {
    fn encode(&self) -> [u8; BSIZE] {
        let mut b = [0u8; BSIZE];
        let words = [
            MAGIC,
            self.size,
            self.nlog,
            self.logstart,
            self.ninodes,
            self.inodestart,
            self.bmapstart,
            self.datastart,
        ];
        for (i, w) in words.iter().enumerate() {
            b[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        b
    }

    /// Decodes block 1 of a device of `nblocks` blocks. A geometry the
    /// device cannot hold is as bad as a wrong magic: the regions must lie
    /// in order — superblock, log, inodes, bitmap, data — inside `size`,
    /// `size` inside the device, and the log must be larger than
    /// [`LOG_CAPACITY`].
    fn decode(b: &[u8; BSIZE], nblocks: u32) -> Result<Self, FsError> {
        let w = |i: usize| u32::from_le_bytes(b[i * 4..i * 4 + 4].try_into().unwrap());
        let [size, nlog, log, ninodes, inodes, bmap, data] =
            [1, 2, 3, 4, 5, 6, 7].map(|i| w(i) as u64);
        let bounds = [
            2,
            log,
            log + nlog,
            inodes,
            inodes + ninodes.div_ceil(IPB as u64),
            bmap,
            bmap + size.div_ceil(BSIZE as u64 * 8),
            data,
            size,
            nblocks.into(),
        ];
        if w(0) != MAGIC || nlog <= LOG_CAPACITY as u64 || !bounds.is_sorted() {
            return Err(FsError::BadSuperblock);
        }
        Ok(Superblock {
            size: w(1),
            nlog: w(2),
            logstart: w(3),
            ninodes: w(4),
            inodestart: w(5),
            bmapstart: w(6),
            datastart: w(7),
        })
    }
}

/// A mounted file system.
///
/// # Examples
///
/// ```
/// use sb_fs::{FileSystem, RamDisk};
///
/// let mut fs = FileSystem::mkfs(RamDisk::new(1024), 32);
/// let f = fs.create("/hello").unwrap();
/// fs.write_at(f, 0, b"xv6fs says hi").unwrap();
/// let mut buf = [0u8; 13];
/// fs.read_at(f, 0, &mut buf);
/// assert_eq!(&buf, b"xv6fs says hi");
/// ```
#[derive(Debug)]
pub struct FileSystem<D: BlockDevice> {
    dev: D,
    sb: Superblock,
    log: Log,
}

impl<D: BlockDevice> FileSystem<D> {
    /// Formats `dev` and mounts the fresh file system.
    pub fn mkfs(mut dev: D, ninodes: u32) -> Self {
        let size = dev.nblocks();
        let nlog = (LOG_CAPACITY + 1) as u32;
        let logstart = 2;
        let inodestart = logstart + nlog;
        let ninodeblocks = ninodes.div_ceil(IPB as u32);
        let bmapstart = inodestart + ninodeblocks;
        let nbitmap = size.div_ceil((BSIZE * 8) as u32);
        let datastart = bmapstart + nbitmap;
        assert!(datastart < size, "device too small");
        let sb = Superblock {
            size,
            nlog,
            logstart,
            ninodes,
            inodestart,
            bmapstart,
            datastart,
        };
        for b in 0..datastart {
            dev.write_block(b, &ZERO_BLOCK);
        }
        dev.write_block(1, &sb.encode());
        let mut fs = FileSystem {
            dev,
            sb,
            log: Log::new(logstart, nlog),
        };
        // Mark the metadata blocks used in the bitmap and create "/".
        fs.log.begin_op();
        for b in 0..datastart {
            fs.bitmap_set(b);
        }
        let root = Dinode {
            typ: InodeType::Dir,
            nlink: 1,
            size: 0,
            addrs: [0; NDIRECT + 2],
        };
        fs.write_inode(ROOT_INUM, &root);
        fs.log.end_op(&mut fs.dev);
        fs
    }

    /// Mounts an existing file system, replaying any committed log.
    ///
    /// # Errors
    ///
    /// [`FsError::BadSuperblock`] if block 1 is not a superblock whose
    /// geometry fits the device.
    pub fn mount(mut dev: D) -> Result<Self, FsError> {
        let nblocks = dev.nblocks();
        let sb = Superblock::decode(dev.read_block(1), nblocks)?;
        Log::recover(sb.logstart, &mut dev);
        Ok(FileSystem {
            dev,
            sb,
            log: Log::new(sb.logstart, sb.nlog),
        })
    }

    /// Unmounts, returning the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// The superblock.
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// Committed transactions so far.
    pub fn commits(&self) -> u64 {
        self.log.commits
    }

    /// Block writes absorbed into an already-staged log slot so far.
    pub fn absorbed(&self) -> u64 {
        self.log.absorbed
    }

    /// Direct access to the device (for I/O statistics).
    pub fn device(&self) -> &D {
        &self.dev
    }

    // ----- block I/O through the log -----

    /// Borrows block `bno` as the current transaction sees it: the staged
    /// copy if there is one, the block the device lends otherwise. Every
    /// call on an unstaged block reaches the device — the block server is
    /// billed per request, so there is no buffer cache to skip it.
    fn bread(&mut self, bno: u32) -> &[u8; BSIZE] {
        match self.log.staged(bno) {
            Some(data) => data,
            None => self.dev.read_block(bno),
        }
    }

    // ----- bitmap allocation -----

    fn bitmap_set(&mut self, bno: u32) {
        let bblock = self.sb.bmapstart + bno / (BSIZE as u32 * 8);
        let buf = self.log.modify(&mut self.dev, bblock);
        let bit = (bno % (BSIZE as u32 * 8)) as usize;
        buf[bit / 8] |= 1 << (bit % 8);
    }

    fn balloc(&mut self) -> Result<u32, FsError> {
        for bblock_i in 0..self.sb.size.div_ceil(BSIZE as u32 * 8) {
            let bblock = self.sb.bmapstart + bblock_i;
            let buf = self.bread(bblock);
            if let Some(byte) = buf.iter().position(|&v| v != 0xff) {
                let bit = buf[byte].trailing_ones() as usize;
                let bno = bblock_i * (BSIZE as u32 * 8) + (byte * 8 + bit) as u32;
                if bno >= self.sb.size {
                    return Err(FsError::NoSpace);
                }
                self.bitmap_set(bno);
                self.log.write(bno, &ZERO_BLOCK);
                return Ok(bno);
            }
        }
        Err(FsError::NoSpace)
    }

    // ----- inodes -----

    fn inode_block(&self, inum: Inum) -> (u32, usize) {
        let b = self.sb.inodestart + inum as u32 / IPB as u32;
        let off = (inum as usize % IPB) * INODE_SIZE;
        (b, off)
    }

    /// Reads an inode.
    pub fn read_inode(&mut self, inum: Inum) -> Dinode {
        let (b, off) = self.inode_block(inum);
        Dinode::decode(&self.bread(b)[off..off + INODE_SIZE])
    }

    fn write_inode(&mut self, inum: Inum, d: &Dinode) {
        let (b, off) = self.inode_block(inum);
        self.log.patch(&mut self.dev, b, off, &d.encode());
    }

    /// Reads the one 4-byte field at `at` of an inode's slot (the same
    /// block read as [`FileSystem::read_inode`]).
    fn inode_word(&mut self, inum: Inum, at: usize) -> u32 {
        let (b, off) = self.inode_block(inum);
        u32::from_le_bytes(self.bread(b)[off + at..off + at + 4].try_into().unwrap())
    }

    /// Writes the one 4-byte field at `at` of an inode's slot.
    fn set_inode_word(&mut self, inum: Inum, at: usize, v: u32) {
        let (b, off) = self.inode_block(inum);
        self.log.patch(&mut self.dev, b, off + at, &v.to_le_bytes());
    }

    fn ialloc(&mut self) -> Result<Inum, FsError> {
        for inum in 1..self.sb.ninodes as Inum {
            if self.read_inode(inum).typ == InodeType::Free {
                let d = Dinode {
                    typ: InodeType::File,
                    nlink: 1,
                    size: 0,
                    addrs: [0; NDIRECT + 2],
                };
                self.write_inode(inum, &d);
                return Ok(inum);
            }
        }
        Err(FsError::NoSpace)
    }

    /// Maps file block `fbn` of `inum` to a disk block, allocating if
    /// requested (0: a hole, when not). Reads the one inode address the
    /// block hangs off, then each indirect slot on the way down.
    fn bmap(&mut self, inum: Inum, fbn: usize, alloc: bool) -> Result<u32, FsError> {
        if fbn >= MAXFILE {
            return Err(FsError::FileTooLarge);
        }
        let (addr, slots) = if fbn < NDIRECT {
            (fbn, [None, None])
        } else if fbn < NDIRECT + NINDIRECT {
            (NDIRECT, [Some(fbn - NDIRECT), None])
        } else {
            let rest = fbn - NDIRECT - NINDIRECT;
            let (mid, leaf) = (rest / NINDIRECT, rest % NINDIRECT);
            (NDIRECT + 1, [Some(mid), Some(leaf)])
        };
        let mut bno = self.inode_word(inum, addr_at(addr));
        if bno == 0 && alloc {
            bno = self.balloc()?;
            self.set_inode_word(inum, addr_at(addr), bno);
        }
        for slot in slots.into_iter().flatten() {
            if bno == 0 {
                return Ok(0);
            }
            bno = self.indirect_slot(bno, slot, alloc)?;
        }
        Ok(bno)
    }

    /// Reads (allocating if asked) slot `slot` of the indirect block `ib`.
    fn indirect_slot(&mut self, ib: u32, slot: usize, alloc: bool) -> Result<u32, FsError> {
        let ind = self.bread(ib);
        let mut bno = u32::from_le_bytes(ind[slot * 4..slot * 4 + 4].try_into().unwrap());
        if bno == 0 && alloc {
            // The indirect block is read once, before the allocation: the
            // patched copy is staged whole, not re-read.
            let mut ind = *ind;
            bno = self.balloc()?;
            ind[slot * 4..slot * 4 + 4].copy_from_slice(&bno.to_le_bytes());
            self.log.write(ib, &ind);
        }
        Ok(bno)
    }

    /// Reads up to `buf.len()` bytes at `off`; returns bytes read.
    fn readi(&mut self, inum: Inum, off: usize, buf: &mut [u8]) -> usize {
        let size = self.inode_word(inum, SIZE_AT) as usize;
        if off >= size {
            return 0;
        }
        let n = buf.len().min(size - off);
        let mut done = 0;
        while done < n {
            let fbn = (off + done) / BSIZE;
            let boff = (off + done) % BSIZE;
            let chunk = (BSIZE - boff).min(n - done);
            let bno = self.bmap(inum, fbn, false).unwrap_or(0);
            if bno == 0 {
                // Hole: zeros.
                buf[done..done + chunk].fill(0);
            } else {
                let data = self.bread(bno);
                buf[done..done + chunk].copy_from_slice(&data[boff..boff + chunk]);
            }
            done += chunk;
        }
        n
    }

    /// Writes `data` at `off`, extending the file. Must run inside a
    /// transaction; callers chunk to respect the log capacity.
    fn writei(&mut self, inum: Inum, off: usize, data: &[u8]) -> Result<(), FsError> {
        let mut done = 0;
        while done < data.len() {
            let fbn = (off + done) / BSIZE;
            let boff = (off + done) % BSIZE;
            let chunk = (BSIZE - boff).min(data.len() - done);
            let bno = self.bmap(inum, fbn, true)?;
            self.log
                .patch(&mut self.dev, bno, boff, &data[done..done + chunk]);
            done += chunk;
        }
        let end = (off + data.len()) as u32;
        if end > self.inode_word(inum, SIZE_AT) {
            self.set_inode_word(inum, SIZE_AT, end);
        }
        Ok(())
    }

    // ----- directories -----

    /// The entry `name` of directory `dir`; `NotADir` when `dir` is not
    /// one, so nothing reads a regular file's data as entries.
    fn dir_lookup(&mut self, dir: Inum, name: &str) -> Result<Option<Inum>, FsError> {
        let d = self.read_inode(dir);
        if d.typ != InodeType::Dir {
            return Err(FsError::NotADir);
        }
        let mut off = 0;
        while off < d.size as usize {
            let mut slot = [0u8; DIRENT_SIZE];
            self.readi(dir, off, &mut slot);
            let e = Dirent::decode(&slot);
            if e.inum != 0 && e.name == name {
                return Ok(Some(e.inum));
            }
            off += DIRENT_SIZE;
        }
        Ok(None)
    }

    fn dir_link(&mut self, dir: Inum, name: &str, inum: Inum) -> Result<(), FsError> {
        if name.len() > DIRSIZ {
            return Err(FsError::NameTooLong);
        }
        let d = self.read_inode(dir);
        // Reuse a free slot if any.
        let mut off = 0;
        while off < d.size as usize {
            let mut slot = [0u8; DIRENT_SIZE];
            self.readi(dir, off, &mut slot);
            if Dirent::decode(&slot).inum == 0 {
                break;
            }
            off += DIRENT_SIZE;
        }
        let e = Dirent {
            inum,
            name: name.to_string(),
        };
        self.writei(dir, off, &e.encode())
    }

    fn path_parts(path: &str) -> Vec<&str> {
        path.split('/').filter(|p| !p.is_empty()).collect()
    }

    /// Resolves `path` to an inode number.
    pub fn namei(&mut self, path: &str) -> Result<Inum, FsError> {
        let mut at = ROOT_INUM;
        for part in Self::path_parts(path) {
            at = self.dir_lookup(at, part)?.ok_or(FsError::NotFound)?;
        }
        Ok(at)
    }

    fn namei_parent<'a>(&mut self, path: &'a str) -> Result<(Inum, &'a str), FsError> {
        let parts = Self::path_parts(path);
        let Some((&last, dirs)) = parts.split_last() else {
            return Err(FsError::Exists); // "/" itself.
        };
        let mut at = ROOT_INUM;
        for part in dirs {
            at = self.dir_lookup(at, part)?.ok_or(FsError::NotFound)?;
        }
        Ok((at, last))
    }

    // ----- public operations (each is one transaction) -----

    /// Creates a regular file, returning its inode number.
    pub fn create(&mut self, path: &str) -> Result<Inum, FsError> {
        self.log.begin_op();
        let r = (|| {
            let (dir, name) = self.namei_parent(path)?;
            if self.dir_lookup(dir, name)?.is_some() {
                return Err(FsError::Exists);
            }
            let inum = self.ialloc()?;
            self.dir_link(dir, name, inum)?;
            Ok(inum)
        })();
        self.log.end_op(&mut self.dev);
        r
    }

    /// Opens an existing file.
    pub fn open(&mut self, path: &str) -> Result<Inum, FsError> {
        let inum = self.namei(path)?;
        if self.read_inode(inum).typ == InodeType::Dir {
            return Err(FsError::IsADir);
        }
        Ok(inum)
    }

    /// The size of a file in bytes.
    pub fn size_of(&mut self, inum: Inum) -> usize {
        self.inode_word(inum, SIZE_AT) as usize
    }

    /// Reads at `off`; returns bytes read.
    pub fn read_at(&mut self, inum: Inum, off: usize, buf: &mut [u8]) -> usize {
        self.readi(inum, off, buf)
    }

    /// Writes at `off` (extending the file), chunking into transactions
    /// that respect the log capacity.
    pub fn write_at(&mut self, inum: Inum, off: usize, data: &[u8]) -> Result<(), FsError> {
        // Budget: ≤ 8 data blocks per transaction leaves room for the
        // inode, bitmap and indirect blocks.
        const CHUNK: usize = 8 * BSIZE;
        let mut done = 0;
        while done < data.len() || data.is_empty() {
            let n = CHUNK.min(data.len() - done);
            self.log.begin_op();
            let r = self.writei(inum, off + done, &data[done..done + n]);
            self.log.end_op(&mut self.dev);
            r?;
            done += n;
            if data.is_empty() {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdev::RamDisk;

    /// A disk that records every call: `'r'` or `'w'`, the block, and the
    /// bytes written.
    struct Tape {
        disk: RamDisk,
        calls: Vec<(char, u32, Vec<u8>)>,
    }

    impl BlockDevice for Tape {
        fn nblocks(&self) -> u32 {
            self.disk.nblocks()
        }

        fn read_block(&mut self, bno: u32) -> &[u8; BSIZE] {
            self.calls.push(('r', bno, vec![]));
            self.disk.read_block(bno)
        }

        fn write_block(&mut self, bno: u32, buf: &[u8; BSIZE]) {
            self.calls.push(('w', bno, buf.to_vec()));
            self.disk.write_block(bno, buf);
        }
    }

    fn fresh() -> FileSystem<Tape> {
        let tape = Tape {
            disk: RamDisk::new(1024),
            calls: vec![],
        };
        FileSystem::mkfs(tape, 16)
    }

    fn reads_of(fs: &FileSystem<Tape>, bno: u32) -> usize {
        fs.dev
            .calls
            .iter()
            .filter(|c| (c.0, c.1) == ('r', bno))
            .count()
    }

    /// The device read of a block the chunk overwrites whole is a billed
    /// crossing: it stays, while the old bytes it lends go unused.
    #[test]
    fn a_whole_block_overwrite_reads_the_device_once_and_stages_only_the_new_bytes() {
        let mut fs = fresh();
        let f = fs.create("/f").unwrap();
        fs.write_at(f, 0, &[0xa5; BSIZE]).unwrap();
        let bno = fs.bmap(f, 0, false).unwrap();
        fs.dev.calls.clear();
        let new: [u8; BSIZE] = std::array::from_fn(|i| i as u8);
        fs.log.begin_op();
        fs.writei(f, 0, &new).unwrap();
        assert_eq!(reads_of(&fs, bno), 1, "the overwrite reads its block once");
        assert_eq!(fs.log.staged(bno), Some(&new), "staged: the new bytes only");
        assert_eq!(fs.dev.disk.read_block(bno), &[0xa5; BSIZE], "not yet home");
        fs.writei(f, 0, &[7; BSIZE]).unwrap();
        assert_eq!(
            reads_of(&fs, bno),
            1,
            "a staged block is absorbed, not read"
        );
        fs.log.end_op(&mut fs.dev);
        let mut back = [0u8; BSIZE];
        assert_eq!(fs.read_at(f, 0, &mut back), BSIZE);
        assert_eq!(back, [7; BSIZE]);
    }

    /// `bmap` as it was before it read one address: the whole inode
    /// decoded, edited and encoded back.
    fn bmap_by_dinode<D: BlockDevice>(
        fs: &mut FileSystem<D>,
        inum: Inum,
        fbn: usize,
        alloc: bool,
    ) -> Result<u32, FsError> {
        if fbn >= MAXFILE {
            return Err(FsError::FileTooLarge);
        }
        let mut d = fs.read_inode(inum);
        let (i, rest) = match fbn {
            _ if fbn < NDIRECT => (fbn, None),
            _ if fbn < NDIRECT + NINDIRECT => (NDIRECT, Some(fbn - NDIRECT)),
            _ => (NDIRECT + 1, Some(fbn - NDIRECT - NINDIRECT)),
        };
        if d.addrs[i] == 0 {
            if !alloc {
                return Ok(0);
            }
            d.addrs[i] = fs.balloc()?;
            fs.write_inode(inum, &d);
        }
        match rest {
            None => Ok(d.addrs[i]),
            Some(slot) if i == NDIRECT => fs.indirect_slot(d.addrs[i], slot, alloc),
            Some(rest) => match fs.indirect_slot(d.addrs[i], rest / NINDIRECT, alloc)? {
                0 => Ok(0),
                mid => fs.indirect_slot(mid, rest % NINDIRECT, alloc),
            },
        }
    }

    /// Direct, single- and double-indirect blocks, the edges of each
    /// range and one past the largest file, looked up, allocated and
    /// looked up again: the same answers and the same device calls with
    /// the same bytes as the whole-inode `bmap`, and answers that are the
    /// addresses `read_inode` and the indirect blocks hold.
    #[test]
    fn one_address_bmap_matches_the_whole_inode_bmap() {
        let dbl = NDIRECT + NINDIRECT;
        let fbns = [
            0,
            5,
            NDIRECT - 1,
            NDIRECT,
            NDIRECT + 7,
            dbl - 1,
            dbl,
            dbl + 300,
            MAXFILE - 1,
            MAXFILE,
        ];
        let (mut new, mut old) = (fresh(), fresh());
        let f = new.create("/f").unwrap();
        assert_eq!(old.create("/f"), Ok(f));
        for (pass, alloc) in [false, true, false].into_iter().enumerate() {
            for fbn in fbns {
                new.dev.calls.clear();
                old.dev.calls.clear();
                new.log.begin_op();
                old.log.begin_op();
                let got = new.bmap(f, fbn, alloc);
                let want = bmap_by_dinode(&mut old, f, fbn, alloc);
                new.log.end_op(&mut new.dev);
                old.log.end_op(&mut old.dev);
                assert_eq!(got, want, "fbn {fbn}, alloc {alloc}");
                assert!(new.dev.calls == old.dev.calls, "fbn {fbn}, alloc {alloc}");
                let mapped = pass > 0 && fbn < MAXFILE;
                assert_eq!(
                    got.is_ok_and(|bno| bno != 0),
                    mapped,
                    "fbn {fbn}, pass {pass}"
                );
            }
        }
        let d = new.read_inode(f);
        assert_eq!(new.bmap(f, 5, false), Ok(d.addrs[5]));
        let slot = |fs: &mut FileSystem<Tape>, ib: u32, i: usize| {
            u32::from_le_bytes(fs.bread(ib)[i * 4..i * 4 + 4].try_into().unwrap())
        };
        let single = slot(&mut new, d.addrs[NDIRECT], 7);
        assert_eq!(new.bmap(f, NDIRECT + 7, false), Ok(single));
        let mid = slot(&mut new, d.addrs[NDIRECT + 1], 300 / NINDIRECT);
        let double = slot(&mut new, mid, 300 % NINDIRECT);
        assert_eq!(new.bmap(f, dbl + 300, false), Ok(double));
        assert!([single, mid, double].iter().all(|&b| b != 0));
    }
}
