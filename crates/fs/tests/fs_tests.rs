//! File-system behaviour, model-based property tests, and crash recovery.

use std::collections::HashMap;

use proptest::prelude::*;
use sb_fs::{
    blockdev::{BlockDevice, CrashDisk, RamDisk},
    fs::ROOT_INUM,
    FileSystem, FsError, BSIZE,
};

fn fresh() -> FileSystem<RamDisk> {
    FileSystem::mkfs(RamDisk::new(2048), 128)
}

#[test]
fn create_write_read_roundtrip() {
    let mut fs = fresh();
    let f = fs.create("/db.sqlite").unwrap();
    let data: Vec<u8> = (0..5000).map(|i| (i % 253) as u8).collect();
    fs.write_at(f, 0, &data).unwrap();
    assert_eq!(fs.size_of(f), data.len());
    let mut out = vec![0u8; data.len()];
    assert_eq!(fs.read_at(f, 0, &mut out), data.len());
    assert_eq!(out, data);
}

#[test]
fn a_file_created_below_a_regular_file_is_refused() {
    let mut fs = fresh();
    let wal = fs.create("/wal").unwrap();
    fs.write_at(wal, 0, b"log").unwrap();
    assert_eq!(fs.create("/wal/x"), Err(FsError::NotADir));
    assert_eq!(fs.open("/wal/x"), Err(FsError::NotADir));
    let mut out = [0u8; 8];
    assert_eq!(
        fs.read_at(wal, 0, &mut out),
        3,
        "no entry was written into /wal"
    );
    assert_eq!(&out[..3], b"log");
}

#[test]
fn read_beyond_eof_is_short() {
    let mut fs = fresh();
    let f = fs.create("/x").unwrap();
    fs.write_at(f, 0, b"hello").unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(fs.read_at(f, 0, &mut buf), 5);
    assert_eq!(fs.read_at(f, 5, &mut buf), 0);
    assert_eq!(fs.read_at(f, 100, &mut buf), 0);
}

#[test]
fn overwrite_in_place() {
    let mut fs = fresh();
    let f = fs.create("/x").unwrap();
    fs.write_at(f, 0, b"aaaaaaaaaa").unwrap();
    fs.write_at(f, 3, b"BBB").unwrap();
    let mut buf = [0u8; 10];
    fs.read_at(f, 0, &mut buf);
    assert_eq!(&buf, b"aaaBBBaaaa");
    assert_eq!(fs.size_of(f), 10);
}

#[test]
fn sparse_write_reads_zero_holes() {
    let mut fs = fresh();
    let f = fs.create("/sparse").unwrap();
    fs.write_at(f, 3 * BSIZE, b"tail").unwrap();
    let mut buf = vec![0xffu8; BSIZE];
    fs.read_at(f, 0, &mut buf);
    assert!(buf.iter().all(|&b| b == 0), "holes must read as zeros");
}

#[test]
fn large_file_uses_indirect_blocks() {
    let mut fs = FileSystem::mkfs(RamDisk::new(4096), 64);
    let f = fs.create("/big").unwrap();
    // 40 blocks: well past the 12 direct pointers.
    let data: Vec<u8> = (0..40 * BSIZE).map(|i| (i % 241) as u8).collect();
    fs.write_at(f, 0, &data).unwrap();
    let mut out = vec![0u8; data.len()];
    fs.read_at(f, 0, &mut out);
    assert_eq!(out, data);
}

#[test]
fn file_too_large_is_refused() {
    let mut fs = FileSystem::mkfs(RamDisk::new(8192), 64);
    let f = fs.create("/huge").unwrap();
    let nindirect = BSIZE / 4;
    let max = (12 + nindirect + nindirect * nindirect) * BSIZE;
    assert_eq!(fs.write_at(f, max, b"x"), Err(FsError::FileTooLarge));
    // And a write through the double-indirect region works.
    let off = (12 + nindirect + 5) * BSIZE;
    fs.write_at(f, off, b"deep").unwrap();
    let mut buf = [0u8; 4];
    fs.read_at(f, off, &mut buf);
    assert_eq!(&buf, b"deep");
}

#[test]
fn directories_and_paths() {
    let mut fs = fresh();
    let f = fs.create("/wal").unwrap();
    fs.write_at(f, 0, b"j").unwrap();
    assert_eq!(fs.namei("/wal").unwrap(), f);
    assert_eq!(fs.namei("/").unwrap(), ROOT_INUM);
    assert_eq!(fs.namei("/nope"), Err(FsError::NotFound));
    assert_eq!(fs.namei("/nope/x"), Err(FsError::NotFound));
    assert_eq!(fs.namei("/wal/x"), Err(FsError::NotADir));
    assert_eq!(fs.open("/"), Err(FsError::IsADir));
}

#[test]
fn create_duplicate_fails() {
    let mut fs = fresh();
    fs.create("/x").unwrap();
    assert_eq!(fs.create("/x"), Err(FsError::Exists));
}

#[test]
fn remount_preserves_contents() {
    let mut fs = fresh();
    let f = fs.create("/persist").unwrap();
    fs.write_at(f, 0, b"still here").unwrap();
    let disk = fs.into_device();
    let mut fs2 = FileSystem::mount(disk).unwrap();
    let f2 = fs2.open("/persist").unwrap();
    let mut buf = [0u8; 10];
    fs2.read_at(f2, 0, &mut buf);
    assert_eq!(&buf, b"still here");
}

#[test]
fn mount_garbage_fails() {
    assert!(matches!(
        FileSystem::mount(RamDisk::new(64)),
        Err(FsError::BadSuperblock)
    ));
}

/// A fresh 64-block image (35 metadata blocks, 16 inodes) whose
/// superblock word `word` (1 = `size` … 7 = `datastart`, as encoded)
/// reads `value`.
fn corrupt(word: usize, value: u32) -> RamDisk {
    let mut disk = FileSystem::mkfs(RamDisk::new(64), 16).into_device();
    let mut sb = *disk.read_block(1);
    sb[word * 4..word * 4 + 4].copy_from_slice(&value.to_le_bytes());
    disk.write_block(1, &sb);
    disk
}

/// Mounts `disk` and then uses it past full: 200 files created, each
/// written 4 blocks long, whatever fails. Each corrupted geometry below
/// but `datastart` panicked somewhere in here before `mount` checked the
/// superblock against the device.
fn mount_and_fill(disk: RamDisk) -> Result<(), FsError> {
    let mut fs = FileSystem::mount(disk)?;
    for i in 0..200 {
        if let Ok(f) = fs.create(&format!("/f{i}")) {
            let _ = fs.write_at(f, 0, &[i as u8; 4 * BSIZE]);
        }
    }
    Ok(())
}

/// `corrupt(word, value)` is refused at mount, with the typed error.
fn assert_refused(word: usize, value: u32) {
    assert_eq!(
        mount_and_fill(corrupt(word, value)),
        Err(FsError::BadSuperblock)
    );
}

#[test]
fn an_intact_superblock_mounts_and_fills_to_no_space() {
    assert_eq!(mount_and_fill(corrupt(1, 64)), Ok(()));
}

#[test]
fn a_size_beyond_the_device_is_a_bad_superblock() {
    assert_refused(1, 128);
}

#[test]
fn a_log_no_larger_than_its_capacity_is_a_bad_superblock() {
    assert_refused(2, sb_fs::log::LOG_CAPACITY as u32);
}

#[test]
fn a_log_start_beyond_the_device_is_a_bad_superblock() {
    assert_refused(3, 64);
}

#[test]
fn more_inodes_than_the_inode_blocks_hold_is_a_bad_superblock() {
    assert_refused(4, 1024);
}

#[test]
fn an_inode_start_beyond_the_device_is_a_bad_superblock() {
    assert_refused(5, 64);
}

#[test]
fn a_bitmap_start_beyond_the_device_is_a_bad_superblock() {
    assert_refused(6, 64);
}

/// Nothing reads `datastart` after `mkfs`, so a corrupt one never
/// panicked; it is refused with the rest of the geometry all the same.
#[test]
fn a_data_start_beyond_the_device_is_a_bad_superblock() {
    assert_refused(7, 65);
}

#[test]
fn root_inode_is_a_directory() {
    let mut fs = fresh();
    assert_eq!(fs.read_inode(ROOT_INUM).typ, sb_fs::inode::InodeType::Dir);
}

/// Crash-recovery sweep at the file-system level: set up a base image,
/// crash after each possible number of device writes during an update of
/// two files, recover, and check that every file is either fully old or
/// fully new — and the file system is still usable.
#[test]
fn crash_during_update_preserves_consistency() {
    // Count writes needed by the whole update when it succeeds.
    let probe = {
        let mut fs = FileSystem::mkfs(RamDisk::new(1024), 32);
        let a = fs.create("/a").unwrap();
        fs.write_at(a, 0, &[0xAA; 2 * BSIZE]).unwrap();
        let before = fs.device().writes;
        fs.write_at(a, 0, &[0xBB; 2 * BSIZE]).unwrap();
        fs.device().writes - before
    };
    for fuse in 0..=probe {
        // Base image.
        let mut fs = FileSystem::mkfs(RamDisk::new(1024), 32);
        let a = fs.create("/a").unwrap();
        fs.write_at(a, 0, &[0xAA; 2 * BSIZE]).unwrap();
        let base = fs.into_device();
        // Crashy update.
        let mut fs = FileSystem::mount(CrashDisk::new(base, fuse)).unwrap();
        let a = fs.open("/a").unwrap();
        let _ = fs.write_at(a, 0, &[0xBB; 2 * BSIZE]);
        let survivor = fs.into_device().into_survivor();
        // Recover and check.
        let mut fs = FileSystem::mount(survivor).unwrap();
        let a = fs.open("/a").unwrap();
        let mut buf = vec![0u8; 2 * BSIZE];
        fs.read_at(a, 0, &mut buf);
        let first = buf[0];
        assert!(
            first == 0xAA || first == 0xBB,
            "crash at write #{fuse}: torn first byte {first:#x}"
        );
        // write_at chunks transactions at 8 blocks; a 2-block write is one
        // transaction and must be atomic.
        assert!(
            buf.iter().all(|&b| b == first),
            "crash at write #{fuse} tore the file"
        );
        // The file system remains usable after recovery.
        let f = fs.create("/post-crash").unwrap();
        fs.write_at(f, 0, b"alive").unwrap();
    }
}

// ----- model-based property test -----

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    /// A create of `/f{n}/x`: below a file, or below nothing.
    CreateBelow(u8),
    Write {
        file: u8,
        off: u16,
        len: u16,
        val: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6).prop_map(Op::Create),
        (0u8..6).prop_map(Op::CreateBelow),
        (0u8..6, 0u16..5000, 1u16..3000, any::<u8>()).prop_map(|(file, off, len, val)| Op::Write {
            file,
            off,
            len,
            val
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The file system agrees with an in-memory model under arbitrary
    /// create/write sequences, creates below a file or nothing included.
    #[test]
    fn matches_in_memory_model(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let mut fs = FileSystem::mkfs(RamDisk::new(4096), 64);
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
        let path = |f: u8| format!("/f{f}");
        for op in ops {
            match op {
                Op::Create(f) => {
                    let r = fs.create(&path(f));
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(f) {
                        prop_assert!(r.is_ok());
                        e.insert(Vec::new());
                    } else {
                        prop_assert_eq!(r, Err(FsError::Exists));
                    }
                }
                Op::CreateBelow(f) => {
                    let refused = if model.contains_key(&f) { FsError::NotADir } else { FsError::NotFound };
                    prop_assert_eq!(fs.create(&format!("{}/x", path(f))), Err(refused));
                }
                Op::Write { file, off, len, val } => {
                    let data = vec![val; len as usize];
                    match fs.open(&path(file)) {
                        Ok(inum) => {
                            prop_assert!(model.contains_key(&file));
                            fs.write_at(inum, off as usize, &data).unwrap();
                            let m = model.get_mut(&file).unwrap();
                            let end = off as usize + data.len();
                            if m.len() < end {
                                m.resize(end, 0);
                            }
                            m[off as usize..end].copy_from_slice(&data);
                        }
                        Err(FsError::NotFound) => {
                            prop_assert!(!model.contains_key(&file));
                        }
                        Err(e) => prop_assert!(false, "open failed: {e}"),
                    }
                }
            }
        }
        // Final check: every modeled file matches byte for byte.
        for (f, contents) in &model {
            let inum = fs.open(&path(*f)).unwrap();
            prop_assert_eq!(fs.size_of(inum), contents.len());
            let mut out = vec![0u8; contents.len()];
            fs.read_at(inum, 0, &mut out);
            prop_assert_eq!(&out, contents);
        }
    }
}
