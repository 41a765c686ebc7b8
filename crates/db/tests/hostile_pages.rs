//! Pages are a trust boundary: they come back from a file, and a file can
//! hold anything. Whatever a table or catalog page contains, the four
//! statements and `open` answer or return a typed error — they never index
//! past the page, follow a pointer past the file, or loop.

use std::sync::OnceLock;

use proptest::prelude::*;
use sb_db::{Database, DbError, Value};
use sb_fs::{FileSystem, RamDisk};

const PAGE_SIZE: usize = sb_db::PAGE_SIZE;
const PATH: &str = "/h.db";

/// A closed database of six rows (one leaf) or, if `large`, 400 (an
/// internal root over a dozen leaves), and the number of pages in its
/// file. Each size is built once; callers get their own copy of the disk.
fn populated(large: bool) -> (FileSystem<RamDisk>, usize) {
    static IMAGES: [OnceLock<(RamDisk, usize)>; 2] = [OnceLock::new(), OnceLock::new()];
    let (disk, pages) = IMAGES[large as usize].get_or_init(|| {
        let fs = FileSystem::mkfs(RamDisk::new(4096), 16);
        let mut db = Database::open(fs, PATH, 8).unwrap();
        db.create_table("t").unwrap();
        for k in 0..if large { 400 } else { 6 } {
            db.insert("t", k * 3, &[Value::Blob(vec![k as u8; 90])])
                .unwrap();
        }
        let mut fs = db.close().unwrap();
        let file = fs.open(PATH).unwrap();
        let pages = fs.size_of(file) / PAGE_SIZE;
        (fs.into_device(), pages)
    });
    (FileSystem::mount(disk.clone()).unwrap(), *pages)
}

fn overwrite_page(fs: &mut FileSystem<RamDisk>, pno: usize, page: &[u8]) {
    let file = fs.open(PATH).unwrap();
    fs.write_at(file, pno * PAGE_SIZE, page).unwrap();
}

/// Random bytes with the two fields every walk starts from forced into
/// their interesting ranges.
fn hostile_page() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec(any::<u8>(), PAGE_SIZE..PAGE_SIZE + 1),
        0u8..4,
        prop_oneof![0u16..8, 300u16..420, any::<u16>()],
        // Child pointers that stay inside a small file, so descents go
        // somewhere (including back up: a cycle).
        any::<bool>(),
    )
        .prop_map(|(mut page, tag, count, near): (Vec<u8>, u8, u16, bool)| {
            page[0] = tag;
            page[2..4].copy_from_slice(&count.to_le_bytes());
            if near {
                let near = |low: u8| (low as u32 % 16).to_le_bytes();
                let child0 = near(page[4]);
                page[4..8].copy_from_slice(&child0);
                for entry in page[8..].chunks_exact_mut(12) {
                    let child = near(entry[8]);
                    entry[8..12].copy_from_slice(&child);
                }
            }
            page
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hostile_table_page_is_an_error_not_a_panic(
        large in any::<bool>(),
        victim in any::<usize>(),
        page in hostile_page(),
        keys in proptest::collection::vec(-5i64..1300, 1..12),
    ) {
        let (mut fs, pages) = populated(large);
        // Any page but the catalog.
        overwrite_page(&mut fs, 1 + victim % (pages - 1), &page);
        let mut db = Database::open(fs, PATH, 8).unwrap();
        let row = [Value::Blob(vec![7; 700])];
        for key in keys {
            // Every outcome but a panic (or a hang) is acceptable; a
            // statement that fails must leave the database usable.
            let _ = db.query("t", key);
            let _ = db.insert("t", key, &row);
            let _ = db.update("t", key + 1, &row);
            let _ = db.delete("t", key - 1);
            let _ = db.scan_range("t", key, key + 40);
        }
    }

    #[test]
    fn hostile_catalog_page_is_an_error_not_a_panic(
        page in hostile_page(),
        keep_magic in any::<bool>(),
        tables in any::<u8>(),
    ) {
        let (mut fs, _) = populated(false);
        let mut page = page;
        if keep_magic {
            page[..4].copy_from_slice(&0x5bdb_ca7au32.to_le_bytes());
            page[4] = tables;
        }
        overwrite_page(&mut fs, 0, &page);
        match Database::open(fs, PATH, 8) {
            Ok(mut db) => {
                let _ = db.query("t", 3);
                let _ = db.insert("t", 3, &[Value::Int(1)]);
            }
            Err(e) => prop_assert_eq!(e, DbError::Catalog),
        }
    }
}

#[test]
fn leaf_count_past_the_page_is_corrupt() {
    let (mut fs, pages) = populated(false);
    assert_eq!(pages, 2, "catalog + one leaf");
    // A leaf claiming 60,000 entries.
    let mut page = vec![0u8; PAGE_SIZE];
    page[0] = 1;
    page[2..4].copy_from_slice(&60_000u16.to_le_bytes());
    overwrite_page(&mut fs, 1, &page);
    let mut db = Database::open(fs, PATH, 8).unwrap();
    assert_eq!(db.query("t", 5), Err(DbError::Corrupt));
    assert_eq!(db.insert("t", 5, &[Value::Int(1)]), Err(DbError::Corrupt));
    assert_eq!(db.update("t", 5, &[Value::Int(1)]), Err(DbError::Corrupt));
    assert_eq!(db.delete("t", 5), Err(DbError::Corrupt));
    assert_eq!(db.scan("t"), Err(DbError::Corrupt));
}

#[test]
fn record_length_past_the_page_is_corrupt() {
    let (mut fs, _) = populated(false);
    // One entry whose length field reaches 4 bytes past the page.
    let mut page = vec![0u8; PAGE_SIZE];
    page[0] = 1;
    page[2] = 1;
    page[8..16].copy_from_slice(&9i64.to_le_bytes());
    page[16..18].copy_from_slice(&((PAGE_SIZE - 18 + 4) as u16).to_le_bytes());
    overwrite_page(&mut fs, 1, &page);
    let mut db = Database::open(fs, PATH, 8).unwrap();
    assert_eq!(db.query("t", 9), Err(DbError::Corrupt));
    assert_eq!(db.delete("t", 9), Err(DbError::Corrupt));
}

#[test]
fn child_pointer_past_the_file_or_back_to_itself_is_corrupt() {
    let (mut fs, _) = populated(false);
    let internal = |child: u32| {
        let mut page = vec![0u8; PAGE_SIZE];
        page[0] = 2;
        page[4..8].copy_from_slice(&child.to_le_bytes());
        page
    };
    overwrite_page(&mut fs, 1, &internal(0xffff_ffff));
    let mut db = Database::open(fs, PATH, 8).unwrap();
    assert_eq!(db.query("t", 1), Err(DbError::Corrupt));
    assert_eq!(db.insert("t", 1, &[Value::Int(1)]), Err(DbError::Corrupt));
    let mut fs = db.close().unwrap();
    // The root as its own only child: a cycle.
    overwrite_page(&mut fs, 1, &internal(1));
    let mut db = Database::open(fs, PATH, 8).unwrap();
    assert_eq!(db.query("t", 1), Err(DbError::Corrupt));
    assert_eq!(db.delete("t", 1), Err(DbError::Corrupt));
    assert_eq!(db.scan("t"), Err(DbError::Corrupt));
}

#[test]
fn catalog_entry_past_the_page_is_a_catalog_error() {
    let (mut fs, _) = populated(false);
    let mut page = vec![0xffu8; PAGE_SIZE];
    page[..4].copy_from_slice(&0x5bdb_ca7au32.to_le_bytes());
    // 255 tables of 255-byte names do not fit in 4 KiB.
    overwrite_page(&mut fs, 0, &page);
    assert_eq!(Database::open(fs, PATH, 8).err(), Some(DbError::Catalog));
}

#[test]
fn rollback_checks_the_catalog_it_reloads() {
    let (fs, _) = populated(false);
    let mut db = Database::open(fs, PATH, 8).unwrap();
    // The catalog page loses its magic behind the open database's back;
    // the next rollback re-reads it.
    let file = db.fs_mut().open(PATH).unwrap();
    db.fs_mut().write_at(file, 0, &[0u8; PAGE_SIZE]).unwrap();
    assert_eq!(
        db.insert("t", 3, &[Value::Int(1)]),
        Err(DbError::Catalog),
        "the duplicate-key rollback must notice the bad catalog"
    );
}
