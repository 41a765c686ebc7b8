//! The rollback journal.
//!
//! Before a transaction first modifies a page, its pre-image is appended
//! to the journal file; committing truncates the journal (one header
//! write), and opening a database with a non-empty journal rolls the
//! pre-images back — SQLite's classic journal mode, giving multi-page
//! atomicity above the file system's single-transaction log.

use sb_fs::{FileApi, FsError, Inum};

use crate::PAGE_SIZE;

const ENTRY_SIZE: usize = 4 + PAGE_SIZE;

/// The journal for one database file.
#[derive(Debug)]
pub struct Journal {
    /// The journal file.
    file: Inum,
    /// Pages whose pre-image is already saved this transaction, in save
    /// order (a transaction touches a handful of pages: a scan finds one).
    saved: Vec<u32>,
    /// Entries written this transaction.
    entries: u32,
    /// The `ENTRY_SIZE` buffer every entry is assembled in, so that an
    /// entry stays **one** file write.
    entry: Vec<u8>,
    /// Completed commits.
    pub commits: u64,
    /// Rollbacks performed (explicit or recovery).
    pub rollbacks: u64,
}

impl Journal {
    /// Creates the journal state over `file`.
    pub fn new(file: Inum) -> Self {
        Journal {
            file,
            saved: Vec::new(),
            entries: 0,
            entry: vec![0; ENTRY_SIZE],
            commits: 0,
            rollbacks: 0,
        }
    }

    /// True if `pno`'s pre-image is already journaled this transaction.
    pub fn is_saved(&self, pno: u32) -> bool {
        self.saved.contains(&pno)
    }

    /// Saves the pre-image of `pno` (first modification this
    /// transaction).
    pub fn save<F: FileApi>(
        &mut self,
        fs: &mut F,
        pno: u32,
        preimage: &[u8; PAGE_SIZE],
    ) -> Result<(), FsError> {
        if self.is_saved(pno) {
            return Ok(());
        }
        self.saved.push(pno);
        let off = 8 + self.entries as usize * ENTRY_SIZE;
        self.entry[..4].copy_from_slice(&pno.to_le_bytes());
        self.entry[4..].copy_from_slice(preimage);
        fs.write_at(self.file, off, &self.entry)?;
        self.entries += 1;
        // Header: entry count (made valid *before* the data pages are
        // overwritten, so a crash mid-transaction rolls back).
        let mut head = [0u8; 8];
        head[..4].copy_from_slice(&self.entries.to_le_bytes());
        head[4..8].copy_from_slice(&JOURNAL_MAGIC.to_le_bytes());
        fs.write_at(self.file, 0, &head)?;
        Ok(())
    }

    /// Commits: truncates the journal (single header write).
    pub fn commit<F: FileApi>(&mut self, fs: &mut F) -> Result<(), FsError> {
        fs.write_at(self.file, 0, &[0u8; 8])?;
        self.saved.clear();
        self.entries = 0;
        self.commits += 1;
        Ok(())
    }

    /// Rolls back: copies every journaled pre-image over the database
    /// file, then truncates the journal. Returns pages restored.
    pub fn rollback<F: FileApi>(&mut self, fs: &mut F, db_file: Inum) -> Result<usize, FsError> {
        let n = Self::replay(fs, self.file, db_file)?;
        self.saved.clear();
        self.entries = 0;
        if n > 0 {
            self.rollbacks += 1;
        }
        Ok(n)
    }

    /// Recovery path (database open): if the journal is hot, restore the
    /// pre-images. Returns pages restored.
    pub fn replay<F: FileApi>(fs: &mut F, journal: Inum, db_file: Inum) -> Result<usize, FsError> {
        let mut head = [0u8; 8];
        if fs.read_at(journal, 0, &mut head) < 8 {
            return Ok(0);
        }
        let n = u32::from_le_bytes(head[..4].try_into().unwrap());
        let magic = u32::from_le_bytes(head[4..8].try_into().unwrap());
        if n == 0 || magic != JOURNAL_MAGIC {
            return Ok(0);
        }
        for i in 0..n as usize {
            let off = 8 + i * ENTRY_SIZE;
            let mut entry = vec![0u8; ENTRY_SIZE];
            if fs.read_at(journal, off, &mut entry) < ENTRY_SIZE {
                break; // Torn tail: the header said more than persisted.
            }
            let pno = u32::from_le_bytes(entry[..4].try_into().unwrap());
            fs.write_at(db_file, pno as usize * PAGE_SIZE, &entry[4..])?;
        }
        fs.write_at(journal, 0, &[0u8; 8])?;
        Ok(n as usize)
    }
}

/// The "hot journal" marker.
const JOURNAL_MAGIC: u32 = 0x5bdb_1099;

#[cfg(test)]
mod tests {
    use sb_fs::{FileSystem, RamDisk};

    use super::*;

    fn setup() -> (FileSystem<RamDisk>, Inum, Inum, Journal) {
        let mut fs = FileSystem::mkfs(RamDisk::new(4096), 32);
        let db = fs.create("/db").unwrap();
        let j = fs.create("/db.journal").unwrap();
        fs.write_at(db, 0, &[0xAA; PAGE_SIZE]).unwrap();
        let journal = Journal::new(j);
        (fs, db, j, journal)
    }

    #[test]
    fn commit_truncates_journal() {
        let (mut fs, db, j, mut journal) = setup();
        journal.save(&mut fs, 0, &[0xAA; PAGE_SIZE]).unwrap();
        fs.write_at(db, 0, &[0xBB; PAGE_SIZE]).unwrap();
        journal.commit(&mut fs).unwrap();
        // A replay after commit restores nothing.
        assert_eq!(Journal::replay(&mut fs, j, db).unwrap(), 0);
        let mut buf = [0u8; 1];
        fs.read_at(db, 0, &mut buf);
        assert_eq!(buf[0], 0xBB);
    }

    #[test]
    fn rollback_restores_preimages() {
        let (mut fs, db, _j, mut journal) = setup();
        journal.save(&mut fs, 0, &[0xAA; PAGE_SIZE]).unwrap();
        fs.write_at(db, 0, &[0xBB; PAGE_SIZE]).unwrap();
        assert_eq!(journal.rollback(&mut fs, db).unwrap(), 1);
        let mut buf = [0u8; 1];
        fs.read_at(db, 0, &mut buf);
        assert_eq!(buf[0], 0xAA);
    }

    #[test]
    fn hot_journal_is_replayed_on_open() {
        let (mut fs, db, j, mut journal) = setup();
        journal.save(&mut fs, 0, &[0xAA; PAGE_SIZE]).unwrap();
        fs.write_at(db, 0, &[0xBB; PAGE_SIZE]).unwrap();
        // "Crash": no commit. A later open replays.
        assert_eq!(Journal::replay(&mut fs, j, db).unwrap(), 1);
        let mut buf = [0u8; 1];
        fs.read_at(db, 0, &mut buf);
        assert_eq!(buf[0], 0xAA);
    }

    #[test]
    fn save_is_once_per_page_per_transaction() {
        let (mut fs, _db, _j, mut journal) = setup();
        journal.save(&mut fs, 0, &[0xAA; PAGE_SIZE]).unwrap();
        journal.save(&mut fs, 0, &[0xCC; PAGE_SIZE]).unwrap();
        assert!(journal.is_saved(0));
        assert_eq!(journal.entries, 1, "second save must be a no-op");
    }
}
