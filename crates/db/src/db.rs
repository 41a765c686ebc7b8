//! The database facade: catalog, transactions, and the four Table 4
//! operations.

use std::collections::BTreeMap;

use sb_fs::{FileApi, FsError, Inum};

use crate::{
    btree,
    journal::Journal,
    pager::Pager,
    record::{decode_record, encode_record, Value},
    PAGE_SIZE,
};

/// Database errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// No such table.
    NoSuchTable,
    /// `CREATE TABLE` of an existing name.
    TableExists,
    /// `INSERT` of an existing key.
    DuplicateKey,
    /// `UPDATE`/`DELETE` of a missing key.
    KeyNotFound,
    /// Record larger than a leaf can hold.
    RecordTooLarge,
    /// Catalog full or malformed.
    Catalog,
    /// A table page whose count, length or child-pointer fields run past
    /// the page or the file.
    Corrupt,
    /// Underlying file-system failure.
    Fs(FsError),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::NoSuchTable => write!(f, "no such table"),
            DbError::TableExists => write!(f, "table exists"),
            DbError::DuplicateKey => write!(f, "duplicate key"),
            DbError::KeyNotFound => write!(f, "key not found"),
            DbError::RecordTooLarge => write!(f, "record too large"),
            DbError::Catalog => write!(f, "catalog error"),
            DbError::Corrupt => write!(f, "corrupt page"),
            DbError::Fs(e) => write!(f, "fs error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<FsError> for DbError {
    fn from(e: FsError) -> Self {
        DbError::Fs(e)
    }
}

/// Counters for the cost model and the Table 4 analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Pager cache hits.
    pub cache_hits: u64,
    /// Pager cache misses (reads that reached the FS).
    pub cache_misses: u64,
    /// Pages written back to the FS.
    pub writebacks: u64,
    /// Journal commits (transactions).
    pub commits: u64,
}

/// A transaction context: split borrows of the pager, journal, and file
/// system that the B-tree operates through. Writes journal the pre-image
/// of each page once per transaction.
pub struct TxnCtx<'a, F: FileApi> {
    /// The file system.
    pub fs: &'a mut F,
    pager: &'a mut Pager,
    journal: Option<&'a mut Journal>,
}

impl<'a, F: FileApi> TxnCtx<'a, F> {
    /// Reads a page of the file. A page number at or past the end can
    /// only come from a corrupt child pointer.
    pub fn read(&mut self, pno: u32) -> Result<&[u8; PAGE_SIZE], DbError> {
        if pno >= self.pager.npages {
            return Err(DbError::Corrupt);
        }
        Ok(self.pager.read(self.fs, pno))
    }

    /// Journals the pre-image of `pno` before its first modification
    /// (write transactions only).
    fn save_preimage(&mut self, pno: u32) {
        if let Some(j) = self.journal.as_deref_mut() {
            if !j.is_saved(pno) {
                let pre = self.pager.read(self.fs, pno);
                j.save(self.fs, pno, pre).expect("journal write failed");
            }
        }
    }

    /// Writes a whole page, journaling its pre-image first.
    pub fn write(&mut self, pno: u32, data: &[u8; PAGE_SIZE]) {
        self.save_preimage(pno);
        self.pager.write(self.fs, pno, data);
    }

    /// A page to update in place, its pre-image journaled first.
    pub fn page_mut(&mut self, pno: u32) -> &mut [u8; PAGE_SIZE] {
        self.save_preimage(pno);
        self.pager.page_mut(self.fs, pno)
    }

    /// Allocates a fresh page.
    pub fn allocate(&mut self) -> u32 {
        self.pager.allocate(self.fs)
    }
}

const CATALOG_PAGE: u32 = 0;
const CATALOG_MAGIC: u32 = 0x5bdb_ca7a;

/// Table name → root page, in name order (the order the catalog page
/// lists them).
type Tables = BTreeMap<String, u32>;

/// Parses the catalog page: magic, a count byte, then `(name length,
/// name, root page)` entries. The page comes from a file, so a bad magic
/// or an entry that runs past the page is [`DbError::Catalog`].
fn parse_catalog(page: &[u8; PAGE_SIZE]) -> Result<Tables, DbError> {
    let field = |at: usize, len: usize| page.get(at..at + len).ok_or(DbError::Catalog);
    if field(0, 4)? != CATALOG_MAGIC.to_le_bytes() {
        return Err(DbError::Catalog);
    }
    let mut tables = Tables::new();
    let mut at = 5;
    for _ in 0..page[4] {
        let len = field(at, 1)?[0] as usize;
        let name = String::from_utf8_lossy(field(at + 1, len)?).into_owned();
        let root = field(at + 1 + len, 4)?;
        tables.insert(name, u32::from_le_bytes(root.try_into().expect("4 bytes")));
        at += 5 + len;
    }
    Ok(tables)
}

/// An open database.
///
/// # Examples
///
/// ```
/// use sb_db::{Database, Value};
/// use sb_fs::{FileSystem, RamDisk};
///
/// let fs = FileSystem::mkfs(RamDisk::new(4096), 32);
/// let mut db = Database::open(fs, "/app.db", 32).unwrap();
/// db.create_table("users").unwrap();
/// db.insert("users", 7, &[Value::Text("ada".into())]).unwrap();
/// assert_eq!(
///     db.query("users", 7).unwrap(),
///     Some(vec![Value::Text("ada".into())])
/// );
/// ```
pub struct Database<F: FileApi> {
    fs: F,
    pager: Pager,
    journal: Journal,
    db_file: Inum,
    journal_file: Inum,
    tables: Tables,
}

impl<F: FileApi> Database<F> {
    /// Opens (creating if needed) the database at `path`, replaying a hot
    /// journal left by a crash.
    pub fn open(mut fs: F, path: &str, cache_pages: usize) -> Result<Self, DbError> {
        let db_file = match fs.open(path) {
            Ok(i) => i,
            Err(FsError::NotFound) => fs.create(path)?,
            Err(e) => return Err(e.into()),
        };
        let jpath = format!("{path}.journal");
        let jfile = match fs.open(&jpath) {
            Ok(i) => i,
            Err(FsError::NotFound) => fs.create(&jpath)?,
            Err(e) => return Err(e.into()),
        };
        Journal::replay(&mut fs, jfile, db_file)?;
        let mut pager = Pager::new(&mut fs, db_file, cache_pages);
        // Load (or initialize) the catalog.
        let mut tables = Tables::new();
        if pager.npages == 0 {
            let mut page = [0u8; PAGE_SIZE];
            page[..4].copy_from_slice(&CATALOG_MAGIC.to_le_bytes());
            pager.write(&mut fs, CATALOG_PAGE, &page);
            pager.flush(&mut fs)?;
        } else {
            tables = parse_catalog(pager.read(&mut fs, CATALOG_PAGE))?;
        }
        Ok(Database {
            fs,
            pager,
            journal: Journal::new(jfile),
            db_file,
            journal_file: jfile,
            tables,
        })
    }

    /// Unmounts, returning the file system.
    pub fn close(mut self) -> Result<F, DbError> {
        self.pager.flush(&mut self.fs)?;
        Ok(self.fs)
    }

    /// A transaction context over this database; a write transaction
    /// journals pre-images.
    fn txn(&mut self, write: bool) -> TxnCtx<'_, F> {
        TxnCtx {
            fs: &mut self.fs,
            pager: &mut self.pager,
            journal: write.then_some(&mut self.journal),
        }
    }

    fn write_catalog(&mut self) -> Result<(), DbError> {
        let mut page = [0u8; PAGE_SIZE];
        page[..4].copy_from_slice(&CATALOG_MAGIC.to_le_bytes());
        page[4] = self.tables.len() as u8;
        let mut at = 5;
        for (name, root) in &self.tables {
            if at + 5 + name.len() > PAGE_SIZE || name.len() > 250 {
                return Err(DbError::Catalog);
            }
            page[at] = name.len() as u8;
            page[at + 1..at + 1 + name.len()].copy_from_slice(name.as_bytes());
            page[at + 1 + name.len()..at + 5 + name.len()].copy_from_slice(&root.to_le_bytes());
            at += 5 + name.len();
        }
        self.txn(true).write(CATALOG_PAGE, &page);
        Ok(())
    }

    /// Creates a table.
    pub fn create_table(&mut self, name: &str) -> Result<(), DbError> {
        if self.tables.contains_key(name) {
            return Err(DbError::TableExists);
        }
        let mut ctx = self.txn(true);
        let root = ctx.allocate();
        ctx.write(root, &btree::Node::Leaf(vec![]).encode());
        self.tables.insert(name.to_string(), root);
        self.write_catalog()?;
        self.commit()
    }

    fn root_of(&self, table: &str) -> Result<u32, DbError> {
        self.tables.get(table).copied().ok_or(DbError::NoSuchTable)
    }

    fn commit(&mut self) -> Result<(), DbError> {
        self.pager.flush(&mut self.fs)?;
        self.journal.commit(&mut self.fs)?;
        Ok(())
    }

    /// Ends a failed write transaction: rolls back, then reports `e`.
    fn abort<T>(&mut self, e: DbError) -> Result<T, DbError> {
        self.rollback()?;
        Err(e)
    }

    /// The body of `INSERT` (`must_exist == false`) and `UPDATE`
    /// (`must_exist == true`): puts the row unless the key's presence is
    /// wrong for the statement, which rolls the transaction back.
    fn put(
        &mut self,
        table: &str,
        key: i64,
        row: &[Value],
        must_exist: bool,
    ) -> Result<(), DbError> {
        let root = self.root_of(table)?;
        let bytes = encode_record(row);
        if bytes.len() > btree::MAX_VALUE {
            return Err(DbError::RecordTooLarge);
        }
        let mut ctx = self.txn(true);
        let put = match btree::get(&mut ctx, root, key, |_| ()) {
            Ok(found) if found.is_some() == must_exist => {
                btree::insert(&mut ctx, root, key, &bytes).map(|(new_root, _)| new_root)
            }
            Ok(Some(())) => Err(DbError::DuplicateKey),
            Ok(None) => Err(DbError::KeyNotFound),
            Err(e) => Err(e),
        };
        match put {
            Ok(new_root) => {
                if new_root != root {
                    self.tables.insert(table.to_string(), new_root);
                    self.write_catalog()?;
                }
                self.commit()
            }
            Err(e) => self.abort(e),
        }
    }

    /// `INSERT`: adds a new row; duplicate keys are refused (and the
    /// transaction rolled back).
    pub fn insert(&mut self, table: &str, key: i64, row: &[Value]) -> Result<(), DbError> {
        self.put(table, key, row, false)
    }

    /// `UPDATE`: replaces an existing row.
    pub fn update(&mut self, table: &str, key: i64, row: &[Value]) -> Result<(), DbError> {
        self.put(table, key, row, true)
    }

    /// `SELECT … WHERE key =`: reads a row (served from the page cache
    /// when hot — the Table 4 query-speedup explanation).
    pub fn query(&mut self, table: &str, key: i64) -> Result<Option<Vec<Value>>, DbError> {
        let root = self.root_of(table)?;
        // SQLite checks for a hot journal at the start of every read
        // transaction — one real file read per query, which is why even
        // the read-mostly YCSB mixes serialize on the file-system path.
        let mut head = [0u8; 8];
        self.fs.read_at(self.journal_file, 0, &mut head);
        let mut ctx = self.txn(false);
        Ok(btree::get(&mut ctx, root, key, decode_record)?.flatten())
    }

    /// `DELETE`: removes a row.
    pub fn delete(&mut self, table: &str, key: i64) -> Result<(), DbError> {
        let root = self.root_of(table)?;
        let mut ctx = self.txn(true);
        match btree::delete(&mut ctx, root, key) {
            Ok(true) => self.commit(),
            Ok(false) => self.abort(DbError::KeyNotFound),
            Err(e) => self.abort(e),
        }
    }

    /// Range scan: rows with `lo <= key <= hi`, in key order (YCSB's
    /// SCAN operation / `SELECT … WHERE key BETWEEN`).
    pub fn scan_range(
        &mut self,
        table: &str,
        lo: i64,
        hi: i64,
    ) -> Result<Vec<(i64, Vec<Value>)>, DbError> {
        let root = self.root_of(table)?;
        let mut ctx = self.txn(false);
        Ok(btree::scan_range(&mut ctx, root, lo, hi)?
            .into_iter()
            .filter_map(|(k, b)| decode_record(&b).map(|r| (k, r)))
            .collect())
    }

    /// Full scan of a table in key order.
    pub fn scan(&mut self, table: &str) -> Result<Vec<(i64, Vec<Value>)>, DbError> {
        self.scan_range(table, i64::MIN, i64::MAX)
    }

    fn rollback(&mut self) -> Result<(), DbError> {
        self.journal.rollback(&mut self.fs, self.db_file)?;
        self.pager.invalidate();
        // Reload the catalog in case a root moved mid-transaction.
        self.tables = parse_catalog(self.pager.read(&mut self.fs, CATALOG_PAGE))?;
        self.pager.npages = self.fs.size_of(self.db_file).div_ceil(PAGE_SIZE) as u32;
        Ok(())
    }

    /// Current counters.
    pub fn stats(&self) -> DbStats {
        DbStats {
            cache_hits: self.pager.hits,
            cache_misses: self.pager.misses,
            writebacks: self.pager.writebacks,
            commits: self.journal.commits,
        }
    }

    /// Mutable borrow of the underlying file system. A file-system
    /// *proxy* (the graph's charged FS adapter) carries configuration of
    /// its own — which transport to charge, whether charging is live —
    /// that the owner must be able to adjust after the database opened,
    /// e.g. to pre-load rows without billing IPC crossings for them.
    pub fn fs_mut(&mut self) -> &mut F {
        &mut self.fs
    }
}
