//! What the four goldens (`tests/*_golden.rs`) share: the hashes and the
//! stream they pin their runs with, and the one check that holds a run to
//! its committed pins. Each golden mounts it with `mod support;` and uses
//! part of it.
//!
//! The hashes and the stream are spelled out here rather than taken from
//! a crate: a golden must depend on no crate's hash or generator, or a
//! change there would move every pin at once.

#![allow(dead_code)]

/// Order-sensitive fold of a `u64` stream.
#[derive(Debug, Default)]
pub struct Fold(pub u64);

impl Fold {
    pub fn put(&mut self, v: u64) {
        self.0 = ((self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15)).rotate_left(29);
    }
}

/// 64-bit FNV-1a over bytes.
#[derive(Debug)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1_0000_01b3);
        }
    }

    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// SplitMix64, started from `0x5eed` in the top 16 bits and a golden's
/// own `tag` in the low ones.
#[derive(Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn seeded(tag: u16) -> Self {
        SplitMix64((0x5eed_u64 << 48) | u64::from(tag))
    }

    pub fn draw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The goldens' expected values: `results/pins/<golden>.json`, one
/// `{"golden", "case", "value"}` row per pin and one line per row,
/// `<golden>` being the test file's name.
///
/// A golden measures its rows and hands them to [`pins::check`], which
/// also writes every row this test binary measured to
/// `$CARGO_TARGET_TMPDIR/pins/<golden>.json`. `tools/regen_results.sh`
/// copies those files into its results tree and diffs it against
/// `results/`, so a moved pin is named beside a moved results file and
/// is re-captured by the same copy.
pub mod pins {
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::{Mutex, PoisonError};

    use sb_observe::Json;

    const GOLDEN: &str = env!("CARGO_CRATE_NAME");

    fn file(dir: &str) -> PathBuf {
        Path::new(dir).join("pins").join(format!("{GOLDEN}.json"))
    }

    /// The committed `(case, value)` rows of this golden, in file order;
    /// none if it has no pins file yet.
    pub fn committed() -> Vec<(String, u64)> {
        let path = file(concat!(env!("CARGO_MANIFEST_DIR"), "/results"));
        let Ok(text) = fs::read_to_string(&path) else {
            return Vec::new();
        };
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let rows = doc.as_array().expect("a pins file is an array of rows");
        let read = |row: &Json| {
            assert_eq!(row.get("golden").and_then(Json::as_str), Some(GOLDEN));
            let case = row.get("case").and_then(Json::as_str).expect("`case`");
            match row.get("value") {
                Some(&Json::U64(value)) => (case.to_string(), value),
                other => panic!("{GOLDEN} / {case}: value {other:?} is not a u64"),
            }
        };
        rows.iter().map(read).collect()
    }

    /// Every row this binary's tests measured so far: tests of one
    /// golden share its pins file, each adding its own rows.
    static MEASURED: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());

    /// Records `measured` and fails naming each row that differs from the
    /// committed one (or has none) as `golden / case: committed X,
    /// measured Y`.
    pub fn check(measured: Vec<(String, u64)>) {
        let committed = committed();
        let pinned = |case: &str| committed.iter().position(|(c, _)| c == case);
        let moved: Vec<String> = measured
            .iter()
            .filter_map(|(case, value)| {
                let was = pinned(case).map(|i| committed[i].1);
                (was != Some(*value)).then(|| {
                    let was = was.map_or("nothing".to_string(), |v| v.to_string());
                    format!("{GOLDEN} / {case}: committed {was}, measured {value}")
                })
            })
            .collect();

        let mut all = MEASURED.lock().unwrap_or_else(PoisonError::into_inner);
        all.extend(measured);
        // Committed rows keep their place; new ones follow as measured.
        all.sort_by_key(|(case, _)| pinned(case).unwrap_or(usize::MAX));
        let rows: Vec<String> = all
            .iter()
            .map(|(case, value)| {
                let row = Json::obj()
                    .field("golden", GOLDEN)
                    .field("case", case.as_str())
                    .field("value", *value);
                row.to_string()
            })
            .collect();
        let out = file(env!("CARGO_TARGET_TMPDIR"));
        fs::create_dir_all(out.parent().expect("pins/")).expect("create pins/");
        fs::write(&out, format!("[\n{}\n]\n", rows.join(",\n"))).expect("write pins");
        drop(all);

        assert!(
            moved.is_empty(),
            "{} pins moved (re-capture: tools/regen_results.sh, then copy its results/pins/):\n{}",
            moved.len(),
            moved.join("\n")
        );
    }
}
