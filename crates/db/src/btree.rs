//! Page-based B-tree tables.
//!
//! Each table is a B-tree of `(i64 key → record bytes)` pairs over
//! [`crate::PAGE_SIZE`] pages, in the SQLite mold: leaves hold the
//! records, internal nodes hold separator keys, nodes split upward when a
//! page overflows. Deletion removes from the leaf without rebalancing
//! (pages may run underfull — the same simplification early SQLite used).
//!
//! Lookups and every update that fits its page work **on the encoded
//! page**: a binary search over an internal page's fixed-stride entries, a
//! length-walk over a leaf's, and a `copy_within` to open or close the gap
//! — byte for byte what decoding, editing and re-encoding the node would
//! produce. [`Node`] is decoded only where a page splits and on scans.
//!
//! A page comes from a file, so its count and length fields are untrusted:
//! every walk checks them against [`crate::PAGE_SIZE`] and reports
//! [`DbError::Corrupt`] rather than index past the page.

use sb_fs::FileApi;

use crate::{
    db::{DbError, TxnCtx},
    PAGE_SIZE,
};

/// Maximum record size storable in a leaf.
pub const MAX_VALUE: usize = 1536;

/// A leaf's `(key, record)` entries.
pub type Items = Vec<(i64, Vec<u8>)>;

const LEAF: u8 = 1;
const INTERNAL: u8 = 2;
const HDR: usize = 8;
/// Bytes of a leaf entry before its record: key + length.
const LEAF_ENTRY: usize = 10;
/// Bytes of an internal entry: separator key + right child.
const INTERNAL_ENTRY: usize = 12;

/// Deepest tree a descent follows. Splits keep every level but the root at
/// least half full, so a real tree over 2^32 pages is a handful of levels;
/// a longer chain is a cycle in a corrupt file.
const MAX_DEPTH: usize = 32;

type Page = [u8; PAGE_SIZE];

fn entry_count(p: &Page) -> usize {
    u16::from_le_bytes([p[2], p[3]]) as usize
}

fn set_entry_count(p: &mut Page, n: usize) {
    p[2..4].copy_from_slice(&(n as u16).to_le_bytes());
}

fn key_at(p: &Page, at: usize) -> i64 {
    i64::from_le_bytes(p[at..at + 8].try_into().expect("8 bytes"))
}

fn child_at(p: &Page, at: usize) -> u32 {
    u32::from_le_bytes(p[at..at + 4].try_into().expect("4 bytes"))
}

/// The checked key count of an internal page.
fn internal_keys(p: &Page) -> Result<usize, DbError> {
    let n = entry_count(p);
    if HDR + n * INTERNAL_ENTRY > PAGE_SIZE {
        return Err(DbError::Corrupt);
    }
    Ok(n)
}

/// The child of internal page `p` to follow for `key`: its index (how
/// many separators are `<= key`) and its page number.
fn internal_child(p: &Page, key: i64) -> Result<(usize, u32), DbError> {
    let (mut lo, mut hi) = (0, internal_keys(p)?);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if key_at(p, HDR + mid * INTERNAL_ENTRY) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    // Child 0 sits in the header; child `i + 1` rides with key `i`.
    let at = if lo == 0 {
        4
    } else {
        HDR + (lo - 1) * INTERNAL_ENTRY + 8
    };
    Ok((lo, child_at(p, at)))
}

/// Inserts separator `sep` with right child `right` as entry `idx` of an
/// internal page holding `n` keys. The caller has checked it fits.
fn internal_insert(p: &mut Page, n: usize, idx: usize, sep: i64, right: u32) {
    let at = HDR + idx * INTERNAL_ENTRY;
    p.copy_within(at..HDR + n * INTERNAL_ENTRY, at + INTERNAL_ENTRY);
    p[at..at + 8].copy_from_slice(&sep.to_le_bytes());
    p[at + 8..at + INTERNAL_ENTRY].copy_from_slice(&right.to_le_bytes());
    set_entry_count(p, n + 1);
}

/// The key and record length of the leaf entry at `at`, checked against
/// the page bounds.
fn leaf_entry(p: &Page, at: usize) -> Result<(i64, usize), DbError> {
    let len = p.get(at + 8..at + LEAF_ENTRY).ok_or(DbError::Corrupt)?;
    let len = u16::from_le_bytes([len[0], len[1]]) as usize;
    if at + LEAF_ENTRY + len > PAGE_SIZE {
        return Err(DbError::Corrupt);
    }
    Ok((key_at(p, at), len))
}

/// Where `key` sits, or would sit, in a leaf.
struct LeafSlot {
    /// Offset of the first entry with a key `>= key` (`end` if none).
    at: usize,
    /// The record length of that entry, if its key *is* `key`.
    found: Option<usize>,
    /// First free byte: the leaf's encoded size.
    end: usize,
}

fn leaf_slot(p: &Page, key: i64) -> Result<LeafSlot, DbError> {
    let (mut end, mut slot) = (HDR, None);
    for _ in 0..entry_count(p) {
        let (k, len) = leaf_entry(p, end)?;
        if slot.is_none() && k >= key {
            slot = Some((end, (k == key).then_some(len)));
        }
        end += LEAF_ENTRY + len;
    }
    let (at, found) = slot.unwrap_or((end, None));
    Ok(LeafSlot { at, found, end })
}

/// The leaf's encoded size once `key → value` is put at `slot`.
fn leaf_size_after_put(slot: &LeafSlot, value: &[u8]) -> usize {
    match slot.found {
        Some(old) => slot.end - old + value.len(),
        None => slot.end + LEAF_ENTRY + value.len(),
    }
}

/// Puts `key → value` at `slot` (replacing the record found there, or
/// opening a gap for a new entry). The caller has checked it fits.
fn leaf_put(p: &mut Page, slot: &LeafSlot, key: i64, value: &[u8]) {
    let at = slot.at;
    let body = at + LEAF_ENTRY;
    let new_end = leaf_size_after_put(slot, value);
    match slot.found {
        Some(old) => p.copy_within(body + old..slot.end, body + value.len()),
        None => {
            p.copy_within(at..slot.end, body + value.len());
            p[at..at + 8].copy_from_slice(&key.to_le_bytes());
            set_entry_count(p, entry_count(p) + 1);
        }
    }
    p[at + 8..body].copy_from_slice(&(value.len() as u16).to_le_bytes());
    p[body..body + value.len()].copy_from_slice(value);
    if new_end < slot.end {
        p[new_end..slot.end].fill(0);
    }
    // A zero page reads as an empty leaf; once written it carries the tag.
    p[0] = LEAF;
}

/// Removes the entry found at `slot`.
fn leaf_remove(p: &mut Page, slot: &LeafSlot) {
    let len = LEAF_ENTRY + slot.found.expect("remove of a found entry");
    p.copy_within(slot.at + len..slot.end, slot.at);
    p[slot.end - len..slot.end].fill(0);
    set_entry_count(p, entry_count(p) - 1);
    p[0] = LEAF;
}

/// Decoded node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Sorted `(key, record)` pairs.
    Leaf(Vec<(i64, Vec<u8>)>),
    /// `children.len() == keys.len() + 1`; subtree `children[i]` holds
    /// keys `< keys[i]`, `children[i+1]` holds keys `>= keys[i]`.
    Internal {
        /// Separator keys.
        keys: Vec<i64>,
        /// Child page numbers.
        children: Vec<u32>,
    },
}

impl Node {
    /// Serialized size in bytes.
    pub fn encoded_size(&self) -> usize {
        match self {
            Node::Leaf(items) => leaf_size(items),
            Node::Internal { keys, .. } => internal_size(keys.len()),
        }
    }

    /// Serializes into a page.
    ///
    /// # Panics
    ///
    /// Panics if the node exceeds the page (callers split first).
    pub fn encode(&self) -> [u8; PAGE_SIZE] {
        assert!(self.encoded_size() <= PAGE_SIZE, "node overflows page");
        let mut p = [0u8; PAGE_SIZE];
        match self {
            Node::Leaf(items) => {
                p[0] = LEAF;
                set_entry_count(&mut p, items.len());
                let mut at = HDR;
                for (k, v) in items {
                    p[at..at + 8].copy_from_slice(&k.to_le_bytes());
                    p[at + 8..at + 10].copy_from_slice(&(v.len() as u16).to_le_bytes());
                    p[at + 10..at + 10 + v.len()].copy_from_slice(v);
                    at += LEAF_ENTRY + v.len();
                }
            }
            Node::Internal { keys, children } => {
                assert_eq!(children.len(), keys.len() + 1);
                p[0] = INTERNAL;
                set_entry_count(&mut p, keys.len());
                p[4..8].copy_from_slice(&children[0].to_le_bytes());
                let mut at = HDR;
                for (i, k) in keys.iter().enumerate() {
                    p[at..at + 8].copy_from_slice(&k.to_le_bytes());
                    p[at + 8..at + 12].copy_from_slice(&children[i + 1].to_le_bytes());
                    at += INTERNAL_ENTRY;
                }
            }
        }
        p
    }

    /// Deserializes a page (a zero page decodes as an empty leaf); a count
    /// or length that runs past the page is [`DbError::Corrupt`].
    pub fn decode(p: &[u8; PAGE_SIZE]) -> Result<Node, DbError> {
        if p[0] == INTERNAL {
            let entries = (0..internal_keys(p)?).map(|i| HDR + i * INTERNAL_ENTRY);
            let keys = entries.clone().map(|at| key_at(p, at)).collect();
            let mut children = vec![child_at(p, 4)];
            children.extend(entries.map(|at| child_at(p, at + 8)));
            return Ok(Node::Internal { keys, children });
        }
        let mut items = Items::new();
        let mut at = HDR;
        for _ in 0..entry_count(p) {
            let (k, len) = leaf_entry(p, at)?;
            items.push((k, p[at + LEAF_ENTRY..][..len].to_vec()));
            at += LEAF_ENTRY + len;
        }
        Ok(Node::Leaf(items))
    }
}

/// What [`Node::encoded_size`] charges an internal node of `keys` keys
/// (four bytes more than it encodes to; the split points depend on it).
fn internal_size(keys: usize) -> usize {
    HDR + 4 + keys * INTERNAL_ENTRY
}

/// Looks `key` up starting at `root`, handing the record found to `hit`.
pub fn get<F: FileApi, R>(
    ctx: &mut TxnCtx<'_, F>,
    root: u32,
    key: i64,
    hit: impl FnOnce(&[u8]) -> R,
) -> Result<Option<R>, DbError> {
    let mut at = root;
    for _ in 0..MAX_DEPTH {
        let page = ctx.read(at)?;
        if page[0] == INTERNAL {
            at = internal_child(page, key)?.1;
            continue;
        }
        let slot = leaf_slot(page, key)?;
        let found = slot.found.map(|len| &page[slot.at + LEAF_ENTRY..][..len]);
        return Ok(found.map(hit));
    }
    Err(DbError::Corrupt)
}

/// Inserts (or replaces) `key → value` under `root`.
///
/// Returns `(new_root, previously_present)`. The root page number changes
/// only when the root splits.
pub fn insert<F: FileApi>(
    ctx: &mut TxnCtx<'_, F>,
    root: u32,
    key: i64,
    value: &[u8],
) -> Result<(u32, bool), DbError> {
    assert!(value.len() <= MAX_VALUE, "record exceeds MAX_VALUE");
    let (split, existed) = insert_rec(ctx, root, key, value, MAX_DEPTH)?;
    match split {
        None => Ok((root, existed)),
        Some((sep, right)) => {
            let new_root = ctx.allocate();
            let node = Node::Internal {
                keys: vec![sep],
                children: vec![root, right],
            };
            ctx.write(new_root, &node.encode());
            Ok((new_root, existed))
        }
    }
}

/// `(separator, right page)` of a split the parent must absorb, and
/// whether the key was already present.
type Inserted = (Option<(i64, u32)>, bool);

fn insert_rec<F: FileApi>(
    ctx: &mut TxnCtx<'_, F>,
    at: u32,
    key: i64,
    value: &[u8],
    depth: usize,
) -> Result<Inserted, DbError> {
    if depth == 0 {
        return Err(DbError::Corrupt);
    }
    let page = ctx.read(at)?;
    if page[0] == INTERNAL {
        let n = internal_keys(page)?;
        let (idx, child) = internal_child(page, key)?;
        // Only a full node can split, and the page is read once per
        // visit: a full node is decoded now, before the descent.
        let full = (internal_size(n + 1) > PAGE_SIZE)
            .then(|| Node::decode(page))
            .transpose()?;
        let (split, existed) = insert_rec(ctx, child, key, value, depth - 1)?;
        let Some((sep, right)) = split else {
            return Ok((None, existed));
        };
        let Some(Node::Internal {
            mut keys,
            mut children,
        }) = full
        else {
            internal_insert(ctx.page_mut(at), n, idx, sep, right);
            return Ok((None, existed));
        };
        // Split the internal node.
        keys.insert(idx, sep);
        children.insert(idx + 1, right);
        let mid = keys.len() / 2;
        let sep_up = keys[mid];
        let right_node = Node::Internal {
            keys: keys[mid + 1..].to_vec(),
            children: children[mid + 1..].to_vec(),
        };
        let left_node = Node::Internal {
            keys: keys[..mid].to_vec(),
            children: children[..=mid].to_vec(),
        };
        let right_pno = ctx.allocate();
        ctx.write(at, &left_node.encode());
        ctx.write(right_pno, &right_node.encode());
        return Ok((Some((sep_up, right_pno)), existed));
    }
    let slot = leaf_slot(page, key)?;
    let existed = slot.found.is_some();
    if leaf_size_after_put(&slot, value) <= PAGE_SIZE {
        leaf_put(ctx.page_mut(at), &slot, key, value);
        return Ok((None, existed));
    }
    // Split the leaf at the byte midpoint.
    let Node::Leaf(mut items) = Node::decode(page)? else {
        unreachable!("not an internal page")
    };
    match items.binary_search_by_key(&key, |(k, _)| *k) {
        Ok(i) => items[i].1 = value.to_vec(),
        Err(i) => items.insert(i, (key, value.to_vec())),
    }
    let (left, right) = split_items(items);
    if leaf_size(&left).max(leaf_size(&right)) > PAGE_SIZE {
        // Only an entry no insert could have written is too big to share
        // a page with its neighbours.
        return Err(DbError::Corrupt);
    }
    let sep = right[0].0;
    let right_pno = ctx.allocate();
    ctx.write(at, &Node::Leaf(left).encode());
    ctx.write(right_pno, &Node::Leaf(right).encode());
    Ok((Some((sep, right_pno)), existed))
}

/// The encoded size of a leaf holding `items`.
fn leaf_size(items: &[(i64, Vec<u8>)]) -> usize {
    HDR + items
        .iter()
        .map(|(_, v)| LEAF_ENTRY + v.len())
        .sum::<usize>()
}

fn split_items(items: Items) -> (Items, Items) {
    let total = leaf_size(&items) - HDR;
    let mut acc = 0;
    let mut cut = items.len() / 2;
    for (i, (_, v)) in items.iter().enumerate() {
        acc += LEAF_ENTRY + v.len();
        if acc >= total / 2 {
            // The entry that crosses the midpoint goes left, unless the
            // left page cannot hold it: then the right one can, records
            // being capped at MAX_VALUE.
            let left = if HDR + acc > PAGE_SIZE { i } else { i + 1 };
            cut = left.min(items.len() - 1).max(1);
            break;
        }
    }
    let mut left = items;
    let right = left.split_off(cut);
    (left, right)
}

/// Deletes `key` under `root`; returns true if it was present.
pub fn delete<F: FileApi>(ctx: &mut TxnCtx<'_, F>, root: u32, key: i64) -> Result<bool, DbError> {
    let mut at = root;
    for _ in 0..MAX_DEPTH {
        let page = ctx.read(at)?;
        if page[0] == INTERNAL {
            at = internal_child(page, key)?.1;
            continue;
        }
        let slot = leaf_slot(page, key)?;
        if slot.found.is_some() {
            leaf_remove(ctx.page_mut(at), &slot);
        }
        return Ok(slot.found.is_some());
    }
    Err(DbError::Corrupt)
}

/// In-order traversal of `(key, record)` pairs with `lo <= key <= hi`.
pub fn scan_range<F: FileApi>(
    ctx: &mut TxnCtx<'_, F>,
    root: u32,
    lo: i64,
    hi: i64,
) -> Result<Items, DbError> {
    let mut out = Vec::new();
    scan_rec(ctx, root, lo, hi, MAX_DEPTH, &mut out)?;
    Ok(out)
}

fn scan_rec<F: FileApi>(
    ctx: &mut TxnCtx<'_, F>,
    at: u32,
    lo: i64,
    hi: i64,
    depth: usize,
    out: &mut Items,
) -> Result<(), DbError> {
    if depth == 0 {
        return Err(DbError::Corrupt);
    }
    match Node::decode(ctx.read(at)?)? {
        Node::Leaf(items) => out.extend(items.into_iter().filter(|(k, _)| (lo..=hi).contains(k))),
        Node::Internal { keys, children } => {
            // Children overlapping [lo, hi]: from the child that may hold
            // lo through the child that may hold hi.
            let first = keys.partition_point(|k| *k <= lo);
            let last = keys.partition_point(|k| *k <= hi);
            for &c in &children[first..=last] {
                scan_rec(ctx, c, lo, hi, depth - 1, out)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// A leaf `encode` accepts: sorted distinct keys, records all empty
    /// (408 entries fill a page), all small, or of every length up to
    /// `MAX_VALUE`, stopped before the page overflows.
    fn leaf_strategy() -> impl Strategy<Value = Items> {
        let entries = proptest::collection::vec((1i64..6, any::<u16>()), 0..420);
        (entries, 0usize..3, any::<u8>()).prop_map(|(entries, shape, fill)| {
            let longest = [0, 40, MAX_VALUE][shape];
            let mut items = Items::new();
            let mut key = -40;
            for (gap, len) in entries {
                key += gap;
                let len = len as usize % (longest + 1);
                if leaf_size(&items) + LEAF_ENTRY + len > PAGE_SIZE {
                    break;
                }
                items.push((key, vec![fill ^ key as u8; len]));
            }
            items
        })
    }

    /// An internal node `encode` accepts, up to the 340 keys a page holds.
    fn internal_strategy() -> impl Strategy<Value = (Vec<i64>, Vec<u32>)> {
        let keys = prop_oneof![0usize..4, 0usize..341, 336usize..341];
        (keys, any::<u32>()).prop_map(|(n, seed)| {
            let keys = (0..n as i64).map(|i| i * 3 - 100).collect();
            let children = (0..=n as u32).map(|i| seed.wrapping_add(i * 7)).collect();
            (keys, children)
        })
    }

    proptest! {
        /// In-page lookup, put and remove against the reference: decode
        /// the node, edit the vectors, encode — same answer, same split
        /// decision, same bytes.
        #[test]
        fn leaf_patches_match_decode_edit_encode(
            items in leaf_strategy(),
            key in -45i64..2200,
            len in prop_oneof![Just(0usize), 0usize..60, 0usize..=MAX_VALUE],
        ) {
            let page = Node::Leaf(items.clone()).encode();
            let value = vec![0xa5u8; len];
            let slot = leaf_slot(&page, key).unwrap();
            let at = items.binary_search_by_key(&key, |(k, _)| *k);
            prop_assert_eq!(slot.found, at.ok().map(|i| items[i].1.len()));
            prop_assert_eq!(slot.end, leaf_size(&items));
            prop_assert_eq!(Node::decode(&page), Ok(Node::Leaf(items.clone())));

            let mut put = items.clone();
            match at {
                Ok(i) => put[i].1 = value.clone(),
                Err(i) => put.insert(i, (key, value.clone())),
            }
            prop_assert_eq!(leaf_size_after_put(&slot, &value), leaf_size(&put));
            if leaf_size(&put) <= PAGE_SIZE {
                let mut patched = page;
                leaf_put(&mut patched, &slot, key, &value);
                prop_assert!(patched == Node::Leaf(put).encode(), "put of key {}", key);
            }
            if let Ok(i) = at {
                let mut removed = items.clone();
                removed.remove(i);
                let mut patched = page;
                leaf_remove(&mut patched, &slot);
                prop_assert!(patched == Node::Leaf(removed).encode(), "remove of key {}", key);
            }
        }

        #[test]
        fn internal_search_and_insert_match_decode_edit_encode(
            node in internal_strategy(),
            key in -110i64..1000,
            right in any::<u32>(),
        ) {
            let (keys, children) = node;
            let page = Node::Internal { keys: keys.clone(), children: children.clone() }.encode();
            let idx = keys.partition_point(|k| *k <= key);
            prop_assert_eq!(internal_keys(&page), Ok(keys.len()));
            prop_assert_eq!(internal_child(&page, key), Ok((idx, children[idx])));

            let (mut keys, mut children) = (keys, children);
            let n = keys.len();
            keys.insert(idx, key);
            children.insert(idx + 1, right);
            let grown = Node::Internal { keys, children };
            prop_assert_eq!(internal_size(n + 1), grown.encoded_size());
            if grown.encoded_size() <= PAGE_SIZE {
                let mut patched = page;
                internal_insert(&mut patched, n, idx, key, right);
                prop_assert!(patched == grown.encode(), "insert at {}", idx);
            }
        }

        /// Whatever the bytes, the walks answer or report `Corrupt`; they
        /// never index past the page.
        #[test]
        fn arbitrary_pages_never_index_out_of_bounds(
            bytes in proptest::collection::vec(any::<u8>(), PAGE_SIZE..PAGE_SIZE + 1),
            tag in 0u8..4,
            count in prop_oneof![0u16..8, 300u16..420, any::<u16>()],
            key in any::<i64>(),
        ) {
            let count: u16 = count;
            let mut page: Page = bytes.try_into().unwrap();
            page[0] = tag;
            page[2..4].copy_from_slice(&count.to_le_bytes());
            let _ = internal_child(&page, key);
            let _ = Node::decode(&page);
            if let Ok(slot) = leaf_slot(&page, key) {
                prop_assert!(slot.at <= slot.end && slot.end <= PAGE_SIZE);
            }
        }
    }

    /// A page whose three records fill it exactly, split by a fourth that
    /// straddles the byte midpoint: the midpoint rule alone would leave
    /// 4,354 bytes on the left.
    #[test]
    fn split_moves_the_straddling_entry_right_when_left_would_overflow() {
        let sized = |key: i64, entry: usize| (key, vec![key as u8; entry - LEAF_ENTRY]);
        let items = vec![
            sized(1, 1300),
            sized(2, 1500),
            sized(3, 1546),
            sized(4, 1288),
        ];
        assert_eq!(leaf_size(&items), HDR + 5634);
        let (l, r) = split_items(items);
        assert_eq!((l.len(), r.len()), (2, 2));
        assert!(leaf_size(&l) <= PAGE_SIZE && leaf_size(&r) <= PAGE_SIZE);
    }

    #[test]
    fn node_roundtrip_leaf() {
        let n = Node::Leaf(vec![(1, vec![9; 30]), (5, vec![7; 100])]);
        assert_eq!(Node::decode(&n.encode()), Ok(n.clone()));
    }

    #[test]
    fn node_roundtrip_internal() {
        let n = Node::Internal {
            keys: vec![10, 20],
            children: vec![3, 4, 5],
        };
        assert_eq!(Node::decode(&n.encode()), Ok(n.clone()));
    }

    #[test]
    fn zero_page_is_empty_leaf() {
        assert_eq!(Node::decode(&[0u8; PAGE_SIZE]), Ok(Node::Leaf(vec![])));
    }

    #[test]
    fn split_items_balances_bytes() {
        let items: Vec<_> = (0..10i64).map(|k| (k, vec![0u8; 100])).collect();
        let (l, r) = split_items(items);
        assert!(!l.is_empty() && !r.is_empty());
        assert_eq!(l.len() + r.len(), 10);
        assert!(l.last().unwrap().0 < r[0].0);
    }
}
