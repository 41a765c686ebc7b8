//! The per-process EPTP list, including the >512-entry LRU extension.
//!
//! VT-x stores at most 512 EPT pointers in the VMCS's EPTP list; `VMFUNC`
//! leaf 0 can switch to any of them without an exit. The paper's §10 notes
//! this limit and *plans* an LRU eviction scheme for processes bound to more
//! than 512 servers — we implement that plan: [`EptpList::ensure`] returns
//! the slot of an EPT root, evicting the least-recently-used slot (above a
//! pinned prefix) when the list is full. A `VMFUNC` to a stale slot faults
//! to the Rootkernel, which reinstalls the mapping and retries — slow but
//! correct, exactly like a TLB refill.

use sb_mem::Hpa;

/// Hardware capacity of the VMCS EPTP list.
pub const EPTP_LIST_CAPACITY: usize = 512;

/// An EPTP list with LRU slot management.
#[derive(Debug, Clone, Default)]
pub struct EptpList {
    /// `slots[i]` is the EPT root installed at `VMFUNC` index `i`.
    slots: Vec<Option<Hpa>>,
    /// Recency stamps parallel to `slots`.
    stamps: Vec<u64>,
    /// Slots below this index are pinned (slot 0 = the process's own EPT).
    pinned: usize,
    clock: u64,
    /// Evictions performed because the list was full (each implies a future
    /// fault + reinstall for the evicted target).
    pub evictions: u64,
}

impl EptpList {
    /// An empty list with `pinned` reserved low slots.
    pub fn new(pinned: usize) -> Self {
        assert!(pinned <= EPTP_LIST_CAPACITY);
        EptpList {
            slots: Vec::new(),
            stamps: Vec::new(),
            pinned,
            clock: 0,
            evictions: 0,
        }
    }

    /// Installs `root` at a specific pinned slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below the pinned prefix.
    pub fn pin(&mut self, slot: usize, root: Hpa) {
        assert!(slot < self.pinned, "slot {slot} is not pinned");
        self.grow_to(slot + 1);
        self.slots[slot] = Some(root);
        self.stamps[slot] = u64::MAX; // Never evicted.
    }

    fn grow_to(&mut self, len: usize) {
        while self.slots.len() < len {
            self.slots.push(None);
            self.stamps.push(0);
        }
    }

    /// Returns the slot currently holding `root`, if any, refreshing its
    /// recency.
    pub fn slot_of(&mut self, root: Hpa) -> Option<usize> {
        self.clock += 1;
        let idx = self.slots.iter().position(|s| *s == Some(root))?;
        if idx >= self.pinned {
            self.stamps[idx] = self.clock;
        }
        Some(idx)
    }

    /// Ensures `root` occupies some slot and returns `(slot, evicted)`.
    ///
    /// `evicted` is the EPT root that was displaced, if the list was full —
    /// the caller (Rootkernel) must treat a later `VMFUNC` to that root as
    /// a fault + reinstall.
    pub fn ensure(&mut self, root: Hpa) -> (usize, Option<Hpa>) {
        if let Some(idx) = self.slot_of(root) {
            return (idx, None);
        }
        self.clock += 1;
        // Free slot?
        if let Some(idx) = self.slots.iter().position(Option::is_none) {
            self.slots[idx] = Some(root);
            self.stamps[idx] = self.clock;
            return (idx, None);
        }
        if self.slots.len() < EPTP_LIST_CAPACITY {
            self.slots.push(Some(root));
            self.stamps.push(self.clock);
            return (self.slots.len() - 1, None);
        }
        // Full: evict the LRU unpinned slot.
        let (idx, _) = self
            .stamps
            .iter()
            .enumerate()
            .skip(self.pinned)
            .min_by_key(|(_, &s)| s)
            .expect("list has unpinned slots");
        let evicted = self.slots[idx];
        self.slots[idx] = Some(root);
        self.stamps[idx] = self.clock;
        self.evictions += 1;
        (idx, evicted)
    }

    /// Forcibly evicts `root` from its slot (fault injection / a hostile
    /// sibling filling the list). Pinned slots are immune. Returns whether
    /// a slot was vacated; a later `VMFUNC` to `root` takes the fault +
    /// reinstall path.
    pub fn evict(&mut self, root: Hpa) -> bool {
        match self.slots.iter().position(|s| *s == Some(root)) {
            Some(idx) if idx >= self.pinned => {
                self.slots[idx] = None;
                self.stamps[idx] = 0;
                self.evictions += 1;
                true
            }
            _ => false,
        }
    }

    /// The EPT root installed at `slot`.
    pub fn get(&self, slot: usize) -> Option<Hpa> {
        self.slots.get(slot).copied().flatten()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// True if no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_slot_zero_survives_everything() {
        let mut l = EptpList::new(1);
        l.pin(0, Hpa(0x1000));
        for i in 0..2 * EPTP_LIST_CAPACITY as u64 {
            l.ensure(Hpa(0x10_0000 + i * 0x1000));
        }
        assert_eq!(l.get(0), Some(Hpa(0x1000)));
    }

    #[test]
    fn ensure_is_idempotent() {
        let mut l = EptpList::new(1);
        l.pin(0, Hpa(0x1000));
        let (a, _) = l.ensure(Hpa(0x2000));
        let (b, _) = l.ensure(Hpa(0x2000));
        assert_eq!(a, b);
        assert_eq!(l.evictions, 0);
    }

    #[test]
    fn fills_up_to_hardware_capacity_without_eviction() {
        let mut l = EptpList::new(1);
        assert!(l.is_empty());
        l.pin(0, Hpa(0x1000));
        assert!(!l.is_empty());
        for i in 0..(EPTP_LIST_CAPACITY - 1) as u64 {
            let (slot, evicted) = l.ensure(Hpa(0x10_0000 + i * 0x1000));
            assert!(evicted.is_none());
            assert!(slot < EPTP_LIST_CAPACITY);
        }
        assert_eq!(l.len(), EPTP_LIST_CAPACITY);
        assert_eq!(l.evictions, 0);
    }

    #[test]
    fn eviction_picks_least_recently_used() {
        let mut l = EptpList::new(1);
        assert!(l.is_empty());
        l.pin(0, Hpa(0x1000));
        assert!(!l.is_empty());
        for i in 0..(EPTP_LIST_CAPACITY - 1) as u64 {
            l.ensure(Hpa(0x10_0000 + i * 0x1000));
        }
        // Refresh everything except the first unpinned root.
        for i in 1..(EPTP_LIST_CAPACITY - 1) as u64 {
            l.slot_of(Hpa(0x10_0000 + i * 0x1000));
        }
        let (_, evicted) = l.ensure(Hpa(0xdead_0000));
        assert_eq!(evicted, Some(Hpa(0x10_0000)));
        assert_eq!(l.evictions, 1);
    }

    #[test]
    fn evicted_root_gets_a_new_slot_on_reensure() {
        let mut l = EptpList::new(0);
        for i in 0..EPTP_LIST_CAPACITY as u64 {
            l.ensure(Hpa(0x10_0000 + i * 0x1000));
        }
        let victim = Hpa(0x10_0000);
        let (_, evicted) = l.ensure(Hpa(0xbeef_0000));
        assert_eq!(evicted, Some(victim));
        let (slot, _) = l.ensure(victim);
        assert_eq!(l.get(slot), Some(victim));
        assert_eq!(l.evictions, 2);
    }
}
