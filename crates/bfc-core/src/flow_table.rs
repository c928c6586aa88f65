//! The virtual-flow hash table (§3.8 "Bookkeeping").
//!
//! BFC keeps state only for flows that currently have packets queued at the
//! switch. The *hardware* model is a hash table indexed by VFID with 4-entry
//! buckets plus a small associative overflow cache (100 entries by default):
//! a flow is admitted while its VFID's bucket has a free entry, spills to the
//! cache when the bucket is full, and cannot be tracked at all once both are
//! exhausted — its packets are then directed to the per-egress overflow queue
//! and the caller counts the event (the "overflows" series of Fig. 13).
//! Entries are disambiguated within a bucket by their (ingress, egress) pair;
//! two 5-tuples that hash to the same VFID and share ingress and egress are
//! deliberately treated as one flow, exactly as the paper specifies.
//!
//! The *software* representation is decoupled from that model. Admission is
//! tracked with per-VFID and cache residency counters (which is all the
//! hardware quotas observe), while the entries themselves live in one
//! open-addressed, power-of-two, linearly probed store: a hot lookup is a
//! short probe run over a flat array instead of a `Vec<Vec<_>>` double
//! indirection. A slot is an `Option`: `None` is empty. Deletion uses
//! backward shifting, so the store never accumulates tombstones, and a
//! snapshot restore clears the store in place before re-inserting.

use bfc_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};

/// Identity of a tracked flow at one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Virtual flow ID (`hash(5-tuple) mod num_vfids`).
    pub vfid: u32,
    /// Local ingress port the flow arrives on.
    pub ingress: u32,
    /// Local egress port the flow leaves from.
    pub egress: u32,
}

bfc_sim::snap_struct! { FlowKey { vfid, ingress, egress } }

/// Per-flow state held while the flow has packets queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEntry {
    /// The flow's identity.
    pub key: FlowKey,
    /// Physical queue assigned at the egress port, if any. A flow whose only
    /// packet rode the high-priority queue has no assignment yet.
    pub queue: Option<usize>,
    /// Packets of this flow currently queued at the switch.
    pub packets_queued: u32,
    /// True if the switch has paused this flow toward its upstream.
    pub paused: bool,
    /// True if the flow is waiting on the to-be-resumed list.
    pub resume_pending: bool,
}

bfc_sim::snap_struct! { FlowEntry { key, queue, packets_queued, paused, resume_pending } }

impl FlowEntry {
    fn new(key: FlowKey) -> Self {
        FlowEntry {
            key,
            queue: None,
            packets_queued: 0,
            paused: false,
            resume_pending: false,
        }
    }
}

/// Result of [`FlowTable::lookup_or_insert`].
#[derive(Debug, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The flow was already tracked (index handle for subsequent access).
    Found(EntrySlot),
    /// A new entry was created.
    Inserted(EntrySlot),
    /// Neither the bucket nor the overflow cache had room; the packet must
    /// use the untracked overflow queue.
    TableFull,
}

/// Opaque handle to a table slot, valid until the next removal.
///
/// The variant records which hardware quota the entry was admitted under:
/// its VFID's bucket or the shared overflow cache. `index` is a position in
/// the unified open-addressed store (not a within-bucket offset), valid for
/// [`FlowTable::entry`] / [`FlowTable::entry_mut`] until a removal shifts
/// entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntrySlot {
    /// Entry counted against `bucket[vfid]`'s quota.
    Bucket {
        /// Bucket index (the VFID).
        vfid: u32,
        /// Slot within the open-addressed store.
        index: usize,
    },
    /// Entry counted against the associative overflow cache's quota.
    Cache {
        /// Slot within the open-addressed store.
        index: usize,
    },
}

impl EntrySlot {
    fn index(self) -> usize {
        match self {
            EntrySlot::Bucket { index, .. } | EntrySlot::Cache { index } => index,
        }
    }
}

/// An occupied slot of the open-addressed store.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// True if the entry was admitted under the shared cache quota rather
    /// than its VFID's bucket quota. The class is fixed at insertion — the
    /// hardware does not migrate cache entries back into buckets.
    cached: bool,
    entry: FlowEntry,
}

/// Deterministic 64-bit mix of the key fields (splitmix64 finalizer). The
/// three fields are packed disjointly first so nearby VFIDs / port pairs do
/// not collide before mixing.
fn hash_key(key: FlowKey) -> u64 {
    let mut x =
        (u64::from(key.vfid) << 40) ^ (u64::from(key.ingress) << 20) ^ u64::from(key.egress);
    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Smallest store allocated; growth doubles from here. Kept well below any
/// hardware geometry so idle switches stay cheap.
const MIN_SLOTS: usize = 16;

/// The flow table: hardware-model quotas over an open-addressed store.
#[derive(Debug)]
pub struct FlowTable {
    slots: Vec<Option<Slot>>,
    /// Entries currently admitted under each VFID's bucket quota.
    bucket_residents: Vec<u32>,
    bucket_size: usize,
    /// Entries currently admitted under the shared cache quota.
    cache_residents: usize,
    cache_capacity: usize,
    tracked: usize,
    /// Observability counters over [`FlowTable::lookup_or_insert`] probes
    /// (the hot path; `find` and snapshot restore do not count). Never read
    /// back by the table itself — they feed the metrics registry.
    lookups: u64,
    probe_steps: u64,
    max_probe: u64,
}

impl FlowTable {
    /// Creates a table modelling `num_vfids` buckets of `bucket_size` entries
    /// and an overflow cache of `cache_capacity` entries.
    pub fn new(num_vfids: u32, bucket_size: usize, cache_capacity: usize) -> Self {
        assert!(num_vfids > 0 && bucket_size > 0);
        FlowTable {
            slots: vec![None; MIN_SLOTS],
            bucket_residents: vec![0; num_vfids as usize],
            bucket_size,
            cache_residents: 0,
            cache_capacity,
            tracked: 0,
            lookups: 0,
            probe_steps: 0,
            max_probe: 0,
        }
    }

    /// Number of flows currently tracked.
    pub fn len(&self) -> usize {
        self.tracked
    }

    /// True if no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked == 0
    }

    /// Probing counters over [`FlowTable::lookup_or_insert`]:
    /// `(lookups, total probe steps, longest single probe)`.
    pub fn probe_counters(&self) -> (u64, u64, u64) {
        (self.lookups, self.probe_steps, self.max_probe)
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, key: FlowKey) -> usize {
        (hash_key(key) as usize) & self.mask()
    }

    fn slot(&self, i: usize) -> &Slot {
        self.slots[i].as_ref().expect("stale EntrySlot")
    }

    fn slot_handle(&self, i: usize) -> EntrySlot {
        let slot = self.slot(i);
        if slot.cached {
            EntrySlot::Cache { index: i }
        } else {
            EntrySlot::Bucket {
                vfid: slot.entry.key.vfid,
                index: i,
            }
        }
    }

    /// Probes for `key`. Returns the slot holding it, or the first empty
    /// slot of its probe run. Terminates because the load factor is capped
    /// below 1 (there is always an empty slot).
    fn probe(&self, key: FlowKey) -> Result<usize, usize> {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                None => return Err(i),
                Some(slot) if slot.entry.key == key => return Ok(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Finds the slot of `key` if it is tracked.
    pub fn find(&self, key: FlowKey) -> Option<EntrySlot> {
        match self.probe(key) {
            Ok(i) => Some(self.slot_handle(i)),
            Err(_) => None,
        }
    }

    /// Looks the flow up, inserting a fresh entry if the hardware quotas
    /// admit it. The store itself never fills — it grows before probe runs
    /// get long — so `TableFull` is purely a quota decision.
    pub fn lookup_or_insert(&mut self, key: FlowKey) -> LookupOutcome {
        let probed = self.probe(key);
        let end = match probed {
            Ok(i) | Err(i) => i,
        };
        let steps = ((end + self.slots.len() - self.home(key)) & self.mask()) as u64 + 1;
        self.lookups += 1;
        self.probe_steps += steps;
        self.max_probe = self.max_probe.max(steps);
        if let Ok(i) = probed {
            return LookupOutcome::Found(self.slot_handle(i));
        }
        let cached = if (self.bucket_residents[key.vfid as usize] as usize) < self.bucket_size {
            false
        } else if self.cache_residents < self.cache_capacity {
            true
        } else {
            return LookupOutcome::TableFull;
        };
        let i = self.place(cached, FlowEntry::new(key));
        if cached {
            self.cache_residents += 1;
        } else {
            self.bucket_residents[key.vfid as usize] += 1;
        }
        self.tracked += 1;
        LookupOutcome::Inserted(self.slot_handle(i))
    }

    /// Writes a new entry into the store, growing first if the load factor
    /// would exceed 3/4. Returns the slot used. The key must be absent.
    fn place(&mut self, cached: bool, entry: FlowEntry) -> usize {
        if (self.tracked + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let i = match self.probe(entry.key) {
            Err(i) => i,
            Ok(_) => unreachable!("place() requires an absent key"),
        };
        self.slots[i] = Some(Slot { cached, entry });
        i
    }

    /// Doubles the store and re-places every live entry.
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        let live = old.iter().flatten().count();
        self.slots = vec![None; (live.max(MIN_SLOTS / 2) * 2).next_power_of_two()];
        for slot in old.into_iter().flatten() {
            let i = match self.probe(slot.entry.key) {
                Err(i) => i,
                Ok(_) => unreachable!("duplicate key during rehash"),
            };
            self.slots[i] = Some(slot);
        }
    }

    /// Immutable access to a slot.
    pub fn entry(&self, slot: EntrySlot) -> &FlowEntry {
        &self.slot(slot.index()).entry
    }

    /// Mutable access to a slot.
    pub fn entry_mut(&mut self, slot: EntrySlot) -> &mut FlowEntry {
        let slot = self.slots[slot.index()].as_mut();
        &mut slot.expect("stale EntrySlot").entry
    }

    /// Removes a tracked flow (its last packet left the switch). Removal
    /// backward-shifts later entries of the probe run into the gap, so
    /// callers must not hold `EntrySlot`s across a removal.
    pub fn remove(&mut self, key: FlowKey) {
        let Ok(mut i) = self.probe(key) else {
            return;
        };
        if self.slot(i).cached {
            self.cache_residents -= 1;
        } else {
            self.bucket_residents[key.vfid as usize] -= 1;
        }
        self.tracked -= 1;
        // Backward-shift deletion: walk the probe run past `i`; any entry
        // whose home slot does not lie cyclically in (i, j] may fill the
        // gap, which then moves to that entry's old slot.
        let mask = self.mask();
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let Some(slot) = self.slots[j] else {
                break;
            };
            let h = self.home(slot.entry.key);
            let blocked = if i <= j {
                h > i && h <= j
            } else {
                h > i || h <= j
            };
            if !blocked {
                self.slots[i] = Some(slot);
                i = j;
            }
        }
        self.slots[i] = None;
    }

    /// The largest store this table's quotas can have grown: growth doubles
    /// from [`MIN_SLOTS`] whenever an insert would push the load above 3/4,
    /// so it stops at the first power of two that holds every entry the
    /// buckets and the cache admit at that load. `None` if that overflows.
    fn max_slots(&self) -> Option<usize> {
        let entries = self
            .bucket_residents
            .len()
            .checked_mul(self.bucket_size)?
            .checked_add(self.cache_capacity)?;
        let slots = entries
            .checked_mul(4)?
            .div_ceil(3)
            .checked_next_power_of_two()?;
        Some(slots.max(MIN_SLOTS))
    }

    /// Serializes the tracked entries with their admission classes. Entries
    /// are emitted in store-scan order *starting at an empty slot*, so no
    /// probe run straddles the scan origin and each run appears home-side
    /// first. Re-inserting in that order therefore reproduces the probe
    /// layout slot-for-slot, which keeps save → restore → save byte-stable.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let FlowTable {
            slots,
            // Configuration.
            bucket_size: _,
            cache_capacity: _,
            // Derived from the entries' admission classes; only the length
            // of `bucket_residents`, the VFID count, is written.
            bucket_residents,
            cache_residents: _,
            tracked,
            lookups,
            probe_steps,
            max_probe,
        } = self;
        w.put_u32(u32::try_from(bucket_residents.len()).expect("vfid count fits u32"));
        tracked.save(w);
        // The store size is part of the layout (it fixes the hash mask), so
        // it is serialized too: a restore target's own store may have grown
        // differently before the restore.
        slots.len().save(w);
        let start = slots
            .iter()
            .position(Option::is_none)
            .expect("load factor below 1 guarantees an empty slot");
        for k in 0..slots.len() {
            if let Some(slot) = &slots[(start + k) & self.mask()] {
                slot.cached.save(w);
                slot.entry.save(w);
            }
        }
        lookups.save(w);
        probe_steps.save(w);
        max_probe.save(w);
    }

    /// Overlays state captured by [`FlowTable::save_state`] onto this table,
    /// which was built with the same geometry: checks the VFID count, that
    /// the store size is one this table could have grown to and holds the
    /// entries at load ≤ 3/4, and every entry against its bucket's or the
    /// cache's quota; the probe layout and the residency counters are
    /// rebuilt by re-insertion. The previous contents are cleared in place
    /// when the store size matches; otherwise the store is reallocated.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.get_u32()? as usize != self.bucket_residents.len() {
            return Err(SnapError::Corrupt("flow-table vfid count mismatch"));
        }
        let n = r.get_len::<(bool, FlowEntry)>()?;
        let store: usize = r.get()?;
        if !store.is_power_of_two()
            || store < MIN_SLOTS
            || !self.max_slots().is_some_and(|max| store <= max)
            || n > store / 4 * 3
        {
            return Err(SnapError::Corrupt("flow-table store size invalid"));
        }
        if store == self.slots.len() {
            self.slots.fill(None);
        } else {
            self.slots = vec![None; store];
        }
        self.bucket_residents.iter_mut().for_each(|c| *c = 0);
        self.cache_residents = 0;
        self.tracked = 0;
        for _ in 0..n {
            let (cached, entry): (bool, FlowEntry) = r.get()?;
            if (entry.key.vfid as usize) >= self.bucket_residents.len() {
                return Err(SnapError::Corrupt("flow-table vfid out of range"));
            }
            // A flow is tracked from its first queued packet to its last.
            if entry.packets_queued == 0 {
                return Err(SnapError::Corrupt("flow-table entry with no packet queued"));
            }
            if cached {
                if self.cache_residents == self.cache_capacity {
                    return Err(SnapError::Corrupt("flow-table cache overflow"));
                }
                self.cache_residents += 1;
            } else {
                if self.bucket_residents[entry.key.vfid as usize] as usize == self.bucket_size {
                    return Err(SnapError::Corrupt("flow-table bucket overflow"));
                }
                self.bucket_residents[entry.key.vfid as usize] += 1;
            }
            if self.probe(entry.key).is_ok() {
                return Err(SnapError::Corrupt("flow-table duplicate key"));
            }
            self.place(cached, entry);
            self.tracked += 1;
        }
        self.lookups = r.get()?;
        self.probe_steps = r.get()?;
        self.max_probe = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vfid: u32, ingress: u32, egress: u32) -> FlowKey {
        FlowKey {
            vfid,
            ingress,
            egress,
        }
    }

    #[test]
    fn insert_find_remove() {
        let mut t = FlowTable::new(64, 4, 10);
        let k = key(5, 1, 2);
        let slot = match t.lookup_or_insert(k) {
            LookupOutcome::Inserted(s) => s,
            other => panic!("expected insert, got {other:?}"),
        };
        t.entry_mut(slot).packets_queued = 3;
        match t.lookup_or_insert(k) {
            LookupOutcome::Found(s) => assert_eq!(t.entry(s).packets_queued, 3),
            other => panic!("expected found, got {other:?}"),
        }
        assert_eq!(t.len(), 1);
        t.remove(k);
        assert!(t.is_empty());
        assert!(t.find(k).is_none());
    }

    #[test]
    fn same_vfid_different_ports_are_distinct() {
        let mut t = FlowTable::new(64, 4, 10);
        let a = key(5, 1, 2);
        let b = key(5, 3, 2);
        let c = key(5, 1, 4);
        assert!(matches!(t.lookup_or_insert(a), LookupOutcome::Inserted(_)));
        assert!(matches!(t.lookup_or_insert(b), LookupOutcome::Inserted(_)));
        assert!(matches!(t.lookup_or_insert(c), LookupOutcome::Inserted(_)));
        assert_eq!(t.len(), 3);
        // Same vfid + same ports is the same entry (the paper's deliberate
        // aliasing of colliding 5-tuples).
        assert!(matches!(t.lookup_or_insert(a), LookupOutcome::Found(_)));
    }

    #[test]
    fn bucket_overflow_spills_to_cache_then_fails() {
        let mut t = FlowTable::new(8, 2, 2);
        // Four flows with the same VFID but distinct ingresses: two fit in the
        // bucket, two in the cache, the fifth cannot be tracked.
        for ingress in 0..4 {
            assert!(matches!(
                t.lookup_or_insert(key(3, ingress, 0)),
                LookupOutcome::Inserted(_)
            ));
        }
        assert_eq!(t.lookup_or_insert(key(3, 9, 0)), LookupOutcome::TableFull);
        assert_eq!(t.len(), 4);
        // Freeing a bucket slot lets new flows in again.
        t.remove(key(3, 0, 0));
        assert!(matches!(
            t.lookup_or_insert(key(3, 9, 0)),
            LookupOutcome::Inserted(_)
        ));
    }

    #[test]
    fn cache_entries_are_found_after_bucket_search() {
        let mut t = FlowTable::new(4, 1, 4);
        let first = key(2, 0, 0);
        let second = key(2, 1, 0);
        t.lookup_or_insert(first);
        t.lookup_or_insert(second); // bucket quota exhausted: cache class
        match t.find(second) {
            Some(EntrySlot::Cache { .. }) => {}
            other => panic!("expected cache slot, got {other:?}"),
        }
        t.remove(second);
        assert!(t.find(second).is_none());
        assert!(t.find(first).is_some());
    }

    #[test]
    fn growth_keeps_every_entry_findable() {
        // Push well past the initial 16-slot store so it rehashes several
        // times, then thin it out to exercise backward shifts on the grown
        // store.
        let mut t = FlowTable::new(4_096, 4, 100);
        for v in 0..600 {
            assert!(matches!(
                t.lookup_or_insert(key(v, v % 7, v % 5)),
                LookupOutcome::Inserted(_)
            ));
        }
        for v in (0..600).step_by(3) {
            t.remove(key(v, v % 7, v % 5));
        }
        assert_eq!(t.len(), 400);
        for v in 0..600u32 {
            let k = key(v, v % 7, v % 5);
            match t.find(k) {
                Some(slot) => {
                    assert!(v % 3 != 0, "removed vfid {v} still present");
                    assert_eq!(t.entry(slot).key, k);
                }
                None => assert!(v % 3 == 0, "live vfid {v} lost"),
            }
        }
    }

    #[test]
    fn removal_shifts_keep_probe_runs_intact() {
        // Many keys sharing one VFID force long probe runs through both
        // quota classes; deleting from the middle of runs must never orphan
        // a later entry of the same run.
        let mut t = FlowTable::new(2, 64, 64);
        for ingress in 0..100 {
            assert!(matches!(
                t.lookup_or_insert(key(1, ingress, 0)),
                LookupOutcome::Inserted(_)
            ));
        }
        for ingress in (0..100).step_by(2) {
            t.remove(key(1, ingress, 0));
        }
        for ingress in 0..100 {
            assert_eq!(t.find(key(1, ingress, 0)).is_some(), ingress % 2 == 1);
        }
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn quotas_survive_growth_and_churn() {
        let mut t = FlowTable::new(2, 2, 3);
        // VFID 0 admits 2 bucket entries; the next 3 spill to the cache;
        // the 6th is untrackable.
        for ingress in 0..5 {
            assert!(matches!(
                t.lookup_or_insert(key(0, ingress, 0)),
                LookupOutcome::Inserted(_)
            ));
        }
        assert_eq!(t.lookup_or_insert(key(0, 9, 0)), LookupOutcome::TableFull);
        // VFID 1's bucket quota is independent of VFID 0's, but the cache
        // is shared and still full.
        assert!(matches!(
            t.lookup_or_insert(key(1, 0, 0)),
            LookupOutcome::Inserted(_)
        ));
        assert!(matches!(
            t.lookup_or_insert(key(1, 1, 0)),
            LookupOutcome::Inserted(_)
        ));
        assert_eq!(t.lookup_or_insert(key(1, 2, 0)), LookupOutcome::TableFull);
        // Removing a cache-class entry frees cache room for either VFID.
        let cache_key = (0..5)
            .map(|i| key(0, i, 0))
            .find(|&k| matches!(t.find(k), Some(EntrySlot::Cache { .. })))
            .unwrap();
        t.remove(cache_key);
        assert!(matches!(
            t.lookup_or_insert(key(1, 2, 0)),
            LookupOutcome::Inserted(_)
        ));
    }

    #[test]
    fn save_restore_round_trips_contents_and_layout() {
        let mut t = FlowTable::new(64, 4, 10);
        for v in 0..30 {
            let slot = match t.lookup_or_insert(key(v, v % 3, v % 2)) {
                LookupOutcome::Inserted(s) => s,
                other => panic!("expected insert, got {other:?}"),
            };
            t.entry_mut(slot).packets_queued = v;
            t.entry_mut(slot).paused = v % 2 == 0;
        }
        for v in (0..30).step_by(4) {
            t.remove(key(v, v % 3, v % 2));
        }
        let mut w = SnapWriter::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut u = FlowTable::new(64, 4, 10);
        // Pre-populate the target with unrelated state to prove the restore
        // clears it.
        for v in 40..60 {
            u.lookup_or_insert(key(v, 9, 9));
        }
        let mut r = SnapReader::new(&bytes);
        u.restore_state(&mut r).unwrap();
        assert_eq!(u.len(), t.len());
        for v in 40..60 {
            assert!(u.find(key(v, 9, 9)).is_none(), "stale entry survived");
        }
        for v in 0..30 {
            let k = key(v, v % 3, v % 2);
            assert_eq!(t.find(k), u.find(k), "layout diverged for vfid {v}");
            if let Some(slot) = t.find(k) {
                assert_eq!(t.entry(slot), u.entry(slot));
            }
        }
        // Re-saving the restored table reproduces the snapshot bytes:
        // restore is layout-exact, not merely content-exact.
        let mut w2 = SnapWriter::new();
        u.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    fn restore_rejects_an_entry_with_no_packet_queued() {
        let mut t = FlowTable::new(8, 2, 1);
        let LookupOutcome::Inserted(slot) = t.lookup_or_insert(key(3, 0, 0)) else {
            panic!("an empty table admits the key");
        };
        // A count whose encoding occurs nowhere else in the state.
        t.entry_mut(slot).packets_queued = 0x5eed_f10e;
        let mut w = SnapWriter::new();
        t.save_state(&mut w);
        let mut bytes = w.into_bytes();
        let restore =
            |bytes: &[u8]| FlowTable::new(8, 2, 1).restore_state(&mut SnapReader::new(bytes));
        assert_eq!(restore(&bytes), Ok(()));
        let count = 0x5eed_f10e_u32.to_le_bytes();
        let at = bytes
            .windows(4)
            .position(|b| b == count)
            .expect("the count is saved");
        bytes[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            restore(&bytes),
            Err(SnapError::Corrupt("flow-table entry with no packet queued"))
        );
    }

    #[test]
    fn restore_rejects_quota_violations() {
        let mut t = FlowTable::new(8, 2, 1);
        // Two bucket-class flows and one cache-class, each with a packet
        // queued, as the policy tracks them.
        for ingress in 0..3 {
            let LookupOutcome::Inserted(slot) = t.lookup_or_insert(key(3, ingress, 0)) else {
                panic!("the quotas admit three flows");
            };
            t.entry_mut(slot).packets_queued = 1;
        }
        let mut w = SnapWriter::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();

        // The same snapshot into a smaller-bucket geometry must fail
        // cleanly rather than over-admit.
        let mut small = FlowTable::new(8, 1, 1);
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            small.restore_state(&mut r),
            Err(SnapError::Corrupt("flow-table bucket overflow"))
        );
        // And into a different VFID count as well.
        let mut narrow = FlowTable::new(4, 2, 1);
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            narrow.restore_state(&mut r),
            Err(SnapError::Corrupt("flow-table vfid count mismatch"))
        );

        // A store larger than these quotas can ever have grown it is refused
        // before it is allocated: 8 × 2 + 1 = 17 entries fit 32 slots at
        // load 3/4, so 64 is already too many, and 2^40 or 2^63 would ask
        // the allocator for terabytes or overflow its capacity.
        let empty_with_store = |store: usize| {
            let mut w = SnapWriter::new();
            w.put_u32(8);
            w.put_usize(0);
            w.put_usize(store);
            for _ in 0..3 {
                w.put_u64(0);
            }
            w.into_bytes()
        };
        let restore = |store| {
            let bytes = empty_with_store(store);
            let mut r = SnapReader::new(&bytes);
            FlowTable::new(8, 2, 1)
                .restore_state(&mut r)
                .and_then(|()| r.expect_end())
        };
        assert_eq!(restore(32), Ok(()));
        for store in [64, 1 << 40, 1 << 63] {
            assert_eq!(
                restore(store),
                Err(SnapError::Corrupt("flow-table store size invalid")),
                "store {store}"
            );
        }
    }
}
