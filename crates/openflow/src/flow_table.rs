//! The switch-side flow table: priority-ordered rule storage with OpenFlow
//! flow-mod semantics, lookup, timeouts and counters.
//!
//! # Storage layout
//!
//! Entries live in a slab (`slots`) and are reachable two ways:
//!
//! * an **exact-match index** keyed by `(flow_match, priority)` — the
//!   identity OpenFlow uses for Add-replace, `ModifyStrict` and
//!   `DeleteStrict` — making those commands O(1) instead of an O(n) scan;
//! * **priority buckets** (descending priority, insertion order within a
//!   bucket) that give `lookup` and `iter` the match order OpenFlow
//!   requires without re-sorting on every insert.
//!
//! Non-strict `Modify`/`Delete` match by subsumption over arbitrary entry
//! sets and remain O(n) by nature, as does timeout expiry.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::actions::ActionList;
use crate::flow_match::FlowMatch;
use crate::messages::{
    AggregateStats, FlowMod, FlowModCommand, FlowRemovedReason, FlowStats, OfError, TableStats,
};
use crate::packet::EthernetFrame;
use crate::types::{Cookie, PortNo, Priority};

/// One installed flow entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEntry {
    /// The match.
    pub flow_match: FlowMatch,
    /// The priority (higher wins).
    pub priority: Priority,
    /// Actions applied to matched packets.
    pub actions: ActionList,
    /// Opaque cookie (carries SDNShield app ownership).
    pub cookie: Cookie,
    /// Idle timeout in seconds (0 = none).
    pub idle_timeout: u16,
    /// Hard timeout in seconds (0 = none).
    pub hard_timeout: u16,
    /// Whether removal should be notified.
    pub notify_when_removed: bool,
    /// Install time (virtual seconds).
    pub installed_at: u64,
    /// Last packet hit time (virtual seconds).
    pub last_hit_at: u64,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
}

impl FlowEntry {
    fn from_mod(fm: &FlowMod, now: u64) -> Self {
        FlowEntry {
            flow_match: fm.flow_match.clone(),
            priority: fm.priority,
            actions: fm.actions.clone(),
            cookie: fm.cookie,
            idle_timeout: fm.idle_timeout,
            hard_timeout: fm.hard_timeout,
            notify_when_removed: fm.notify_when_removed,
            installed_at: now,
            last_hit_at: now,
            packet_count: 0,
            byte_count: 0,
        }
    }

    /// Seconds the entry has been installed as of `now`.
    pub fn duration_secs(&self, now: u64) -> u32 {
        now.saturating_sub(self.installed_at) as u32
    }

    fn to_stats(&self, now: u64) -> FlowStats {
        FlowStats {
            flow_match: self.flow_match.clone(),
            priority: self.priority,
            cookie: self.cookie,
            actions: self.actions.clone(),
            packet_count: self.packet_count,
            byte_count: self.byte_count,
            duration_secs: self.duration_secs(now),
        }
    }
}

/// A removed entry together with the reason, for flow-removed notifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemovedEntry {
    /// The entry at the moment of removal.
    pub entry: FlowEntry,
    /// Why it was removed.
    pub reason: FlowRemovedReason,
}

/// The exact-match identity of an entry.
type ExactKey = (FlowMatch, Priority);

/// A priority-ordered flow table with OpenFlow 1.0 flow-mod semantics.
///
/// # Examples
///
/// ```
/// use sdnshield_openflow::flow_table::FlowTable;
/// use sdnshield_openflow::flow_match::FlowMatch;
/// use sdnshield_openflow::messages::FlowMod;
/// use sdnshield_openflow::actions::ActionList;
/// use sdnshield_openflow::types::{PortNo, Priority};
///
/// let mut table = FlowTable::new(1024);
/// let fm = FlowMod::add(FlowMatch::any(), Priority(1), ActionList::output(PortNo(2)));
/// table.apply(&fm, 0)?;
/// assert_eq!(table.len(), 1);
/// # Ok::<(), sdnshield_openflow::messages::OfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlowTable {
    /// Slab storage; `None` marks a free slot (recycled via `free`).
    ///
    /// Entries are individually `Arc`ed so [`FlowTable::snapshot`] can
    /// publish an immutable view with pointer clones instead of deep
    /// copies; in-place mutation goes through [`Arc::make_mut`], which
    /// only copies an entry still shared with a live snapshot.
    slots: Vec<Option<Arc<FlowEntry>>>,
    /// Recycled slot ids.
    free: Vec<usize>,
    /// `(match, priority)` → slot, for O(1) exact-identity commands.
    index: HashMap<ExactKey, usize>,
    /// Descending priority → slot ids in insertion order. The concatenation
    /// of the buckets is the table's match/iteration order.
    buckets: BTreeMap<Reverse<Priority>, Vec<usize>>,
    len: usize,
    capacity: usize,
    lookup_count: u64,
    matched_count: u64,
}

impl FlowTable {
    /// Creates a table holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        FlowTable {
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            buckets: BTreeMap::new(),
            len: 0,
            capacity,
            lookup_count: 0,
            matched_count: 0,
        }
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over installed entries in priority order (highest first;
    /// insertion order within a priority).
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> + '_ {
        self.buckets
            .values()
            .flatten()
            .map(|&i| self.slots[i].as_deref().expect("bucketed slot occupied"))
    }

    /// Slot ids in match order whose entries satisfy `pred`.
    fn collect_matching(&self, mut pred: impl FnMut(&FlowEntry) -> bool) -> Vec<usize> {
        self.buckets
            .values()
            .flatten()
            .copied()
            .filter(|&i| self.slots[i].as_deref().is_some_and(&mut pred))
            .collect()
    }

    /// Removes the given slots (with per-slot reasons), returning the
    /// entries in the order given.
    fn remove_slots(&mut self, ids: &[(usize, FlowRemovedReason)]) -> Vec<RemovedEntry> {
        if ids.is_empty() {
            return Vec::new();
        }
        let mut removed = Vec::with_capacity(ids.len());
        // Slots to unlink, grouped by priority: only those buckets change.
        let mut gone: BTreeMap<Priority, Vec<usize>> = BTreeMap::new();
        for &(i, reason) in ids {
            let entry = self.slots[i].take().expect("removing occupied slot");
            self.index
                .remove(&(entry.flow_match.clone(), entry.priority));
            gone.entry(entry.priority).or_default().push(i);
            self.free.push(i);
            self.len -= 1;
            // Unshared entries move out for free; an entry still pinned by
            // a snapshot is cloned.
            let entry = Arc::try_unwrap(entry).unwrap_or_else(|shared| (*shared).clone());
            removed.push(RemovedEntry { entry, reason });
        }
        for (priority, mut slots) in gone {
            let key = Reverse(priority);
            let bucket = self
                .buckets
                .get_mut(&key)
                .expect("removed entry was bucketed");
            if let [slot] = slots[..] {
                let at = bucket.iter().position(|&i| i == slot);
                bucket.remove(at.expect("removed slot was bucketed"));
            } else {
                slots.sort_unstable();
                bucket.retain(|i| slots.binary_search(i).is_err());
            }
            if bucket.is_empty() {
                self.buckets.remove(&key);
            }
        }
        removed
    }

    fn remove_where<F: FnMut(&FlowEntry) -> bool>(
        &mut self,
        pred: F,
        reason: FlowRemovedReason,
    ) -> Vec<RemovedEntry> {
        let ids: Vec<(usize, FlowRemovedReason)> = self
            .collect_matching(pred)
            .into_iter()
            .map(|i| (i, reason))
            .collect();
        self.remove_slots(&ids)
    }

    /// Inserts an entry into a fresh slot, indexing it.
    fn insert_entry(&mut self, entry: FlowEntry) {
        let key = (entry.flow_match.clone(), entry.priority);
        let priority = entry.priority;
        let entry = Arc::new(entry);
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(entry);
                i
            }
            None => {
                self.slots.push(Some(entry));
                self.slots.len() - 1
            }
        };
        self.index.insert(key, slot);
        self.buckets
            .entry(Reverse(priority))
            .or_default()
            .push(slot);
        self.len += 1;
    }

    /// Applies a flow-mod at virtual time `now`, returning entries removed by
    /// delete commands.
    ///
    /// # Errors
    ///
    /// Returns [`OfError::TableFull`] when an add would exceed capacity.
    pub fn apply(&mut self, fm: &FlowMod, now: u64) -> Result<Vec<RemovedEntry>, OfError> {
        match fm.command {
            FlowModCommand::Add => {
                // OpenFlow replaces an identical (match, priority) entry in
                // place: one index probe, no scan, bucket position retained.
                if let Some(&slot) = self.index.get(&(fm.flow_match.clone(), fm.priority)) {
                    self.slots[slot] = Some(Arc::new(FlowEntry::from_mod(fm, now)));
                    return Ok(Vec::new());
                }
                if self.len >= self.capacity {
                    return Err(OfError::TableFull);
                }
                self.insert_entry(FlowEntry::from_mod(fm, now));
                Ok(Vec::new())
            }
            FlowModCommand::Modify => {
                let targets = self.collect_matching(|e| fm.flow_match.subsumes(&e.flow_match));
                if targets.is_empty() {
                    // Per OF 1.0, modify with no match behaves like add.
                    return self.apply(
                        &FlowMod {
                            command: FlowModCommand::Add,
                            ..fm.clone()
                        },
                        now,
                    );
                }
                for i in targets {
                    let e = Arc::make_mut(self.slots[i].as_mut().expect("matched slot occupied"));
                    e.actions = fm.actions.clone();
                    e.cookie = fm.cookie;
                }
                Ok(Vec::new())
            }
            FlowModCommand::ModifyStrict => {
                match self.index.get(&(fm.flow_match.clone(), fm.priority)) {
                    Some(&slot) => {
                        let e = Arc::make_mut(
                            self.slots[slot].as_mut().expect("indexed slot occupied"),
                        );
                        e.actions = fm.actions.clone();
                        e.cookie = fm.cookie;
                        Ok(Vec::new())
                    }
                    None => self.apply(
                        &FlowMod {
                            command: FlowModCommand::Add,
                            ..fm.clone()
                        },
                        now,
                    ),
                }
            }
            FlowModCommand::Delete => Ok(self.remove_where(
                |e| fm.flow_match.subsumes(&e.flow_match),
                FlowRemovedReason::Delete,
            )),
            FlowModCommand::DeleteStrict => {
                let ids: Vec<(usize, FlowRemovedReason)> = self
                    .index
                    .get(&(fm.flow_match.clone(), fm.priority))
                    .map(|&slot| (slot, FlowRemovedReason::Delete))
                    .into_iter()
                    .collect();
                Ok(self.remove_slots(&ids))
            }
        }
    }

    /// Removes every entry whose cookie carries the given owner id. Used to
    /// reclaim a crashed app's rules without knowing its matches.
    pub fn remove_owned_by(&mut self, owner: u16) -> Vec<RemovedEntry> {
        self.remove_where(|e| e.cookie.owner() == owner, FlowRemovedReason::Delete)
    }

    /// Looks up the highest-priority entry matching the frame and updates its
    /// counters. Returns a borrow of the matched entry — callers that need
    /// to retain it across further table mutation clone explicitly.
    pub fn lookup(
        &mut self,
        in_port: PortNo,
        frame: &EthernetFrame,
        byte_len: usize,
        now: u64,
    ) -> Option<&FlowEntry> {
        self.lookup_count += 1;
        let slot = self.buckets.values().flatten().copied().find(|&i| {
            self.slots[i]
                .as_deref()
                .is_some_and(|e| e.flow_match.matches_frame(in_port, frame))
        })?;
        self.matched_count += 1;
        let hit = Arc::make_mut(self.slots[slot].as_mut().expect("matched slot occupied"));
        hit.packet_count += 1;
        hit.byte_count += byte_len as u64;
        hit.last_hit_at = now;
        Some(&*hit)
    }

    /// Expires entries whose idle or hard timeout has passed at `now`,
    /// returning them with the appropriate reason.
    pub fn expire(&mut self, now: u64) -> Vec<RemovedEntry> {
        let due: Vec<(usize, FlowRemovedReason)> = self
            .buckets
            .values()
            .flatten()
            .copied()
            .filter_map(|i| {
                let e = self.slots[i].as_deref()?;
                let hard = e.hard_timeout != 0 && now >= e.installed_at + e.hard_timeout as u64;
                let idle = e.idle_timeout != 0 && now >= e.last_hit_at + e.idle_timeout as u64;
                if hard {
                    Some((i, FlowRemovedReason::HardTimeout))
                } else if idle {
                    Some((i, FlowRemovedReason::IdleTimeout))
                } else {
                    None
                }
            })
            .collect();
        self.remove_slots(&due)
    }

    /// Per-flow stats for entries subsumed by `query`.
    pub fn flow_stats(&self, query: &FlowMatch, now: u64) -> Vec<FlowStats> {
        self.iter()
            .filter(|e| query.subsumes(&e.flow_match))
            .map(|e| e.to_stats(now))
            .collect()
    }

    /// Aggregate stats over entries subsumed by `query`.
    pub fn aggregate_stats(&self, query: &FlowMatch) -> AggregateStats {
        let mut agg = AggregateStats::default();
        for e in self.iter().filter(|e| query.subsumes(&e.flow_match)) {
            agg.packet_count += e.packet_count;
            agg.byte_count += e.byte_count;
            agg.flow_count += 1;
        }
        agg
    }

    /// Table-level counters.
    pub fn table_stats(&self) -> TableStats {
        TableStats {
            active_count: self.len as u32,
            lookup_count: self.lookup_count,
            matched_count: self.matched_count,
            max_entries: self.capacity as u32,
        }
    }

    /// Count of entries owned by the given cookie owner id.
    pub fn count_owned_by(&self, owner: u16) -> usize {
        self.iter().filter(|e| e.cookie.owner() == owner).count()
    }

    /// Publishes an immutable point-in-time view of the table: entries in
    /// [`FlowTable::iter`] order plus the table-level counters. Costs one
    /// `Arc` clone per entry — no deep copies — so a writer can republish
    /// after every mutation batch and readers answer stats queries without
    /// ever taking the table's lock.
    pub fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            entries: self
                .buckets
                .values()
                .flatten()
                .map(|&i| self.slots[i].clone().expect("bucketed slot occupied"))
                .collect(),
            capacity: self.capacity,
            lookup_count: self.lookup_count,
            matched_count: self.matched_count,
        }
    }

    /// Rebuilds a table from a snapshot: entries in [`FlowTable::iter`]
    /// order plus the table-level counters. Inserting in the given order
    /// reconstructs the per-priority insertion order exactly, so the
    /// restored table iterates (and therefore matches ties) identically to
    /// the one snapshotted. Entries beyond `capacity` are discarded — a
    /// well-formed snapshot never carries more than its own capacity.
    pub fn restore(
        capacity: usize,
        entries: Vec<FlowEntry>,
        lookup_count: u64,
        matched_count: u64,
    ) -> Self {
        let mut table = FlowTable::new(capacity);
        for entry in entries.into_iter().take(capacity) {
            table.insert_entry(entry);
        }
        table.lookup_count = lookup_count;
        table.matched_count = matched_count;
        table
    }
}

impl fmt::Display for FlowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow_table[{}/{} entries]", self.len(), self.capacity)
    }
}

/// An immutable point-in-time view of a [`FlowTable`].
///
/// Holds `Arc` clones of the entries (match order preserved), so building
/// and cloning a snapshot never deep-copies matches or action lists. All
/// read-side queries — [`flow_stats`](TableSnapshot::flow_stats),
/// [`aggregate_stats`](TableSnapshot::aggregate_stats),
/// [`table_stats`](TableSnapshot::table_stats),
/// [`count_owned_by`](TableSnapshot::count_owned_by) — answer exactly as
/// the source table would have at snapshot time.
#[derive(Debug, Clone, Default)]
pub struct TableSnapshot {
    /// Entries in [`FlowTable::iter`] order.
    entries: Vec<Arc<FlowEntry>>,
    capacity: usize,
    lookup_count: u64,
    matched_count: u64,
}

impl TableSnapshot {
    /// An empty view of a table with the given capacity.
    pub fn empty(capacity: usize) -> TableSnapshot {
        TableSnapshot {
            capacity,
            ..TableSnapshot::default()
        }
    }

    /// Number of entries at snapshot time.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity of the snapshotted table.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates entries in the source table's match order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> + '_ {
        self.entries.iter().map(Arc::as_ref)
    }

    /// Per-flow stats for entries subsumed by `query` (see
    /// [`FlowTable::flow_stats`]).
    pub fn flow_stats(&self, query: &FlowMatch, now: u64) -> Vec<FlowStats> {
        self.iter()
            .filter(|e| query.subsumes(&e.flow_match))
            .map(|e| e.to_stats(now))
            .collect()
    }

    /// Aggregate stats over entries subsumed by `query` (see
    /// [`FlowTable::aggregate_stats`]).
    pub fn aggregate_stats(&self, query: &FlowMatch) -> AggregateStats {
        let mut agg = AggregateStats::default();
        for e in self.iter().filter(|e| query.subsumes(&e.flow_match)) {
            agg.packet_count += e.packet_count;
            agg.byte_count += e.byte_count;
            agg.flow_count += 1;
        }
        agg
    }

    /// Table-level counters at snapshot time.
    pub fn table_stats(&self) -> TableStats {
        TableStats {
            active_count: self.entries.len() as u32,
            lookup_count: self.lookup_count,
            matched_count: self.matched_count,
            max_entries: self.capacity as u32,
        }
    }

    /// Count of entries owned by the given cookie owner id.
    pub fn count_owned_by(&self, owner: u16) -> usize {
        self.iter().filter(|e| e.cookie.owner() == owner).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TcpFlags;
    use crate::types::{EthAddr, Ipv4};
    use bytes::Bytes;

    fn frame_to(dst: Ipv4, port: u16) -> EthernetFrame {
        EthernetFrame::tcp(
            EthAddr::from_u64(1),
            EthAddr::from_u64(2),
            Ipv4::new(1, 1, 1, 1),
            dst,
            50000,
            port,
            TcpFlags::default(),
            Bytes::new(),
        )
    }

    fn add(m: FlowMatch, prio: u16, out: u16) -> FlowMod {
        FlowMod::add(m, Priority(prio), ActionList::output(PortNo(out)))
    }

    #[test]
    fn add_and_lookup_by_priority() {
        let mut t = FlowTable::new(16);
        t.apply(&add(FlowMatch::any(), 1, 1), 0).unwrap();
        t.apply(
            &add(
                FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 0, 0, 0), 8),
                100,
                2,
            ),
            0,
        )
        .unwrap();
        let hit = t
            .lookup(PortNo(1), &frame_to(Ipv4::new(10, 1, 2, 3), 80), 64, 1)
            .unwrap();
        assert_eq!(hit.actions, ActionList::output(PortNo(2)));
        let miss_to_low = t
            .lookup(PortNo(1), &frame_to(Ipv4::new(192, 168, 0, 1), 80), 64, 1)
            .unwrap();
        assert_eq!(miss_to_low.actions, ActionList::output(PortNo(1)));
    }

    #[test]
    fn add_replaces_identical_entry() {
        let mut t = FlowTable::new(16);
        let m = FlowMatch::default().with_tp_dst(80);
        t.apply(&add(m.clone(), 5, 1), 0).unwrap();
        t.apply(&add(m.clone(), 5, 9), 0).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.iter().next().unwrap().actions,
            ActionList::output(PortNo(9))
        );
    }

    #[test]
    fn capacity_enforced() {
        let mut t = FlowTable::new(2);
        t.apply(&add(FlowMatch::default().with_tp_dst(1), 1, 1), 0)
            .unwrap();
        t.apply(&add(FlowMatch::default().with_tp_dst(2), 1, 1), 0)
            .unwrap();
        let err = t
            .apply(&add(FlowMatch::default().with_tp_dst(3), 1, 1), 0)
            .unwrap_err();
        assert_eq!(err, OfError::TableFull);
    }

    #[test]
    fn capacity_reusable_after_delete() {
        let mut t = FlowTable::new(2);
        t.apply(&add(FlowMatch::default().with_tp_dst(1), 1, 1), 0)
            .unwrap();
        t.apply(&add(FlowMatch::default().with_tp_dst(2), 1, 1), 0)
            .unwrap();
        let removed = t
            .apply(&FlowMod::delete(FlowMatch::default().with_tp_dst(1)), 1)
            .unwrap();
        assert_eq!(removed.len(), 1);
        // The freed slot is reusable.
        t.apply(&add(FlowMatch::default().with_tp_dst(3), 1, 1), 1)
            .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn delete_by_subsumption() {
        let mut t = FlowTable::new(16);
        t.apply(
            &add(
                FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 13, 0, 0), 16),
                5,
                1,
            ),
            0,
        )
        .unwrap();
        t.apply(
            &add(
                FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 14, 0, 0), 16),
                5,
                1,
            ),
            0,
        )
        .unwrap();
        let removed = t
            .apply(
                &FlowMod::delete(
                    FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 13, 0, 0), 16),
                ),
                1,
            )
            .unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(t.len(), 1);
        // Deleting with the all-wildcard match clears the table.
        let removed = t.apply(&FlowMod::delete(FlowMatch::any()), 2).unwrap();
        assert_eq!(removed.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn delete_strict_requires_exact_priority() {
        let mut t = FlowTable::new(16);
        let m = FlowMatch::default().with_tp_dst(80);
        t.apply(&add(m.clone(), 5, 1), 0).unwrap();
        let mut del = FlowMod::delete(m.clone());
        del.command = FlowModCommand::DeleteStrict;
        del.priority = Priority(6);
        assert!(t.apply(&del, 1).unwrap().is_empty());
        del.priority = Priority(5);
        assert_eq!(t.apply(&del, 1).unwrap().len(), 1);
    }

    #[test]
    fn modify_rewrites_actions_preserving_counters() {
        let mut t = FlowTable::new(16);
        let m = FlowMatch::default().with_tp_dst(80);
        t.apply(&add(m.clone(), 5, 1), 0).unwrap();
        t.lookup(PortNo(1), &frame_to(Ipv4::new(9, 9, 9, 9), 80), 100, 1);
        let mut modify = add(m.clone(), 5, 7);
        modify.command = FlowModCommand::Modify;
        t.apply(&modify, 2).unwrap();
        let e = t.iter().next().unwrap();
        assert_eq!(e.actions, ActionList::output(PortNo(7)));
        assert_eq!(e.packet_count, 1, "modify must keep counters");
    }

    #[test]
    fn modify_strict_rewrites_only_exact_identity() {
        let mut t = FlowTable::new(16);
        let m = FlowMatch::default().with_tp_dst(80);
        t.apply(&add(m.clone(), 5, 1), 0).unwrap();
        t.apply(&add(m.clone(), 6, 2), 0).unwrap();
        let mut modify = add(m.clone(), 5, 9);
        modify.command = FlowModCommand::ModifyStrict;
        t.apply(&modify, 1).unwrap();
        let actions: Vec<_> = t.iter().map(|e| e.actions.clone()).collect();
        assert_eq!(
            actions,
            vec![ActionList::output(PortNo(2)), ActionList::output(PortNo(9))],
            "only the priority-5 entry rewritten"
        );
    }

    #[test]
    fn modify_without_match_adds() {
        let mut t = FlowTable::new(16);
        let mut modify = add(FlowMatch::default().with_tp_dst(443), 5, 7);
        modify.command = FlowModCommand::Modify;
        t.apply(&modify, 0).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn idle_and_hard_timeouts() {
        let mut t = FlowTable::new(16);
        let idle = add(FlowMatch::default().with_tp_dst(1), 5, 1).with_idle_timeout(10);
        let hard = add(FlowMatch::default().with_tp_dst(2), 5, 1).with_hard_timeout(20);
        t.apply(&idle, 0).unwrap();
        t.apply(&hard, 0).unwrap();
        assert!(t.expire(5).is_empty());
        // Keep the idle entry alive with traffic.
        t.lookup(PortNo(1), &frame_to(Ipv4::new(9, 9, 9, 9), 1), 64, 9);
        let removed = t.expire(15);
        assert!(removed.is_empty(), "idle refreshed at t=9, hard not due");
        let removed = t.expire(20);
        assert_eq!(removed.len(), 2);
        let reasons: Vec<_> = removed.iter().map(|r| r.reason).collect();
        assert!(reasons.contains(&FlowRemovedReason::IdleTimeout));
        assert!(reasons.contains(&FlowRemovedReason::HardTimeout));
    }

    #[test]
    fn stats_queries() {
        let mut t = FlowTable::new(16);
        t.apply(
            &add(
                FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 13, 0, 0), 16),
                5,
                1,
            ),
            0,
        )
        .unwrap();
        t.apply(&add(FlowMatch::default().with_tp_dst(22), 5, 1), 0)
            .unwrap();
        t.lookup(PortNo(1), &frame_to(Ipv4::new(10, 13, 1, 1), 80), 150, 1);
        let all = t.flow_stats(&FlowMatch::any(), 2);
        assert_eq!(all.len(), 2);
        let sub = t.flow_stats(
            &FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 0, 0, 0), 8),
            2,
        );
        assert_eq!(sub.len(), 1);
        assert_eq!(sub[0].packet_count, 1);
        assert_eq!(sub[0].byte_count, 150);
        let agg = t.aggregate_stats(&FlowMatch::any());
        assert_eq!(agg.flow_count, 2);
        assert_eq!(agg.byte_count, 150);
        let ts = t.table_stats();
        assert_eq!(ts.active_count, 2);
        assert_eq!(ts.lookup_count, 1);
        assert_eq!(ts.matched_count, 1);
    }

    #[test]
    fn ownership_counting() {
        let mut t = FlowTable::new(16);
        for (i, owner) in [(1u16, 7u16), (2, 7), (3, 8)] {
            let fm = add(FlowMatch::default().with_tp_dst(i), 5, 1)
                .with_cookie(Cookie::with_owner(owner, 0));
            t.apply(&fm, 0).unwrap();
        }
        assert_eq!(t.count_owned_by(7), 2);
        assert_eq!(t.count_owned_by(8), 1);
        assert_eq!(t.count_owned_by(9), 0);
    }

    #[test]
    fn iteration_order_stable_within_priority() {
        let mut t = FlowTable::new(16);
        for port in [10u16, 20, 30] {
            t.apply(&add(FlowMatch::default().with_tp_dst(port), 5, port), 0)
                .unwrap();
        }
        t.apply(&add(FlowMatch::default().with_tp_dst(99), 9, 99), 0)
            .unwrap();
        let order: Vec<u16> = t.iter().map(|e| e.flow_match.tp_dst.unwrap()).collect();
        assert_eq!(order, vec![99, 10, 20, 30]);
        // Deleting the middle one preserves the rest of the order.
        let mut del = FlowMod::delete(FlowMatch::default().with_tp_dst(20));
        del.command = FlowModCommand::DeleteStrict;
        del.priority = Priority(5);
        t.apply(&del, 1).unwrap();
        let order: Vec<u16> = t.iter().map(|e| e.flow_match.tp_dst.unwrap()).collect();
        assert_eq!(order, vec![99, 10, 30]);
    }
}
