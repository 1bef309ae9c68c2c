//! Differential property test: the indexed `FlowTable` (slab + exact-match
//! hash index + priority buckets) must behave identically to a naive linear
//! reference implementation across randomized FlowMod sequences, expiry and
//! lookups — same results, same errors, same iteration order, same counters.

use bytes::Bytes;
use proptest::prelude::*;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::flow_table::{FlowEntry, FlowTable, RemovedEntry};
use sdnshield_openflow::messages::{FlowMod, FlowModCommand, FlowRemovedReason, OfError};
use sdnshield_openflow::packet::{EthernetFrame, TcpFlags};
use sdnshield_openflow::types::{Cookie, EthAddr, Ipv4, PortNo, Priority};

/// The straightforward Vec-backed table the indexed implementation replaced:
/// a list kept sorted by descending priority (insertion-stable within a
/// priority), every command an O(n) scan. Small and obviously correct — the
/// oracle.
struct NaiveTable {
    entries: Vec<FlowEntry>,
    capacity: usize,
}

impl NaiveTable {
    fn new(capacity: usize) -> Self {
        NaiveTable {
            entries: Vec::new(),
            capacity,
        }
    }

    fn from_mod(fm: &FlowMod, now: u64) -> FlowEntry {
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

    fn apply(&mut self, fm: &FlowMod, now: u64) -> Result<Vec<RemovedEntry>, OfError> {
        match fm.command {
            FlowModCommand::Add => {
                if let Some(e) = self
                    .entries
                    .iter_mut()
                    .find(|e| e.flow_match == fm.flow_match && e.priority == fm.priority)
                {
                    *e = Self::from_mod(fm, now);
                    return Ok(Vec::new());
                }
                if self.entries.len() >= self.capacity {
                    return Err(OfError::TableFull);
                }
                // Keep descending priority order; new entries go at the end
                // of their priority group (insertion-stable).
                let at = self.entries.partition_point(|e| e.priority >= fm.priority);
                self.entries.insert(at, Self::from_mod(fm, now));
                Ok(Vec::new())
            }
            FlowModCommand::Modify => {
                let mut hit = false;
                for e in self
                    .entries
                    .iter_mut()
                    .filter(|e| fm.flow_match.subsumes(&e.flow_match))
                {
                    e.actions = fm.actions.clone();
                    e.cookie = fm.cookie;
                    hit = true;
                }
                if hit {
                    Ok(Vec::new())
                } else {
                    self.apply(
                        &FlowMod {
                            command: FlowModCommand::Add,
                            ..fm.clone()
                        },
                        now,
                    )
                }
            }
            FlowModCommand::ModifyStrict => {
                match self
                    .entries
                    .iter_mut()
                    .find(|e| e.flow_match == fm.flow_match && e.priority == fm.priority)
                {
                    Some(e) => {
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
                |_| FlowRemovedReason::Delete,
            )),
            FlowModCommand::DeleteStrict => Ok(self.remove_where(
                |e| e.flow_match == fm.flow_match && e.priority == fm.priority,
                |_| FlowRemovedReason::Delete,
            )),
        }
    }

    fn remove_where(
        &mut self,
        mut pred: impl FnMut(&FlowEntry) -> bool,
        mut reason: impl FnMut(&FlowEntry) -> FlowRemovedReason,
    ) -> Vec<RemovedEntry> {
        let mut removed = Vec::new();
        let mut i = 0;
        while i < self.entries.len() {
            if pred(&self.entries[i]) {
                let entry = self.entries.remove(i);
                let reason = reason(&entry);
                removed.push(RemovedEntry { entry, reason });
            } else {
                i += 1;
            }
        }
        removed
    }

    fn remove_owned_by(&mut self, owner: u16) -> Vec<RemovedEntry> {
        self.remove_where(|e| e.cookie.owner() == owner, |_| FlowRemovedReason::Delete)
    }

    fn expire(&mut self, now: u64) -> Vec<RemovedEntry> {
        self.remove_where(
            |e| {
                (e.hard_timeout != 0 && now >= e.installed_at + e.hard_timeout as u64)
                    || (e.idle_timeout != 0 && now >= e.last_hit_at + e.idle_timeout as u64)
            },
            |e| {
                if e.hard_timeout != 0 && now >= e.installed_at + e.hard_timeout as u64 {
                    FlowRemovedReason::HardTimeout
                } else {
                    FlowRemovedReason::IdleTimeout
                }
            },
        )
    }

    fn lookup(
        &mut self,
        in_port: PortNo,
        frame: &EthernetFrame,
        byte_len: usize,
        now: u64,
    ) -> Option<FlowEntry> {
        let hit = self
            .entries
            .iter_mut()
            .find(|e| e.flow_match.matches_frame(in_port, frame))?;
        hit.packet_count += 1;
        hit.byte_count += byte_len as u64;
        hit.last_hit_at = now;
        Some(hit.clone())
    }
}

/// One scripted step against both tables.
#[derive(Debug, Clone)]
enum Step {
    Mod(FlowMod),
    Advance(u64),
    Expire,
    Lookup { in_port: u16, tp_dst: u16 },
    RemoveOwnedBy(u16),
}

/// A deliberately small match universe so randomized sequences actually
/// collide: identical (match, priority) pairs recur, subsumption triggers,
/// and strict/non-strict variants diverge.
fn small_match(sel: u8, tp: u16) -> FlowMatch {
    match sel % 4 {
        0 => FlowMatch::any(),
        1 => FlowMatch::default().with_tp_dst(tp),
        2 => FlowMatch::default().with_ip_dst(Ipv4::new(10, 0, 0, tp as u8)),
        _ => FlowMatch::default()
            .with_ip_dst(Ipv4::new(10, 0, 0, tp as u8))
            .with_tp_dst(tp),
    }
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        0u8..9,  // command selector (weighted toward mods)
        0u8..4,  // match shape
        0u16..4, // tp / ip discriminator
        0u8..3,  // priority selector
        0u16..4, // output port (action identity)
        0u8..3,  // idle timeout selector
        0u8..3,  // hard timeout selector
        1u64..4, // clock advance
    )
        .prop_map(|(cmd, shape, tp, prio, port, idle, hard, secs)| match cmd {
            8 => Step::RemoveOwnedBy(1 + port % 3),
            6 => Step::Advance(secs),
            7 => Step::Expire,
            5 => Step::Lookup {
                in_port: tp,
                tp_dst: tp,
            },
            cmd => {
                let command = match cmd {
                    0 => FlowModCommand::Add,
                    1 => FlowModCommand::Modify,
                    2 => FlowModCommand::ModifyStrict,
                    3 => FlowModCommand::Delete,
                    _ => FlowModCommand::DeleteStrict,
                };
                let mut fm = FlowMod::add(
                    small_match(shape, tp),
                    Priority(10 * (prio as u16 + 1)),
                    ActionList::output(PortNo(port)),
                );
                fm.command = command;
                fm.cookie = Cookie::with_owner(1 + (port % 3), 0);
                fm.idle_timeout = idle as u16 * 2;
                fm.hard_timeout = hard as u16 * 3;
                fm.notify_when_removed = true;
                Step::Mod(fm)
            }
        })
}

fn probe_frame(tp_dst: u16) -> EthernetFrame {
    EthernetFrame::tcp(
        EthAddr::from_u64(0x01),
        EthAddr::from_u64(0x02),
        Ipv4::new(10, 0, 0, 1),
        Ipv4::new(10, 0, 0, tp_dst as u8),
        1000,
        tp_dst,
        TcpFlags::default(),
        Bytes::new(),
    )
}

proptest! {
    /// The indexed table and the linear oracle agree on every observable:
    /// per-step results (including errors and removal order), final
    /// iteration sequence, and counters mutated by lookups.
    #[test]
    fn indexed_table_matches_linear_reference(
        steps in proptest::collection::vec(arb_step(), 0..80),
    ) {
        let mut indexed = FlowTable::new(6);
        let mut naive = NaiveTable::new(6);
        let mut now = 0u64;
        for step in &steps {
            match step {
                Step::Mod(fm) => {
                    let a = indexed.apply(fm, now);
                    let b = naive.apply(fm, now);
                    prop_assert_eq!(&a, &b, "apply diverged on {:?}", fm);
                }
                Step::Advance(secs) => now += secs,
                Step::Expire => {
                    let a = indexed.expire(now);
                    let b = naive.expire(now);
                    prop_assert_eq!(&a, &b, "expire diverged at t={}", now);
                }
                Step::RemoveOwnedBy(owner) => {
                    let a = indexed.remove_owned_by(*owner);
                    let b = naive.remove_owned_by(*owner);
                    prop_assert_eq!(&a, &b, "remove_owned_by diverged on {}", owner);
                }
                Step::Lookup { in_port, tp_dst } => {
                    let frame = probe_frame(*tp_dst);
                    let a = indexed
                        .lookup(PortNo(*in_port), &frame, 64, now)
                        .cloned();
                    let b = naive.lookup(PortNo(*in_port), &frame, 64, now);
                    prop_assert_eq!(&a, &b, "lookup diverged on tp_dst={}", tp_dst);
                }
            }
            // Full-state equivalence after every step: same entries in the
            // same match order.
            let a: Vec<&FlowEntry> = indexed.iter().collect();
            prop_assert_eq!(a.len(), naive.entries.len());
            for (x, y) in indexed.iter().zip(naive.entries.iter()) {
                prop_assert_eq!(x, y);
            }
            prop_assert_eq!(indexed.len(), naive.entries.len());
        }
    }
}
