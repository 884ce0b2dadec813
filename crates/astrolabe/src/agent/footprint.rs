//! What an agent's replica holds, structure by structure (DESIGN §8,
//! "Where an Astrolabe replica's memory goes").

use std::mem::size_of;
use std::sync::Arc;

use simnet::heap::{arc_bytes, btree_map_bytes};

use super::{Agent, AggProgram, Level, Rare};
use crate::mib::Mib;
use crate::table::Row;

/// Heap bytes of an agent's structures, each computed from its lengths and
/// capacities. Row values are shared handles (one `Mib` per row version in
/// a simulation): a table counts its slots, not the values they point to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// The zone tables' row slots.
    pub tables: usize,
    /// The row timeouts, 16 bytes a slot.
    pub detectors: usize,
    /// The per-level records, each with its table's and timeouts' header
    /// inline, and the zone ids' label paths.
    pub levels: usize,
    /// Summaries only an aggregate cache still holds: a summary a table row
    /// shares is counted nowhere.
    pub agg_caches: usize,
    /// The cached gossip-peer lists.
    pub peers: usize,
    /// The box of mobile code, tombstones and incarnations, when one was
    /// allocated: its record, its maps and lists, the names and sources
    /// they hold, and each compiled program's `Arc` block (not the parsed
    /// program inside it).
    pub rare: usize,
    /// The bootstrap contacts.
    pub contacts: usize,
}

impl Footprint {
    /// All of the structures together.
    pub fn total(&self) -> usize {
        self.tables
            + self.detectors
            + self.levels
            + self.agg_caches
            + self.peers
            + self.rare
            + self.contacts
    }
}

impl Agent {
    /// The heap bytes of this agent's structures.
    pub fn footprint(&self) -> Footprint {
        let sum = |f: fn(&Level) -> usize| self.levels.iter().map(f).sum();
        Footprint {
            tables: sum(|lv| lv.table.capacity() * size_of::<Row>()),
            detectors: sum(|lv| lv.timeouts.heap_bytes()),
            levels: self.levels.capacity() * size_of::<Level>()
                + sum(|lv| lv.table.zone.heap_bytes_alone()),
            agg_caches: sum(|lv| lv.agg.as_ref().map_or(0, |c| Mib::heap_bytes_alone(&c.proto))),
            peers: sum(|lv| {
                lv.peers.as_ref().map_or(0, |(_, _, p)| p.capacity() * size_of::<u32>())
            }),
            rare: self.rare.as_deref().map_or(0, Rare::heap_bytes),
            contacts: self.contacts.capacity() * size_of::<u32>(),
        }
    }
}

impl Rare {
    /// Heap bytes of the box and everything it holds alone.
    fn heap_bytes(&self) -> usize {
        fn map<K, V>(len: usize) -> usize {
            btree_map_bytes::<K, V>(len, len > 0)
        }
        let compiled = map::<String, Option<Arc<AggProgram>>>(self.compiled.len())
            + self
                .compiled
                .iter()
                .map(|(src, prog)| {
                    let alone = prog.as_ref().is_some_and(|p| Arc::strong_count(p) == 1);
                    src.capacity() + if alone { arc_bytes(size_of::<AggProgram>()) } else { 0 }
                })
                .sum::<usize>();
        let dynamic = map::<String, String>(self.dynamic.len())
            + self.dynamic.iter().map(|(k, v)| k.capacity() + v.capacity()).sum::<usize>();
        size_of::<Rare>()
            + compiled
            + dynamic
            + map::<(usize, u16), u64>(self.tombstones.len())
            + self.incar_seen.capacity() * size_of::<u64>()
            + self.incarnation_bumps.capacity() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::super::tests::{make_agents, run_rounds};
    use super::*;
    use crate::ZoneTable;

    /// 100 agents in two levels of ten, converged: every table holds its
    /// zone's ten rows.
    fn converged() -> Vec<Agent> {
        let mut agents = make_agents(100, 10);
        run_rounds(&mut agents, 40, 0);
        for a in &agents {
            for level in 0..a.levels() {
                assert_eq!(a.table(level).len(), 10, "agent {} level {level}", a.id());
            }
        }
        agents
    }

    /// Every structure of every agent of a small converged deployment,
    /// dropped in turn under a counting allocator, frees what `footprint`
    /// reports of it, to within 10 %. Two members restart into a new
    /// incarnation first, so their leaf mates hold the box.
    #[test]
    fn the_footprint_agrees_with_a_counting_allocator() {
        let mut agents = converged();
        for restarted in [3, 57] {
            agents[restarted].set_incarnation(1);
        }
        run_rounds(&mut agents, 3, 40_000_000);
        let boxes = agents.iter().filter(|a| a.rare.is_some()).count();
        assert_eq!(boxes, 18, "the restarted members' leaf mates, and only they");
        // The row values outlive every table: a table frees its slots only.
        let values: Vec<Arc<Mib>> = agents
            .iter()
            .flat_map(|a| a.levels.iter().flat_map(|lv| lv.table.iter().map(|(_, v)| v)))
            .cloned()
            .collect();
        // (reported, freed) for the tables, detectors, level records,
        // aggregate caches, peer lists, boxes and contacts.
        let mut rows = [(0usize, 0i64); 7];
        for a in &mut agents {
            let f = a.footprint();
            let mut freed = [0i64; 7];
            for lv in &mut a.levels {
                let empty = ZoneTable::new(lv.table.zone.clone());
                freed[0] += heapcount::freed_by(std::mem::replace(&mut lv.table, empty));
                freed[1] += heapcount::freed_by(std::mem::take(&mut lv.timeouts));
                freed[3] += heapcount::freed_by(lv.agg.take());
                freed[4] += heapcount::freed_by(lv.peers.take());
            }
            freed[2] = heapcount::freed_by(std::mem::take(&mut a.levels));
            freed[5] = heapcount::freed_by(a.rare.take());
            freed[6] = heapcount::freed_by(std::mem::take(&mut a.contacts));
            let reported =
                [f.tables, f.detectors, f.levels, f.agg_caches, f.peers, f.rare, f.contacts];
            for (row, (r, freed)) in rows.iter_mut().zip(reported.into_iter().zip(freed)) {
                row.0 += r;
                row.1 += freed;
            }
        }
        drop(values);
        let names = ["tables", "detectors", "levels", "agg caches", "peers", "boxes", "contacts"];
        for (name, (reported, freed)) in names.into_iter().zip(rows) {
            if name == "agg caches" {
                // Only an agent with a duty keeps a summary, and once
                // converged it shares it with its parent table's row.
                assert_eq!((reported, freed), (0, 0), "a summary only a cache holds");
                continue;
            }
            assert!(freed > 0, "{name}: nothing to measure");
            let off = (reported as f64 - freed as f64).abs() / freed as f64;
            assert!(off <= 0.1, "{name}: footprint {reported} B, the allocator freed {freed} B");
        }
    }

    /// What one agent of the converged deployment holds, at most: measured
    /// at 1,524 B (1,396 B the least) with 32-byte row slots and no scratch
    /// diff of its own. With 40-byte slots and a per-agent scratch diff the
    /// same agents held 1,612–1,764 B; with the 72-byte φ ring a row had
    /// before that, 2,900–3,366 B; with 32-byte detector slots, 4-byte ring
    /// cells and tables grown by doubling (sixteen slots for ten rows),
    /// 3,860–4,326 B.
    #[test]
    fn an_agent_stays_within_its_footprint_budget() {
        const BUDGET: usize = 1_524;
        for a in converged() {
            let f = a.footprint();
            assert!(f.total() <= BUDGET, "agent {}: {} B, {f:?}", a.id(), f.total());
        }
    }

    /// A table is sized to its zone's child count when its first foreign
    /// row arrives, and a cold restart keeps the size.
    #[test]
    fn a_converged_ten_child_root_table_has_room_for_ten_rows() {
        let mut agents = converged();
        for a in &agents {
            assert_eq!(a.root_table().capacity(), 10, "agent {}", a.id());
        }
        agents[3].reset();
        assert_eq!(agents[3].root_table().capacity(), 10);
        assert!(agents[3].root_table().is_empty());
    }
}
