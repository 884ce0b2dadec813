//! What a node's NewsWire bookkeeping holds, structure by structure
//! (DESIGN §8, "Where a NewsWire node's memory goes").

use super::NewsWireNode;

/// Heap bytes of a node's NewsWire structures, each computed from its
/// lengths and capacities. Articles and envelopes are shared handles: each
/// structure counts its handles, not what they point to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// The message cache's entries: each seq beside its article handle,
    /// arrival time, signature and signer, on one shelf per publisher.
    pub cache: usize,
    /// The cache's slug index.
    pub slug_index: usize,
    /// The reconcile component: the article logs, the stub table, the own
    /// digest rider and the handles to the mates', and the pull in flight.
    pub reconcile: usize,
    /// The application delivery log.
    pub deliveries: usize,
    /// The forwarding-duty coverage window.
    pub coverage: usize,
    /// The forwarding queues.
    pub queues: usize,
    /// The acknowledgement table (entries, sweep deadlines, round-trip
    /// estimates, back-off counts) and the held announces.
    pub acks: usize,
}

impl NewsWireNode {
    /// The heap bytes of this node's NewsWire structures.
    pub fn footprint(&self) -> Footprint {
        let (cache, slug_index) = self.cache.heap_bytes();
        Footprint {
            cache,
            slug_index,
            reconcile: self.reconcile.heap_bytes(),
            deliveries: self.deliveries.heap_bytes(),
            coverage: self.coverage.heap_bytes(),
            queues: self.queues.heap_bytes(),
            acks: self.acks.heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::super::{Acks, Reconcile};
    use crate::deploy::tech_news_deployment;
    use amcast::{CoverageWindow, ForwardingQueues, FORWARD_STRATEGY};
    use newsml::{Category, NewsItem, PublisherId};
    use simnet::{NodeId, SimDuration, SimTime};

    /// Every structure of every node of a small deployment, dropped in turn
    /// under a counting allocator, frees what `footprint` reports of it, to
    /// within 10 %.
    #[test]
    fn the_footprint_agrees_with_a_counting_allocator() {
        let mut d = tech_news_deployment(40, 7);
        d.settle(60);
        for seq in 0..60 {
            let item = NewsItem::builder(PublisherId(0), seq)
                .headline(format!("story {seq}"))
                .category(Category::Technology)
                .build();
            d.publish(SimTime::from_secs(60) + SimDuration::from_millis(250 * seq), item);
        }
        d.settle(60);
        // The articles outlive every cache: a cache frees its handles only.
        let articles: Vec<Arc<NewsItem>> = d
            .sim
            .iter()
            .flat_map(|(_, node)| node.cache.iter().cloned().collect::<Vec<_>>())
            .collect();
        assert!(!articles.is_empty());
        // (reported, freed) for the cache with its slug index, reconcile,
        // deliveries, the coverage window, the queues and the acks.
        let mut rows = [(0usize, 0i64); 6];
        for i in 0..d.sim.iter().count() {
            let node = d.sim.node_mut(NodeId(i as u32));
            let f = node.footprint();
            let (acks, queues) = (
                Acks::new(node.agent.id(), node.agent.layout()),
                ForwardingQueues::new(FORWARD_STRATEGY),
            );
            let freed = [
                heapcount::freed_by(std::mem::take(&mut node.cache)),
                heapcount::freed_by(std::mem::replace(&mut node.reconcile, Reconcile::new(1))),
                heapcount::freed_by(std::mem::take(&mut node.deliveries)),
                heapcount::freed_by(std::mem::replace(&mut node.coverage, CoverageWindow::new(1))),
                heapcount::freed_by(std::mem::replace(&mut node.queues, queues)),
                heapcount::freed_by(std::mem::replace(&mut node.acks, acks)),
            ];
            let reported =
                [f.cache + f.slug_index, f.reconcile, f.deliveries, f.coverage, f.queues, f.acks];
            for (row, (r, freed)) in rows.iter_mut().zip(reported.into_iter().zip(freed)) {
                row.0 += r;
                row.1 += freed;
            }
        }
        let names = ["cache", "reconcile", "deliveries", "coverage", "queues", "acks"];
        for (name, (reported, freed)) in names.into_iter().zip(rows) {
            assert!(freed > 0, "{name}: nothing to measure");
            let off = (reported as f64 - freed as f64).abs() / freed as f64;
            assert!(off <= 0.1, "{name}: footprint {reported} B, the allocator freed {freed} B");
        }
    }

    /// A queued copy is a hop — an envelope handle with a zone or an
    /// upstream id — not a `NewsWireMsg`, whose `PublishRequest` made each
    /// slot 256 bytes.
    #[test]
    fn a_queued_copy_is_at_most_64_bytes() {
        let slot = std::mem::size_of::<amcast::Queued<super::super::QueuedCopy>>();
        assert!(slot <= 64, "{slot} B a queued copy");
        assert!(std::mem::size_of::<crate::NewsWireMsg>() > 4 * slot);
    }
}
