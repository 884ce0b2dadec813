//! E20 — the delta-everything wire protocol: wire bytes under CDC article
//! deltas plus gossip row diffs, against the full-payload baseline.
//!
//! Paper basis (§5, §9): the infrastructure leans on continuous background
//! traffic — gossip exchanges every round, revision fusion re-shipping
//! whole article bodies, repair and reconciliation replies — and the paper
//! simply prices all of it at full size. This experiment asks
//! what the same protocol costs when everything on the wire is
//! delta-encoded: gossip digests shrink to row diffs against what the peer
//! already acknowledged, and a revised article ships only the CDC chunks
//! that changed since the revision the receiver holds.
//!
//! Two arms run the identical seeded revision-heavy workload in one
//! process: `full` with the delta protocol off (every payload full-priced,
//! the pre-delta wire format) and `delta` with CDC article deltas, gossip
//! row diffs and compressed-wire accounting all on. Telemetry is drained
//! after the settle phase so both arms meter the same steady-state window.
//! Reported: full-priced bytes, accounted wire bytes, the reduction ratio
//! (full arm's wire bytes over the delta arm's — the nightly gate asserts
//! ≥2.5×), delivery latency p50/p99 (the gate asserts the delta arm's p50
//! stays within 10% — savings must not cost latency), final-revision
//! completeness, and the delta machinery's own counters.

use newsml::{Category, ItemId, NewsItem, PublisherId, PublisherProfile};
use newswire::{DeploymentBuilder, NewsWireConfig, PublisherSpec};
use simnet::SimTime;

use crate::experiments::support::dump_telemetry;
use crate::Table;

struct Arm {
    /// Full-priced bytes sent during the measured window.
    bytes_sent: u64,
    /// What the accounting model says actually crossed the wire (equals
    /// `bytes_sent` in the full arm).
    bytes_wire: u64,
    p50_s: f64,
    p99_s: f64,
    final_rev_pct: f64,
    delta_items: u64,
    fallbacks: u64,
    refresh_rows: u64,
    /// Gossip bytes each node sent per gossip round, digests, replies and
    /// pushed rows together.
    gossip_per_round: f64,
}

/// One arm: `stories` stories each revised `revs - 1` times after the
/// initial telling, published in 20-second revision waves over a WAN with
/// 1% loss, so repair and reconciliation re-ship revised bodies too.
fn run_arm(n: u32, stories: u32, revs: u32, deltas: bool, seed: u64) -> Arm {
    let config = NewsWireConfig { deltas, ..NewsWireConfig::tech_news() };
    let mut d = DeploymentBuilder::new(n, seed)
        .branching(8)
        .config(config)
        .wan(0.01)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .cats_per_subscriber(2)
        .build();
    d.settle(60);
    // Zero the byte meters here so both arms price the same steady-state
    // window (cold-start membership convergence is E6's subject, not this
    // experiment's).
    let _ = d.sim.drain_telemetry();

    let mut items = Vec::new();
    let mut prev: Vec<Option<ItemId>> = vec![None; stories as usize];
    for rev in 0..revs {
        for story in 0..stories {
            let seq = u64::from(rev * stories + story);
            let item = NewsItem::builder(PublisherId(0), seq)
                .headline(format!("story {story} rev {rev}"))
                .slug(format!("e20-story-{story}"))
                .category(Category::Technology)
                .revision(rev, prev[story as usize])
                .body_len(24_000 + 480 * rev)
                .build();
            prev[story as usize] = Some(item.id);
            d.publish(
                SimTime::from_secs(60 + 20 * u64::from(rev) + u64::from(story)),
                item.clone(),
            );
            items.push(item);
        }
    }
    // Ride out the last wave plus a repair/reconciliation tail.
    d.settle(20 * u64::from(revs) + 80);

    let tc = d.sim.total_counters();
    let (wire, delta_items, fallbacks, refresh_rows, gossip_per_round) = {
        let hub = d.sim.telemetry();
        let hub = hub.borrow();
        let c = |id| hub.counter_total(id);
        (
            c(obs::ctr::BYTES_WIRE),
            c(obs::ctr::DELTA_ITEMS_SENT),
            c(obs::ctr::DELTA_FALLBACK_FULL),
            c(obs::ctr::GOSSIP_REFRESH_ROWS),
            c(obs::ctr::GOSSIP_BYTES_SENT) as f64 / c(obs::ctr::GOSSIP_ROUNDS).max(1) as f64,
        )
    };
    let mut latency = d.delivery_latency_summary();
    let q = |l: &mut simnet::Summary, at: f64| if l.is_empty() { 0.0 } else { l.quantile(at) };
    // Completeness over *final* revisions: older tellings are revision-fused
    // away at every cache, so holding a story's last revision is the
    // meaningful delivery endpoint.
    let (mut want, mut have) = (0u64, 0u64);
    for item in items.iter().filter(|i| i.revision == revs - 1) {
        for node in d.interested_nodes(item) {
            want += 1;
            have += u64::from(d.sim.node(node).has_item(item.id));
        }
    }
    dump_telemetry(&format!("e20_{}", if deltas { "delta" } else { "full" }), &mut d.sim);
    Arm {
        bytes_sent: tc.bytes_sent,
        bytes_wire: if deltas && wire > 0 { wire } else { tc.bytes_sent },
        p50_s: q(&mut latency, 0.5),
        p99_s: q(&mut latency, 0.99),
        final_rev_pct: if want == 0 { 100.0 } else { 100.0 * have as f64 / want as f64 },
        delta_items,
        fallbacks,
        refresh_rows,
        gossip_per_round,
    }
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 120 } else { 300 };
    let stories: u32 = if quick { 6 } else { 10 };
    let revs: u32 = if quick { 4 } else { 6 };
    let full = run_arm(n, stories, revs, false, 0xE20);
    let delta = run_arm(n, stories, revs, true, 0xE20);

    let mut table = Table::new(
        "E20 — delta wire protocol: wire bytes and latency, full vs delta arm",
        &[
            "arm",
            "sent MB",
            "wire MB",
            "ratio",
            "p50 s",
            "p99 s",
            "final-rev %",
            "delta items",
            "fallbacks",
            "refresh rows",
            "gossip B/node/round",
        ],
    );
    let mb = |b: u64| format!("{:.2}", b as f64 / 1e6);
    table.row(&[
        "full".to_string(),
        mb(full.bytes_sent),
        mb(full.bytes_wire),
        "1.00".to_string(),
        format!("{:.2}", full.p50_s),
        format!("{:.2}", full.p99_s),
        format!("{:.1}", full.final_rev_pct),
        full.delta_items.to_string(),
        full.fallbacks.to_string(),
        full.refresh_rows.to_string(),
        format!("{:.0}", full.gossip_per_round),
    ]);
    let ratio = full.bytes_wire as f64 / delta.bytes_wire.max(1) as f64;
    table.row(&[
        "delta".to_string(),
        mb(delta.bytes_sent),
        mb(delta.bytes_wire),
        format!("{ratio:.2}"),
        format!("{:.2}", delta.p50_s),
        format!("{:.2}", delta.p99_s),
        format!("{:.1}", delta.final_rev_pct),
        delta.delta_items.to_string(),
        delta.fallbacks.to_string(),
        delta.refresh_rows.to_string(),
        format!("{:.0}", delta.gossip_per_round),
    ]);
    table.caption(format!(
        "{n} subscribers, branching 8, WAN with 1% loss; {stories} stories × {revs} revisions \
         published in 20 s waves, byte meters zeroed after a 60 s settle so both arms price \
         the same steady-state window. `sent MB` is every payload at full price, `wire MB` \
         is the accounting model's compressed figure, `ratio` the full arm's wire bytes \
         over this arm's. Both arms share one gossip digest (rows whose values did not \
         change move by stamp: `refresh rows`); the delta arm adds per-peer partial \
         digests plus CDC chunk deltas for revised articles; deliveries themselves are \
         identical, so p50 must hold while bytes fall. `gossip B/node/round` is what \
         one node's gossip sent per round, digests, replies and pushed rows together."
    ));
    table.print();
}
