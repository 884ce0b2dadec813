//! E1 — delivery latency vs. system size.
//!
//! Paper basis (abstract, §9): "deliver news updates to hundreds of
//! thousands of subscribers within tens of seconds of the moment of
//! publishing"; "Our system seeks to deliver news items to the subscribers
//! in the order of tens of seconds, even if tens or hundreds of thousands
//! of subscribers are active."
//!
//! We sweep the subscriber count at the paper's branching factor (64) and
//! report publish→deliver latency percentiles. The *shape* to reproduce:
//! latency grows with tree depth (≈ log₆₄ N hops plus gossip freshness),
//! staying well inside "tens of seconds" at 10⁴–10⁵ subscribers.

use simnet::SimDuration;

use crate::experiments::support::{dump_telemetry, newswire_deployment, settle_secs, tech_item};
use crate::Table;

pub(crate) fn run(quick: bool) {
    let sizes: &[u32] = if quick { &[500, 2_000] } else { &[1_000, 4_000, 16_000, 65_536] };
    let mut table = Table::new(
        "E1 — publish→deliver latency vs subscribers (branching 64)",
        &["subscribers", "levels", "items", "deliveries", "p50 s", "p99 s", "max s"],
    );
    for &n in sizes {
        let mut d = newswire_deployment(n, 64, 0xE1);
        d.settle(settle_secs(n));
        let t0 = d.sim.now();
        let items = 5u64;
        for seq in 0..items {
            d.publish(t0 + SimDuration::from_secs(2 * seq), tech_item(seq));
        }
        d.settle(40);
        // Latency quantiles walk every node's delivery log: no node churns
        // in this sweep, so no log was cleared by a recovery.
        let mut lat = d.delivery_latency_summary();
        let levels = d.layout.levels() + 1;
        if lat.is_empty() {
            table.row(&[
                n.to_string(),
                levels.to_string(),
                items.to_string(),
                "0".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        table.row(&[
            n.to_string(),
            levels.to_string(),
            items.to_string(),
            lat.len().to_string(),
            format!("{:.2}", lat.quantile(0.5)),
            format!("{:.2}", lat.quantile(0.99)),
            format!("{:.2}", lat.max()),
        ]);
        dump_telemetry(&format!("e1_n{n}"), &mut d.sim);
    }
    table.caption(
        "paper: delivery within tens of seconds at 10^5 subscribers; \
         shape: latency ~ tree depth, far below the tens-of-seconds bound",
    );
    table.print();
}
