//! E9 — scoped (regional) publishing.
//!
//! Paper basis (§8): "A publisher is able to restrict the scope of the
//! dissemination of the data by selecting another zone than the root zone
//! to publish data into. This for example allows the publisher to
//! disseminate localized news items in Asia."
//!
//! We publish the same item stream twice over the first-pass tree (k = 1,
//! no acks, no anti-entropy) — once into the root, once into a single
//! top-level zone — and compare the tree's forwarding work (`nw_forwards`
//! over the publish window) and containment (deliveries outside the scope
//! must be zero even though the publisher itself sits in a *different*
//! region and relays in).

use std::collections::HashSet;

use astrolabe::ZoneId;
use simnet::SimTime;

use crate::experiments::support::{first_pass, slashdot, tech_item};
use crate::Table;

struct Outcome {
    scope: ZoneId,
    nodes_in: usize,
    interested_in: usize,
    delivered_in: usize,
    delivered_out: usize,
    forwards: u64,
}

/// Publishes 5 items into the root, or into the largest top-level zone
/// the publisher (node 0) is not in.
fn publish_with_scope(n: u32, scoped: bool, seed: u64) -> Outcome {
    let mut d = slashdot(n, first_pass(1), seed).build();
    d.settle(60);
    let scope = if scoped {
        let publisher_leaf = d.layout.leaf_zone(0);
        let children = d.layout.occupied_children(&ZoneId::root());
        let zones = children.into_iter().map(|c| ZoneId::root().child(c));
        zones
            .filter(|z| !z.is_ancestor_of(&publisher_leaf))
            .max_by_key(|z| d.layout.agents_under(z).len())
            .expect("more than one top-level zone")
    } else {
        ZoneId::root()
    };
    let inside: HashSet<u32> = d.layout.agents_under(&scope).into_iter().collect();
    let before = d.counter(obs::ctr::NW_FORWARDS);
    let items: Vec<_> = (0..5).map(tech_item).collect();
    for item in &items {
        d.publish_scoped(SimTime::from_secs(60), item.clone(), scope.clone());
    }
    d.settle(15);
    let mut out = Outcome {
        nodes_in: inside.len(),
        interested_in: 0,
        delivered_in: 0,
        delivered_out: 0,
        forwards: d.counter(obs::ctr::NW_FORWARDS) - before,
        scope,
    };
    for item in &items {
        out.interested_in +=
            d.interested_nodes(item).iter().filter(|id| inside.contains(&id.0)).count();
        for id in d.delivered_nodes(item) {
            if inside.contains(&id.0) {
                out.delivered_in += 1;
            } else {
                out.delivered_out += 1;
            }
        }
    }
    out
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 256 } else { 1_024 };
    let mut table = Table::new(
        "E9 — root-scoped vs zone-scoped publishing (5 items, publisher outside the zone)",
        &[
            "scope",
            "nodes in scope",
            "interested in",
            "delivered in",
            "delivered out",
            "nw_forwards",
        ],
    );
    for scoped in [false, true] {
        let o = publish_with_scope(n, scoped, 0xE9);
        table.row(&[
            o.scope.to_string(),
            o.nodes_in.to_string(),
            o.interested_in.to_string(),
            o.delivered_in.to_string(),
            o.delivered_out.to_string(),
            o.forwards.to_string(),
        ]);
    }
    table.caption(format!(
        "{n} subscribers + 1 publisher, branching 8, first-pass tree (k=1, acks and \
         anti-entropy off), nw_forwards counted over the 15 s after publishing; paper: \
         publishers can confine dissemination to a zone ('localized news in Asia'); shape: \
         zero leakage outside the scope and publish work ∝ scope size"
    ));
    table.print();
}
