//! E9 — scoped (regional) publishing.
//!
//! Paper basis (§8): "A publisher is able to restrict the scope of the
//! dissemination of the data by selecting another zone than the root zone
//! to publish data into. This for example allows the publisher to
//! disseminate localized news items in Asia."
//!
//! We publish the same item stream twice — once into the root, once into a
//! single top-level zone — and compare total network work and containment
//! (deliveries outside the scope must be zero even though the publisher
//! itself sits in a *different* region and relays in).

use amcast::{FilterSpec, McastData, McastMsg, McastNode};
use astrolabe::{Agent, Config, ZoneId, ZoneLayout};
use bytes::Bytes;
use rand::Rng;
use simnet::{fork, NetworkModel, NodeId, SimTime, Simulation};

use crate::Table;

fn build(n: u32, seed: u64) -> (Simulation<McastNode>, ZoneLayout) {
    let layout = ZoneLayout::new(n, 8);
    let mut aconfig = Config::standard();
    aconfig.branching = 8;
    let mut contact_rng = fork(seed, 99);
    let mut sim = Simulation::new(NetworkModel::default(), seed);
    for i in 0..n {
        let contacts: Vec<u32> = (0..3).map(|_| contact_rng.gen_range(0..n)).collect();
        let agent = Agent::new(i, &layout, aconfig.clone(), contacts);
        sim.add_node(McastNode::new(agent, 1));
    }
    (sim, layout)
}

struct Outcome {
    delivered_inside: usize,
    delivered_outside: usize,
    msgs: u64,
}

fn publish_with_scope(n: u32, scope_child: Option<u16>, seed: u64) -> Outcome {
    let (mut sim, layout) = build(n, seed);
    sim.run_until(SimTime::from_secs(45));
    // Gossip baseline over a publish-window-sized interval, so the
    // publish-attributable message count can be isolated.
    let b0 = sim.total_counters().msgs_sent;
    sim.run_until(SimTime::from_secs(60));
    let gossip_baseline = sim.total_counters().msgs_sent - b0;
    let scope = match scope_child {
        None => ZoneId::root(),
        Some(c) => ZoneId::root().child(c),
    };
    let inside = layout.agents_under(&scope);
    let before = sim.total_counters().msgs_sent;
    // Publisher deliberately OUTSIDE the scope (cross-zone relay path).
    let origin = 0u32;
    assert!(scope_child.is_none() || !inside.contains(&origin));
    for m in 0..5u64 {
        let data = McastData {
            id: m,
            origin,
            priority: 3,
            payload: Bytes::from_static(b"regional"),
            filter: FilterSpec::All,
        };
        sim.schedule_external(
            SimTime::from_secs(60),
            NodeId(origin),
            McastMsg::Publish { data, scope: scope.clone() },
        );
    }
    sim.run_until(SimTime::from_secs(75));
    let mut di = 0;
    let mut doutside = 0;
    for (id, node) in sim.iter() {
        let got = (0..5).filter(|&m| node.has_delivered(m)).count();
        if inside.contains(&id.0) {
            di += got;
        } else {
            doutside += got;
        }
    }
    Outcome {
        delivered_inside: di,
        delivered_outside: doutside,
        msgs: (sim.total_counters().msgs_sent - before).saturating_sub(gossip_baseline),
    }
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 256 } else { 1_024 };
    // Scope = the last top-level zone (origin 0 lives in zone /0).
    let layout = ZoneLayout::new(n, 8);
    let top_children = layout.occupied_children(&ZoneId::root());
    let target = *top_children.last().expect("tree has children");
    let zone_size = layout.agents_under(&ZoneId::root().child(target)).len();

    let root = publish_with_scope(n, None, 0xE9);
    let scoped = publish_with_scope(n, Some(target), 0xE9);

    let mut table = Table::new(
        "E9 — root-scoped vs zone-scoped publishing (5 items, publisher outside the zone)",
        &[
            "scope",
            "nodes in scope",
            "delivered in",
            "delivered out",
            "publish msgs (gossip-corrected)",
        ],
    );
    table.row(&[
        "/ (root)".to_string(),
        n.to_string(),
        root.delivered_inside.to_string(),
        root.delivered_outside.to_string(),
        root.msgs.to_string(),
    ]);
    table.row(&[
        format!("/{target}"),
        zone_size.to_string(),
        scoped.delivered_inside.to_string(),
        scoped.delivered_outside.to_string(),
        scoped.msgs.to_string(),
    ]);
    table.caption(
        "paper: publishers can confine dissemination to a zone ('localized news in Asia'); \
         shape: zero leakage outside the scope and publish work ∝ scope size",
    );
    table.print();
}
