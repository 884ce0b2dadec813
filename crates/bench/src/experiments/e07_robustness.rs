//! E7 — redundant representatives vs forwarder failures.
//!
//! Paper basis (§9): "we use multiple representatives to forward a new
//! item, to increase the robustness of the delivery", with duplicates
//! removed via the publisher-assigned unique item id.
//!
//! We crash a growing fraction of nodes at the instant of publishing (the
//! worst case: the tree's tables still name the dead nodes as
//! representatives) and measure the delivery ratio among interested
//! survivors for the first-pass tree with k = 1, 2, 3 redundant
//! representatives (no acks, no anti-entropy), plus the
//! duplicate-suppression work k costs. A last arm runs the shipped
//! configuration (k = 2, acks and anti-entropy on) under the same crashes:
//! what the recovery behind the tree adds in the same window. In full mode
//! one more row crashes one representative of every leaf zone but the
//! publisher's once the shipped arm's final hops have been measured clean,
//! so the members it sent payloads to hold the other representative's
//! announce instead (DESIGN §6), and a second one crashes, in each of those
//! zones, the representative that holds the first new article's one
//! payload once the hand-offs have been measured clean too, so its
//! co-representative holds only an announce.

use std::collections::{BTreeSet, HashSet};

use astrolabe::AttrValue;
use newswire::{msg_id_of, Deployment, NewsWireConfig};
use obs::ctr;
use rand::Rng;
use simnet::{fork, NodeId, SimDuration};

use crate::experiments::support::{first_pass, slashdot, tech_item};
use crate::Table;

/// One run's interested-survivor delivery ratios (%) 15 s and 60 s after
/// publishing, and its duplicates per delivery in the first 15 s.
struct Point {
    first: f64,
    late: f64,
    dups: f64,
}

fn run_point(n: u32, fail_pct: u32, config: NewsWireConfig, seed: u64) -> Point {
    let mut d = slashdot(n, config, seed).build();
    // One article during the settle, so every survivor already keeps a log
    // for the publisher when the crashes land: a leaf zone that misses a
    // publisher's very first articles has no log to reconcile (ROADMAP item 13).
    d.settle(45);
    d.publish(d.sim.now(), tech_item(0));
    d.settle(15);
    // Vec keeps the crash schedule in draw order (deterministic); the set
    // makes dedup and the survivor scan O(1) per probe instead of O(n).
    let mut victim_rng = fork(seed, 7);
    let mut victims: Vec<u32> = Vec::new();
    let mut victim_set: HashSet<u32> = HashSet::new();
    while (victims.len() as u32) < n * fail_pct / 100 {
        let v = victim_rng.gen_range(1..=n); // node 0 stays (the publisher)
        if victim_set.insert(v) {
            victims.push(v);
        }
    }
    crash_and_publish(&mut d, n, &victims, 1)
}

/// Crashes `victims` now, in order, publishes five articles from seq
/// `first` the same instant, and reads the interested survivors.
fn crash_and_publish(d: &mut Deployment, n: u32, victims: &[u32], first: u64) -> Point {
    let at = d.sim.now();
    let victim_set: HashSet<u32> = victims.iter().copied().collect();
    for &v in victims {
        d.sim.schedule_crash(at, NodeId(v));
    }
    let survivors: Vec<u32> = (0..=n).filter(|i| !victim_set.contains(i)).collect();
    let duplicates = |d: &Deployment| -> u64 {
        let hub = d.sim.telemetry();
        let hub = hub.borrow();
        survivors.iter().map(|&i| hub.node_counter(i as usize, obs::ctr::NW_DUPLICATES)).sum()
    };
    let dups_before = duplicates(d);
    let items: Vec<_> = (first..first + 5).map(tech_item).collect();
    for item in &items {
        d.publish(at, item.clone());
    }
    d.settle(15);
    let ratio = |d: &Deployment| -> (u64, f64) {
        let (mut expected, mut delivered) = (0u64, 0u64);
        for item in &items {
            for id in d.interested_nodes(item) {
                if !victim_set.contains(&id.0) {
                    expected += 1;
                    delivered += u64::from(d.sim.node(id).has_item(item.id));
                }
            }
        }
        (delivered, 100.0 * delivered as f64 / expected.max(1) as f64)
    };
    let (delivered, first) = ratio(d);
    let dups = (duplicates(d) - dups_before) as f64 / delivered.max(1) as f64;
    // A first-pass tree has nothing that acts after its first pass.
    let late = if d.config.anti_entropy {
        d.settle(45);
        ratio(d).1
    } else {
        first
    };
    Point { first, late, dups }
}

/// Articles published before a warmed row's crash: at four a second, enough
/// for the representatives of most leaf zones to have had the
/// `SPLIT_STREAK` payloads acknowledged in a row that turn announces on, and
/// the nodes handing leaf zones off the `HANDOFF_STREAK` hand-offs that
/// turn one payload per zone on.
const WARM_UP: u64 = 160;

/// The shipped configuration after [`WARM_UP`] articles and a minute.
fn warmed(n: u32, seed: u64) -> Deployment {
    let mut d = slashdot(n, NewsWireConfig::tech_news(), seed).build();
    d.settle(45);
    for seq in 0..WARM_UP {
        d.publish(d.sim.now() + SimDuration::from_millis(250 * seq), tech_item(seq));
    }
    d.settle(60);
    d
}

/// In every leaf zone but the publisher's, the representative `pick` names
/// given the zone's sorted representatives and those of the zones above it
/// (a victim among them would cost a hand-off above the leaf zone).
fn leaf_victims(
    d: &Deployment,
    n: u32,
    pick: impl Fn(&[u64], &BTreeSet<u64>) -> Option<u64>,
) -> Vec<u32> {
    let own = d.layout.leaf_zone(0);
    let mut victims = BTreeSet::new();
    let mut zones = HashSet::new();
    for member in 1..=n {
        let agent = &d.sim.node(NodeId(member)).agent;
        if agent.zone(0) == &own || !zones.insert(agent.zone(0).clone()) {
            continue;
        }
        // The representatives this member's tables list for its own zone
        // at `level`: its leaf zone's at level 1.
        let reps = |level: usize| match agent.table(level).get(agent.own_label(level)) {
            Some(row) => match row.get("reps") {
                Some(AttrValue::Set(reps)) => reps.clone(),
                _ => BTreeSet::new(),
            },
            None => BTreeSet::new(),
        };
        let higher: BTreeSet<u64> = (2..agent.levels()).flat_map(reps).collect();
        let sorted: Vec<u64> = reps(1).into_iter().collect();
        let victim = pick(&sorted, &higher);
        victims.extend(victim.and_then(|r| u32::try_from(r).ok()));
    }
    victims.into_iter().collect()
}

/// Deliveries by reconcile of the articles published at the crash.
fn repaired(d: &Deployment) -> usize {
    let deliveries = d.sim.iter().flat_map(|(_, node)| &node.deliveries);
    deliveries.filter(|r| r.via_repair && r.item.seq >= WARM_UP).count()
}

/// The shipped configuration, [`warmed`]. Then, in every leaf zone but the
/// publisher's, one representative that represents no zone higher up
/// crashes the instant five more are published: the final hop loses a
/// payload sender, and no hand-off above it is lost. Returns the
/// survivors' ratios and the caption's note on the run.
fn run_warmed_rep_crash(n: u32, seed: u64) -> (Point, String) {
    let mut d = warmed(n, seed);
    let announced = d.counter(ctr::NW_ANNOUNCES);
    let pick = |reps: &[u64], higher: &BTreeSet<u64>| {
        reps.iter().copied().find(|r| *r != 0 && !higher.contains(r))
    };
    let victims = leaf_victims(&d, n, pick);
    let payloads = d.counter(ctr::NW_ANNOUNCE_PAYLOADS);
    let point = crash_and_publish(&mut d, n, &victims, WARM_UP);
    let note = format!(
        "; leaf rep, warmed = the shipped arm after {WARM_UP} articles, then in each other leaf \
         zone one representative that represents no zone higher up crashed at publish ({} \
         nodes; {announced} announces sent before the crash, {} answered with the payload \
         after it, {} deliveries by reconcile)",
        victims.len(),
        d.counter(ctr::NW_ANNOUNCE_PAYLOADS) - payloads,
        repaired(&d),
    );
    (point, note)
}

/// The shipped configuration, [`warmed`]. Then, in every leaf zone but the
/// publisher's, the representative that a stable hash of the first new
/// article's id names as the holder of its one payload crashes the instant
/// five more are published, when it represents no zone higher up: that
/// article's co-representative holds only an announce, which runs out,
/// and the payload sent it then covers the zone. Returns the survivors'
/// ratios and the caption's note on the run.
fn run_warmed_holder_crash(n: u32, seed: u64) -> (Point, String) {
    let mut d = warmed(n, seed);
    let announced = d.counter(ctr::NW_HANDOFF_ANNOUNCES);
    let msg_id = msg_id_of(tech_item(WARM_UP).id);
    let holder = |reps: &[u64], higher: &BTreeSet<u64>| {
        let at = filters::mix(msg_id) % reps.len().max(1) as u64;
        reps.get(at as usize).copied().filter(|r| *r != 0 && !higher.contains(r))
    };
    let victims = leaf_victims(&d, n, holder);
    let payloads = d.counter(ctr::NW_HANDOFF_ANNOUNCE_PAYLOADS);
    let point = crash_and_publish(&mut d, n, &victims, WARM_UP);
    let note = format!(
        "; leaf holder, warmed = the same, the crashed representative being the holder of the \
         first new article's one payload ({} nodes; {announced} hand-off announces sent before \
         the crash, {} answered with the payload after it, {} deliveries by reconcile)",
        victims.len(),
        d.counter(ctr::NW_HANDOFF_ANNOUNCE_PAYLOADS) - payloads,
        repaired(&d),
    );
    (point, note)
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 256 } else { 1_024 };
    let fails: &[u32] = if quick { &[0, 20] } else { &[0, 10, 20, 30, 40] };
    let mut table = Table::new(
        "E7 — survivor delivery ratio when forwarders crash at publish time",
        &["failed %", "k=1 %", "k=2 %", "k=3 %", "dup/delivery k=3", "shipped %", "shipped 60 s %"],
    );
    for &f in fails {
        let [k1, k2, k3] = [1, 2, 3].map(|k| run_point(n, f, first_pass(k), 0xE7));
        let shipped = run_point(n, f, NewsWireConfig::tech_news(), 0xE7);
        table.row(&[
            f.to_string(),
            format!("{:.1}", k1.first),
            format!("{:.1}", k2.first),
            format!("{:.1}", k3.first),
            format!("{:.2}", k3.dups),
            format!("{:.1}", shipped.first),
            format!("{:.1}", shipped.late),
        ]);
    }
    let mut warmed = String::new();
    if !quick {
        for (row, run) in [
            ("leaf rep, warmed", run_warmed_rep_crash as fn(u32, u64) -> (Point, String)),
            ("leaf holder, warmed", run_warmed_holder_crash),
        ] {
            let (point, note) = run(n, 0xE7);
            let (first, late) = (format!("{:.1}", point.first), format!("{:.1}", point.late));
            table.row(&[row, "–", "–", "–", "–", &first, &late]);
            warmed += &note;
        }
    }
    table.caption(format!(
        "{n} subscribers + 1 publisher, branching 8, 5 items published the instant the \
         nodes die (one article before), ratio over interested survivors 15 s later; \
         k=1..3 = first-pass tree (acks and anti-entropy off), shipped = k=2 with acks and \
         anti-entropy, also read 60 s after publishing; paper: redundancy increases \
         robustness, duplicates removed by item id{warmed}"
    ));
    table.print();
}
