//! Sub-second loss recovery on the tree: the measured hand-off timeout and
//! the per-link delivery chain with its named pull (DESIGN §6, §7).

use super::tests::{tech_item, tech_sub};
use super::*;
use crate::deploy::{Deployment, DeploymentBuilder, PublisherSpec};
use newsml::PublisherProfile;
use rand::SeedableRng;
use simnet::LatencyModel;

const PUBLISHER: NodeId = NodeId(0);
const MEMBER: NodeId = NodeId(1);

/// A publisher and two subscribers in one leaf zone on the ideal 10 ms
/// network — with reordering jitter from the start, when asked, so the
/// measured round trips include it. The publisher is the representative
/// that `Deliver`s. Reconcile is off, so whatever heals a loss here is the
/// chain.
fn one_zone(seed: u64, jitter: bool) -> Deployment {
    let mut cfg = NewsWireConfig::tech_news();
    cfg.anti_entropy = false;
    let mut d = DeploymentBuilder::new(2, seed)
        .config(cfg)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    if jitter {
        d.sim.schedule_reorder(SimTime::ZERO, 0.5, SimDuration::from_millis(30));
    }
    for id in [MEMBER, NodeId(2)] {
        d.sim.node_mut(id).set_subscription(tech_sub());
    }
    d.settle(60);
    d
}

/// `node`'s count in the deployment's telemetry registry.
fn count(d: &Deployment, node: NodeId, id: obs::CtrId) -> u64 {
    d.sim.telemetry().borrow().node_counter(node.index(), id)
}

fn ms(at: u64) -> SimTime {
    SimTime::from_micros(at * 1_000)
}

/// Publishes `item` at `at_ms`, with the publisher→member link cut for the
/// few milliseconds its `Deliver` is on the wire when `lose` is set.
fn publish(d: &mut Deployment, at_ms: u64, item: &NewsItem, lose: bool) {
    if lose {
        d.sim.schedule_link_cut(ms(at_ms - 1), PUBLISHER, MEMBER);
        d.sim.schedule_link_heal(ms(at_ms + 5), PUBLISHER, MEMBER);
    }
    d.publish(ms(at_ms), item.clone());
}

fn delivery<'a>(d: &'a Deployment, item: &NewsItem) -> Vec<&'a DeliveryRecord> {
    d.sim.node(MEMBER).deliveries.iter().filter(|r| r.item == item.id).collect()
}

/// (a) One lost `Deliver` — then two in a row — is revealed by the next
/// `Deliver` on the link, pulled by name once the reorder window has
/// passed, and delivered exactly once, flagged as repaired.
#[test]
fn a_lost_deliver_is_revealed_by_the_next_and_pulled_by_name() {
    let mut d = one_zone(3, false);
    let items: Vec<NewsItem> = (0..8).map(tech_item).collect();
    publish(&mut d, 60_000, &items[0], false);
    publish(&mut d, 61_000, &items[1], true);
    // Item 2 names item 1 in its `prev`; item 3 arrives a window later and
    // triggers the sweep that pulls it.
    publish(&mut d, 62_000, &items[2], false);
    d.sim.run_until(ms(62_150));
    let member = d.sim.node(MEMBER);
    assert!(delivery(&d, &items[1]).is_empty(), "nothing but the chain can heal this");
    assert_eq!(member.gap_suspects.len(), 1, "the next Deliver revealed the gap");
    assert_eq!((member.gap_suspects[0].id, member.gap_suspects[0].from), (items[1].id, 0));
    let served = count(&d, PUBLISHER, ctr::NW_REPAIRS_SERVED);
    assert_eq!(served, 0, "a suspect first: reordering is not loss");
    let window = member.round_trip_bound(PUBLISHER.0);
    assert!(
        window >= SimDuration::from_millis(40) && window <= SimDuration::from_millis(100),
        "the reorder window is measured, not the 2 s ceiling: {window:?}"
    );

    publish(&mut d, 62_200, &items[3], false);
    d.sim.run_until(ms(62_250));
    let healed = delivery(&d, &items[1]);
    assert_eq!(healed.len(), 1, "pulled and delivered exactly once");
    assert!(healed[0].via_repair);
    // Item 3 arrives at +10.5 ms; the pull and its reply are one round trip.
    assert!(healed[0].delivered <= ms(62_200 + 11 + 20), "at {:?}", healed[0].delivered);
    let rep = |d: &Deployment| {
        (
            count(d, PUBLISHER, ctr::NW_REPAIRS_SERVED),
            count(d, PUBLISHER, ctr::NW_REPAIR_ITEMS_SENT),
        )
    };
    assert_eq!(rep(&d), (1, 1));

    // Two consecutive losses heal the same way, in one pull.
    publish(&mut d, 63_000, &items[4], true);
    publish(&mut d, 63_100, &items[5], true);
    publish(&mut d, 64_000, &items[6], false);
    publish(&mut d, 64_200, &items[7], false);
    d.settle(5);
    for item in &items {
        let got = delivery(&d, item);
        assert_eq!(got.len(), 1, "item {} delivered exactly once", item.id);
        assert_eq!(got[0].via_repair, [1, 4, 5].contains(&item.id.seq), "item {}", item.id);
    }
    assert_eq!(rep(&d), (2, 3));
    assert!(d.sim.node(MEMBER).gap_suspects.is_empty(), "every suspect settled");
    // The other member lost nothing and asked for nothing.
    assert!(d.sim.node(NodeId(2)).deliveries.iter().all(|r| !r.via_repair));
    let hub = d.sim.telemetry();
    let hub = hub.borrow();
    assert_eq!(hub.counter_total(ctr::NW_GAP_PULLS), 2);
    assert_eq!(hub.counter_total(ctr::NW_GAP_PULL_ITEMS), 3);
}

/// (b) `Deliver`s that overtake one another on a lossless link raise
/// suspects and settle them inside the reorder window: nothing is pulled.
#[test]
fn reordered_delivers_on_a_lossless_link_pull_nothing() {
    let mut d = one_zone(4, false);
    let mut jittery = one_zone(4, true);
    for d in [&mut d, &mut jittery] {
        for seq in 0..40 {
            publish(d, 60_000 + 5 * seq, &tech_item(seq), false);
        }
        d.settle(10);
    }
    let in_order = |d: &Deployment| {
        let seqs: Vec<u64> = d.sim.node(MEMBER).deliveries.iter().map(|r| r.item.seq).collect();
        seqs.windows(2).all(|w| w[0] < w[1])
    };
    assert!(in_order(&d), "the ideal link keeps order");
    assert!(!in_order(&jittery), "workload sanity: jitter reordered the Delivers");
    for d in [&d, &jittery] {
        let member = d.sim.node(MEMBER);
        assert_eq!(member.deliveries.len(), 40);
        assert!(member.deliveries.iter().all(|r| !r.via_repair));
        assert!(member.gap_suspects.is_empty(), "no suspect survives");
        assert_eq!(count(d, PUBLISHER, ctr::NW_REPAIRS_SERVED), 0, "no pull was sent");
    }
}

/// (d) The estimator: nothing measured ⇒ the configured ceiling; whatever
/// is measured, the bound is never below the slowest round trip seen nor
/// above the ceiling; and on the WAN model it clears the slowest round trip
/// the path *can* produce from the first sample on.
#[test]
fn the_round_trip_bound_is_measured_conservative_and_capped() {
    let cfg = NewsWireConfig::tech_news();
    let ceiling = cfg.ack_timeout.expect("tech_news acknowledges hand-offs");
    let layout = astrolabe::ZoneLayout::new(4, 4);
    let agent = Agent::new(0, &layout, astrolabe::Config::standard(), vec![]);
    let mut n = NewsWireNode::new(agent, cfg, Arc::new(TrustRegistry::new(1)));
    let now = SimTime::from_secs(1);

    assert_eq!(n.round_trip_bound(7), ceiling, "a peer never heard from");
    let slot = n.note_alive(NodeId(7), now).expect("a real peer has a slot");
    assert_eq!(n.round_trip_bound(7), ceiling, "heard from, nothing timed");

    // Round trips over an inter-region WAN link: two one-way draws.
    let wan = LatencyModel::wan_defaults(vec![0, 1]);
    let slowest = SimDuration::from_millis(2 * 180);
    for seed in 0..50 {
        let mut rng = SmallRng::seed_from_u64(seed);
        n.peer_health.remove(7);
        let mut largest = SimDuration::ZERO;
        for _ in 0..200 {
            let rtt = wan.sample(NodeId(0), NodeId(1), &mut rng)
                + wan.sample(NodeId(1), NodeId(0), &mut rng);
            largest = largest.max(rtt);
            n.peer_health.note_rtt(slot, rtt);
            let bound = n.round_trip_bound(7);
            assert!(bound >= largest && bound <= ceiling);
            assert!(bound >= slowest, "seed {seed}: {bound:?} would time out a live hand-off");
        }
        assert!(n.round_trip_bound(7) <= SimDuration::from_millis(720), "and it is sub-second");
    }

    // Unacknowledged hand-offs back the bound off until the peer is timed
    // again — a dead peer ends up on the ceiling's ladder, not its own.
    let measured = n.round_trip_bound(7);
    n.peer_health.note_timeout(7);
    assert_eq!(n.round_trip_bound(7), measured + measured);
    for _ in 0..300 {
        n.peer_health.note_timeout(7);
    }
    assert_eq!(n.round_trip_bound(7), ceiling);
    n.peer_health.note_rtt(slot, SimDuration::from_millis(200));
    assert_eq!(n.round_trip_bound(7), measured, "it answered: the measured bound is back");

    n.peer_health.note_rtt(slot, SimDuration::from_secs(30));
    assert_eq!(n.round_trip_bound(7), ceiling, "a gray peer's leash stops at the ceiling");
    n.peer_health.remove(7);
    assert_eq!(n.round_trip_bound(7), ceiling, "a new incarnation starts unmeasured");
}

/// (d) Karn's rule, through the real handlers: the same run with and
/// without the first transmission of a hand-off lost. One ack settles the
/// hand-offs to both representatives of a zone, and times the one sent to
/// the representative it came from — unless that one was retransmitted.
#[test]
fn a_retransmitted_handoff_contributes_no_sample() {
    let run = |lose_first: bool| {
        // Two leaf zones of four; the publisher (node 0, zone /0) hands
        // each article to both representatives of zone /1.
        let mut d = DeploymentBuilder::new(7, 6)
            .branching(4)
            .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
            .build();
        for id in 1..8 {
            d.sim.node_mut(NodeId(id)).set_subscription(tech_sub());
        }
        d.settle(60);
        let reps = zone_reps(&d.sim.node(PUBLISHER).agent, &ZoneId::root().child(1));
        assert_eq!(reps.len(), 2, "both representatives of /1 are known");
        if lose_first {
            for &rep in &reps {
                d.sim.schedule_link_cut(ms(60_999), PUBLISHER, NodeId(rep));
                d.sim.schedule_link_heal(ms(61_005), PUBLISHER, NodeId(rep));
            }
        }
        d.publish(ms(61_000), tech_item(0));
        d.sim.run_until(ms(61_400));
        let publisher = d.sim.node(PUBLISHER);
        assert!(publisher.pending.is_empty(), "the hand-off was acknowledged");
        let timed: u32 = reps
            .iter()
            .map(|rep| publisher.peer_health.rtt[publisher.peer_health.slot_of[rep] as usize])
            .map(|rtt| u32::from(rtt.samples))
            .sum();
        (count(&d, PUBLISHER, ctr::NW_ACK_RETRIES), timed)
    };
    let (clean_retries, clean_timed) = run(false);
    let (lossy_retries, lossy_timed) = run(true);
    assert!(clean_retries == 0 && lossy_retries >= 1, "{clean_retries} / {lossy_retries}");
    assert_eq!(clean_timed, lossy_timed + 1, "the retransmission's ack was not timed");
}

/// (f) A representative that answers a named pull with an item whose
/// signature does not verify is refused by the same funnel every bare item
/// passes, and takes the forgery strike.
#[test]
fn a_forged_answer_to_a_named_pull_is_refused_and_scored() {
    let mut d = one_zone(5, false);
    let items: Vec<NewsItem> = (0..4).map(tech_item).collect();
    publish(&mut d, 60_000, &items[0], false);
    publish(&mut d, 61_000, &items[1], true);
    d.sim.run_until(ms(61_500));
    // The representative turns liar: what it serves for item 1 no longer
    // carries the publisher's signature.
    d.sim.node_mut(PUBLISHER).item_sigs.insert(items[1].id, (KeyId(99), Signature(77)));
    publish(&mut d, 62_000, &items[2], false);
    publish(&mut d, 62_200, &items[3], false);
    // The pull and its re-pull are answered with the forgery; the second
    // strike quarantines the liar, and a quarantined peer is asked nothing
    // further.
    d.settle(5);
    let member = d.sim.node(MEMBER);
    assert_eq!(count(&d, PUBLISHER, ctr::NW_REPAIRS_SERVED), 2, "both pulls were answered");
    assert_eq!(count(&d, MEMBER, ctr::NW_FORGED_REJECTS), 2);
    assert_eq!(member.misbehavior.get(&PUBLISHER.0), Some(&(2 * MISBEHAVIOR_FORGED)));
    assert!(member.quarantined(PUBLISHER.0));
    assert!(member.gap_suspects.is_empty());
    assert!(delivery(&d, &items[1]).is_empty() && !member.cache.contains(items[1].id));
    assert!(!member.seen(items[1].id), "a refused item is still a hole");
}

/// The chain is bounded (three ids per member, `branching` members) and a
/// named pull serves at most eight held ids.
#[test]
fn the_chain_and_the_named_pull_are_bounded() {
    let layout = astrolabe::ZoneLayout::new(4, 4);
    let mut config = astrolabe::Config::standard();
    config.branching = 4;
    let agent = Agent::new(0, &layout, config, vec![]);
    let mut n =
        NewsWireNode::new(agent, NewsWireConfig::tech_news(), Arc::new(TrustRegistry::new(1)));
    let id = |seq| ItemId::new(PublisherId(0), seq);

    assert!(n.chain_advance(1, id(0)).is_empty());
    assert_eq!(n.chain_advance(1, id(1)), vec![id(0)]);
    assert_eq!(n.chain_advance(1, id(2)), vec![id(0), id(1)]);
    assert_eq!(n.chain_advance(1, id(3)), vec![id(0), id(1), id(2)]);
    assert_eq!(n.chain_advance(1, id(4)), vec![id(1), id(2), id(3)], "three ids, oldest first");
    for member in 2..20 {
        n.chain_advance(member, id(9));
    }
    assert_eq!(n.delivery_chains.len(), 4, "one chain per leaf-zone slot");

    // A garbage `prev`: a thousand ids of a publisher nobody has.
    let now = SimTime::from_secs(1);
    let garbage: Vec<ItemId> = (0..1000).map(|s| ItemId::new(PublisherId(77), s)).collect();
    n.note_gap_suspects(NodeId(3), &garbage, now);
    assert_eq!(n.gap_suspects.len(), CHAIN_LEN, "only a chain's worth is read");
    for from in 0..200u64 {
        n.note_gap_suspects(NodeId(3), &[id(1000 + from)], now);
    }
    assert_eq!(n.gap_suspects.len(), MAX_GAP_SUSPECTS);

    for seq in 0..20 {
        n.cache.insert(tech_item(seq), now);
    }
    let ask: Vec<ItemId> = (0..20).rev().map(id).chain(garbage).collect();
    let served = n.named_pull_items(&ask);
    assert_eq!(served.len(), MAX_PULL_IDS);
    let unheld: Vec<ItemId> = (500..520).map(id).collect();
    assert!(n.named_pull_items(&unheld).is_empty(), "ids not held are ignored");
}
