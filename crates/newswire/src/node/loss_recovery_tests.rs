//! Loss recovery on the tree: the measured hand-off timeout, the
//! acknowledged final hop, and reconcile's explicit vouching (DESIGN §6, §7).

use super::acks::{ACK_TIMEOUT, MAX_HELD_ANNOUNCES, MAX_PENDING_DELIVERS};
use super::reconcile::MAX_ASKED;
use super::tests::{tech_item, tech_sub};
use super::*;
use crate::deploy::{Deployment, DeploymentBuilder, PublisherSpec};
use newsml::{Category, PublisherProfile};
use rand::SeedableRng;
use simnet::LatencyModel;

const PUBLISHER: NodeId = NodeId(0);
const MEMBER: NodeId = NodeId(1);

/// A publisher and two subscribers in one leaf zone on the ideal 10 ms
/// network. The publisher is the representative that `Deliver`s.
/// Reconcile is off, so whatever heals a loss here is the final hop's ack.
fn one_zone(seed: u64) -> Deployment {
    let mut cfg = NewsWireConfig::tech_news();
    cfg.anti_entropy = false;
    let mut d = DeploymentBuilder::new(2, seed)
        .config(cfg)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
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

fn delivery(d: &Deployment, item: &NewsItem) -> Vec<DeliveryRecord> {
    d.sim.node(MEMBER).deliveries.iter().filter(|r| r.item == item.id).collect()
}

/// Half the publisher's round-trip bound to the member, in milliseconds: a
/// link cut that long loses the copies sent into it, and the re-sends one
/// bound later find it up again.
fn half_bound_ms(d: &Deployment) -> u64 {
    d.sim.node(PUBLISHER).acks.round_trip_bound(MEMBER.0).as_micros() / 2_000
}

/// Cuts `from`→`to` from `at_ms` for `for_ms`.
fn cut(d: &mut Deployment, from: NodeId, to: NodeId, at_ms: u64, for_ms: u64) {
    d.sim.schedule_link_cut(ms(at_ms), from, to);
    d.sim.schedule_link_heal(ms(at_ms + for_ms), from, to);
}

/// The last `Deliver` of a feed is lost and nothing is published after it:
/// no later `Deliver` can reveal the gap and reconcile is off, yet the
/// publisher, missing the member's ack, sends it again within a round-trip
/// bound. It is delivered once, as a tree delivery.
#[test]
fn a_lost_last_deliver_is_resent_after_one_round_trip_bound() {
    let mut d = one_zone(3);
    let items: Vec<NewsItem> = (0..2).map(tech_item).collect();
    publish(&mut d, 60_000, &items[0], false);
    publish(&mut d, 61_000, &items[1], true);
    d.settle(5);
    let got = delivery(&d, &items[1]);
    assert_eq!(got.len(), 1, "delivered exactly once");
    assert!(!got[0].via_repair, "the re-sent Deliver is the tree's own copy");
    let bound = d.sim.node(PUBLISHER).acks.round_trip_bound(MEMBER.0);
    assert!(bound < SimDuration::from_millis(200), "measured, not the 2 s ceiling: {bound:?}");
    let hop = SimDuration::from_millis(11);
    let late = got[0].delivered.saturating_since(got[0].published);
    assert!(late <= bound + bound + hop, "{late:?} after publication, bound {bound:?}");
    assert_eq!(count(&d, PUBLISHER, ctr::NW_DELIVER_RESENDS), 1);
    assert_eq!(count(&d, PUBLISHER, ctr::NW_ACK_RETRIES), 0, "hand-off retries count apart");
    assert_eq!(d.sim.node(PUBLISHER).unacknowledged(), 0);
    // The other member lost nothing and was sent nothing twice.
    assert_eq!(d.sim.node(NodeId(2)).deliveries.len(), 2);
}

/// Two `Deliver`s lost in a row are each re-sent on their own: the second
/// loss does not wait on the first.
#[test]
fn two_delivers_lost_in_a_row_are_each_resent() {
    let mut d = one_zone(4);
    let items: Vec<NewsItem> = (0..4).map(tech_item).collect();
    publish(&mut d, 60_000, &items[0], false);
    let window = half_bound_ms(&d);
    cut(&mut d, PUBLISHER, MEMBER, 60_999, window);
    publish(&mut d, 61_000, &items[1], false);
    publish(&mut d, 61_000 + window / 2, &items[2], false);
    publish(&mut d, 62_000, &items[3], false);
    d.settle(5);
    for item in &items {
        let got = delivery(&d, item);
        assert_eq!(got.len(), 1, "item {} delivered exactly once", item.id);
        assert!(!got[0].via_repair, "item {}", item.id);
    }
    assert_eq!(count(&d, PUBLISHER, ctr::NW_DELIVER_RESENDS), 2);
    assert_eq!(d.sim.node(PUBLISHER).unacknowledged(), 0);
}

/// A `Deliver` arrives but its ack is lost: the publisher re-sends it once,
/// the member reads the copy as a duplicate, acknowledges it again and does
/// not deliver it a second time.
#[test]
fn a_lost_ack_costs_one_duplicate_and_no_second_delivery() {
    let mut d = one_zone(5);
    let items: Vec<NewsItem> = (0..2).map(tech_item).collect();
    publish(&mut d, 60_000, &items[0], false);
    d.settle(2);
    let dups = count(&d, MEMBER, ctr::NW_DUPLICATES);
    let acks = count(&d, PUBLISHER, ctr::NW_DELIVER_ACKS);
    let window = half_bound_ms(&d);
    cut(&mut d, MEMBER, PUBLISHER, 63_000, window);
    publish(&mut d, 63_000, &items[1], false);
    d.settle(5);
    assert_eq!(delivery(&d, &items[1]).len(), 1, "one application delivery");
    assert_eq!(count(&d, PUBLISHER, ctr::NW_DELIVER_RESENDS), 1);
    assert_eq!(count(&d, MEMBER, ctr::NW_DUPLICATES), dups + 1, "the re-send is a duplicate");
    // Node 2's ack and the member's second one.
    assert_eq!(count(&d, PUBLISHER, ctr::NW_DELIVER_ACKS), acks + 2);
    assert_eq!(d.sim.node(PUBLISHER).unacknowledged(), 0);
}

/// Members that have died are re-sent each `Deliver` [`ACK_RETRIES`] times
/// and then written off: the pending set never holds more than
/// [`MAX_PENDING_DELIVERS`], and it empties although no ack ever comes.
#[test]
fn the_pending_set_is_bounded_and_empties_when_the_member_is_dead() {
    // One leaf zone: the publisher and four subscribers, three of which die.
    let mut d = DeploymentBuilder::new(4, 6)
        .config(NewsWireConfig { anti_entropy: false, ..NewsWireConfig::tech_news() })
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    let dead = [NodeId(1), NodeId(2), NodeId(3)];
    for id in 1..5 {
        d.sim.node_mut(NodeId(id)).set_subscription(tech_sub());
    }
    d.settle(60);
    for id in dead {
        d.sim.schedule_crash(ms(60_000), id);
    }
    d.sim.run_until(ms(60_100));
    // Unmeasured, as a member never timed is, a dead member's `Deliver`s
    // wait the 2 s ceiling: measured, they would be written off three
    // leaf round-trip bounds after leaving, faster than the drain fills
    // the set.
    let acks = &mut d.sim.node_mut(PUBLISHER).acks;
    for id in dead {
        acks.forget_rtt(id.0);
    }
    let bound = d.sim.node(PUBLISHER).acks.round_trip_bound(dead[0].0);
    assert_eq!(bound, ACK_TIMEOUT);
    // The publisher's flow-control burst, watched for half a bound: the
    // burst below outlasts none of the first copies.
    let n = 200;
    for seq in 0..n {
        d.publish(ms(61_000), tech_item(seq));
    }
    let mut peak = 0;
    for step in 1..=bound.as_micros() / 2_000 / 25 {
        d.sim.run_until(ms(61_000 + 25 * step));
        peak = peak.max(d.sim.node(PUBLISHER).acks.delivers());
    }
    assert_eq!(peak, MAX_PENDING_DELIVERS, "the cap binds, and holds");
    d.settle(10);
    let publisher = d.sim.node(PUBLISHER);
    assert_eq!(publisher.unacknowledged(), 0, "written off, not awaited forever");
    assert!(!publisher.ack_sweep_armed(), "and the sweep timer is idle");
    let resends = count(&d, PUBLISHER, ctr::NW_DELIVER_RESENDS);
    assert_eq!(resends, MAX_PENDING_DELIVERS as u64 * u64::from(ACK_RETRIES));
    assert_eq!(d.sim.node(NodeId(4)).deliveries.len() as u64, n, "the live member got all");
}

/// (d) The estimator: nothing measured ⇒ the configured ceiling; whatever
/// is measured, the bound is never below the slowest round trip seen nor
/// above the ceiling; and on the WAN model it clears the slowest round trip
/// the path *can* produce on all but a rare check.
#[test]
fn the_round_trip_bound_is_measured_conservative_and_capped() {
    let ceiling = ACK_TIMEOUT;
    let layout = astrolabe::ZoneLayout::new(8, 4);
    let agent = Agent::new(0, &layout, astrolabe::Config::standard(), vec![]);
    let mut n =
        NewsWireNode::new(agent, NewsWireConfig::tech_news(), Arc::new(TrustRegistry::new(1)));
    // Node 7 sits in /1, the sibling of this node's leaf zone /0.
    assert_eq!(n.acks.round_trip_bound(7), ceiling, "a zone never timed");

    // Round trips over an inter-region WAN link: two one-way draws, 200
    // per seed. Whatever is timed, the bound stays between the slowest
    // round trip seen and the ceiling, and after 200 samples under 720 ms.
    // Counted: checks whose bound is under the slowest round trip the link
    // can produce, and checks the next live round trip outruns.
    let wan = LatencyModel::wan_defaults(vec![0, 1]);
    let slowest = SimDuration::from_millis(2 * 180);
    let draws = |n: &mut NewsWireNode, fresh_per_seed: bool| {
        n.acks.clear();
        let (mut checks, mut short, mut outrun) = (0u32, 0u32, 0u32);
        let mut largest = SimDuration::ZERO;
        for seed in 0..50 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut rtt = || {
                wan.sample(NodeId(0), NodeId(1), &mut rng)
                    + wan.sample(NodeId(1), NodeId(0), &mut rng)
            };
            if fresh_per_seed {
                n.acks.clear();
                largest = SimDuration::ZERO;
            }
            for _ in 0..200 {
                let sample = rtt();
                largest = largest.max(sample);
                n.acks.note_rtt(7, sample);
                let bound = n.acks.round_trip_bound(7);
                assert!(bound >= largest && bound <= ceiling);
                checks += 1;
                short += u32::from(bound < slowest);
                outrun += u32::from(rtt() > bound);
            }
            let settled = n.acks.round_trip_bound(7);
            assert!(settled <= SimDuration::from_millis(720), "sub-second: {settled:?}");
        }
        (checks, short, outrun)
    };
    // Fifty estimates from their first sample, and one zone's estimate
    // over all 10,000 draws as a run keeps it: either way at most one
    // bound in 2,000 under the slowest round trip, and at most one live
    // round trip in 2,000 outrunning its bound — a spurious retry.
    for fresh_per_seed in [true, false] {
        let (checks, short, outrun) = draws(&mut n, fresh_per_seed);
        assert!(short * 2_000 <= checks, "{short} of {checks} bounds under {slowest:?}");
        assert!(outrun * 2_000 <= checks, "{outrun} of {checks} round trips outran the bound");
    }

    // Unacknowledged hand-offs back the bound off until the peer is timed
    // again — a dead peer ends up on the ceiling's ladder, not its own.
    let measured = n.acks.round_trip_bound(7);
    n.acks.note_timeout(7);
    assert_eq!(n.acks.round_trip_bound(7), measured + measured);
    for _ in 0..300 {
        n.acks.note_timeout(7);
    }
    assert_eq!(n.acks.round_trip_bound(7), ceiling);
    n.acks.note_rtt(7, SimDuration::from_millis(200));
    let back = n.acks.measured(7).expect("timed");
    assert_eq!(n.acks.round_trip_bound(7), back, "it answered: the measured bound is back");
    assert!(back < SimDuration::from_millis(720));
    n.acks.note_timeout(7);
    n.acks.forget_timeouts(7);
    assert_eq!(n.acks.round_trip_bound(7), back, "a new incarnation starts without the back-off");

    n.acks.clear();
    assert_eq!(n.acks.round_trip_bound(7), ceiling, "a restart starts unmeasured");
    n.acks.note_rtt(7, SimDuration::from_millis(1_900));
    assert_eq!(n.acks.round_trip_bound(7), ceiling, "a slow zone's leash stops at the ceiling");
}

/// Through the handlers, an external ack and digest reply are dropped: an
/// id outside the layout has no round-trip entry (see
/// `acks::tests::an_id_outside_the_layout_has_no_entry_and_gets_the_ceiling`).
#[test]
fn an_external_ack_and_digest_reply_time_nothing() {
    let mut d = one_zone(8);
    let g = GossipMsg::empty_reply();
    let gossip = NewsWireMsg::Gossip { g, rot: None, digests: None };
    d.sim.schedule_external(ms(60_001), PUBLISHER, gossip);
    let msg_id = msg_id_of(tech_item(4).id);
    let ack = NewsWireMsg::ForwardAck { msg_id, zone: ZoneId::root() };
    d.sim.schedule_external(ms(60_002), PUBLISHER, ack);
    d.settle(1);
    assert_eq!(d.sim.node(PUBLISHER).acks.round_trip_bound(NodeId::EXTERNAL.0), ACK_TIMEOUT);
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
        let handoffs = publisher.acks.len() - publisher.acks.delivers();
        assert_eq!(handoffs, 0, "the hand-off was acknowledged");
        // Both representatives feed the one estimate of their zone.
        let key = publisher.acks.zone_key(reps[0]);
        assert_eq!(key, publisher.acks.zone_key(reps[1]));
        let timed = publisher.acks.samples(reps[0]);
        (count(&d, PUBLISHER, ctr::NW_ACK_RETRIES), timed)
    };
    let (clean_retries, clean_timed) = run(false);
    let (lossy_retries, lossy_timed) = run(true);
    assert!(clean_retries == 0 && lossy_retries >= 1, "{clean_retries} / {lossy_retries}");
    assert_eq!(clean_timed, lossy_timed + 1, "the retransmission's ack was not timed");
}

/// A hand-off whose zone's representatives are both cut off is retried,
/// failed over and abandoned, and the trace names each step as the counters
/// count it: `a` is the message id, `b` the representative the step went to.
#[test]
fn a_handoff_to_a_cut_off_zone_traces_retry_failover_and_abandon() {
    let mut d = DeploymentBuilder::new(7, 6)
        .branching(4)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    for id in 1..8 {
        d.sim.node_mut(NodeId(id)).set_subscription(tech_sub());
    }
    d.settle(60);
    d.sim.drain_telemetry();
    let reps = zone_reps(&d.sim.node(PUBLISHER).agent, &ZoneId::root().child(1));
    assert_eq!(reps.len(), 2, "both representatives of /1 are known");
    for &rep in &reps {
        d.sim.schedule_link_cut(ms(60_999), PUBLISHER, NodeId(rep));
        d.sim.schedule_link_heal(ms(90_000), PUBLISHER, NodeId(rep));
    }
    let item = tech_item(0);
    d.publish(ms(61_000), item.clone());
    d.sim.run_until(ms(90_000));
    let hub = d.sim.telemetry();
    let hub = hub.borrow();
    assert_eq!(hub.ring().dropped(), 0);
    let trace = hub.ring().ordered();
    let steps = |k: u8| {
        let steps: Vec<_> = trace.iter().filter(|e| e.node == PUBLISHER.0 && e.kind == k).collect();
        for e in &steps {
            assert_eq!(e.a, trace_key(item.id), "{}: a is the item's trace key", kind::name(k));
            assert!(reps.contains(&(e.b as u32)), "{}: b is a representative", kind::name(k));
        }
        steps.len() as u64
    };
    let node = PUBLISHER.index();
    for (k, c) in [
        (kind::HANDOFF_RETRY, ctr::NW_ACK_RETRIES),
        (kind::HANDOFF_FAILOVER, ctr::NW_ACK_FAILOVERS),
        (kind::HANDOFF_ABANDON, ctr::NW_HANDOFFS_ABANDONED),
    ] {
        let n = steps(k);
        assert!(n > 0, "{} traced", kind::name(k));
        assert_eq!(n, hub.node_counter(node, c), "{} counted as traced", kind::name(k));
    }
}

const REQUESTER: NodeId = NodeId(5);
const NEIGHBOUR: NodeId = NodeId(4);

fn science_item(seq: u64) -> NewsItem {
    NewsItem::builder(PublisherId(0), seq)
        .headline(format!("s{seq}"))
        .category(Category::Science)
        .build()
}

fn science_sub() -> Subscription {
    let mut s = Subscription::new();
    s.subscribe_category(PublisherId(0), Category::Science);
    s
}

/// Two leaf zones of four on the ideal network: the publisher (node 0) and
/// three nodes that want nothing in /0; in /1, nodes 6 and 7 are the
/// representatives (4 and 5 advertise load, so the election passes them
/// over) and want science, 4 — the neighbour — wants science too, and 5 —
/// the requester — wants technology only. Nobody else wants technology,
/// so a technology article is held in /1 only where the tree handed it on.
/// The requester reconciles only once `anti_entropy` is switched back on.
fn two_zones(seed: u64) -> Deployment {
    let mut d = DeploymentBuilder::new(7, seed)
        .branching(4)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    for id in 1..8 {
        let sub = match id {
            5 => tech_sub(),
            4 | 6 | 7 => science_sub(),
            _ => Subscription::new(),
        };
        let node = d.sim.node_mut(NodeId(id));
        node.set_subscription(sub);
        if id == 4 || id == 5 {
            node.load_bias = 10.0;
        }
    }
    d.sim.node_mut(REQUESTER).cfg.anti_entropy = false;
    d.settle(60);
    let zone = ZoneId::root().child(1);
    assert_eq!(d.sim.node(REQUESTER).agent.zone(0), &zone);
    let mut reps = zone_reps(&d.sim.node(PUBLISHER).agent, &zone);
    reps.sort_unstable();
    assert_eq!(reps, vec![6, 7], "the representatives of /1");
    d
}

/// Publishes `item` at `at_ms` with both representatives' links to the
/// requester cut while its `Deliver`s and their re-sends are on the wire.
fn publish_lost_to_requester(d: &mut Deployment, at_ms: u64, item: &NewsItem) {
    for rep in [NodeId(6), NodeId(7)] {
        d.sim.schedule_link_cut(ms(at_ms - 1), rep, REQUESTER);
        d.sim.schedule_link_heal(ms(at_ms + 500), rep, REQUESTER);
    }
    d.publish(ms(at_ms), item.clone());
}

/// A wanted article loses both final-hop copies and their re-sends, and the
/// requester's
/// freshest contiguous neighbour had settled it as not for itself. The
/// neighbour cannot vouch for it to a requester that wants it, so the
/// hole stays open and the follow-up goes to a representative of the
/// zone, which kept what it handed on: the article is still delivered.
/// An implicit "contiguous summary settles every requested seq" would
/// write it off; without the representative keeping it, nobody in reach
/// holds it.
#[test]
fn a_wanted_article_a_neighbour_settled_as_not_for_it_is_still_delivered() {
    let mut d = two_zones(21);
    let label = |d: &Deployment, id: u32| d.sim.node(NodeId(id)).agent.own_label(0);
    assert!(
        label(&d, 4) < label(&d, 6) && label(&d, 4) < label(&d, 7),
        "equally fresh, the neighbour comes first in the requester's leaf table"
    );
    let wanted = tech_item(1);
    d.publish(ms(60_000), science_item(0));
    publish_lost_to_requester(&mut d, 61_000, &wanted);
    d.publish(ms(62_000), science_item(2));
    d.settle(10);
    let neighbour = d.sim.node(NEIGHBOUR);
    let entry = neighbour.article_log(PublisherId(0)).and_then(|log| log.get(1));
    assert!(matches!(entry, Some(LogEntry::NotForMe(_))), "the neighbour settled it: {entry:?}");
    assert!(d.sim.node(REQUESTER).deliveries.is_empty(), "both copies were lost");

    d.sim.node_mut(REQUESTER).cfg.anti_entropy = true;
    d.settle(10);
    let got = delivery_at(&d, REQUESTER, &wanted);
    assert_eq!(got.len(), 1, "delivered exactly once");
    assert!(got[0].via_repair);
    assert!(
        count(&d, REQUESTER, ctr::NW_RECONCILE_UNVOUCHED) >= 1,
        "the neighbour could not vouch"
    );
    let log = d.sim.node(REQUESTER).article_log(PublisherId(0)).expect("the requester logs");
    assert!(log.gaps().is_empty() && log.next_seq() == 3, "and the requester's log converged");
}

/// A peer that never answers vouched for nothing: the pass follows it up as
/// it follows up a reply that left a hole, each request waiting the same
/// flat [`RECONCILE_REPLY_TIMEOUT`]. Here the neighbour cannot vouch for
/// the wanted article and every node that could is cut off from the
/// requester: the two representatives of its leaf zone are asked next,
/// each once, before any cross-zone peer, and the pass ends after
/// [`MAX_ASKED`] peers — the next request opens a new pass at the
/// neighbour.
#[test]
fn a_silent_reconcile_peer_is_followed_up_like_one_that_vouched_for_nothing() {
    let mut d = two_zones(21);
    d.publish(ms(60_000), science_item(0));
    publish_lost_to_requester(&mut d, 61_000, &tech_item(1));
    d.publish(ms(62_000), science_item(2));
    d.settle(10);
    let now = d.sim.now();
    for id in (0..8).map(NodeId).filter(|&id| id != REQUESTER && id != NEIGHBOUR) {
        d.sim.schedule_link_cut(now, id, REQUESTER);
    }
    d.sim.drain_telemetry();
    d.sim.node_mut(REQUESTER).cfg.anti_entropy = true;
    d.sim.run_for(SimDuration::from_secs(30));
    let hub = d.sim.telemetry();
    let hub = hub.borrow();
    let asks: Vec<(u64, u32)> = hub
        .ring()
        .ordered()
        .iter()
        .filter(|e| e.node == REQUESTER.0 && e.kind == kind::AE_REQUEST)
        .map(|e| (e.t_us, e.a as u32))
        .collect();
    assert!(asks.len() > MAX_ASKED, "{asks:?}");
    let peers: Vec<u32> = asks.iter().map(|&(_, peer)| peer).collect();
    let rep = |p: u32| p == 6 || p == 7;
    assert_eq!(peers[0], NEIGHBOUR.0, "the freshest digest is asked first: {peers:?}");
    assert!(rep(peers[1]) && rep(peers[2]) && peers[1] != peers[2], "{peers:?}");
    assert!(peers[3] < 4, "a cross-zone peer only after both representatives: {peers:?}");
    let wait = RECONCILE_REPLY_TIMEOUT.as_micros();
    assert_eq!((asks[2].0 - asks[1].0, asks[3].0 - asks[2].0), (wait, wait), "{asks:?}");
    assert_eq!(peers[MAX_ASKED], NEIGHBOUR.0, "a new pass: {peers:?}");
    assert!(asks[MAX_ASKED].0 > asks[MAX_ASKED - 1].0 + wait, "{asks:?}");
}

/// Widening a subscription backfills what it newly matches: the not-for-me
/// entries the new interest admits are forgotten, and reconcile pulls the
/// articles they stood for.
#[test]
fn widening_a_subscription_backfills_the_newly_matched_articles() {
    let mut d = two_zones(23);
    d.sim.node_mut(REQUESTER).cfg.anti_entropy = true;
    let science: Vec<NewsItem> = (0..4).map(science_item).collect();
    for (i, item) in science.iter().enumerate() {
        d.publish(ms(60_000 + 500 * i as u64), item.clone());
    }
    d.publish(ms(62_500), tech_item(4));
    d.settle(10);
    let requester = d.sim.node(REQUESTER);
    let log = requester.article_log(PublisherId(0)).expect("the technology article arrived");
    for item in &science {
        let entry = log.get(item.id.seq);
        assert!(matches!(entry, Some(LogEntry::NotForMe(_))), "{}: {entry:?}", item.id);
    }
    assert_eq!(requester.deliveries.len(), 1);
    assert_eq!(count(&d, REQUESTER, ctr::NW_RECOVERY_UNWANTED), 0, "nothing unwanted was shipped");

    let mut wider = tech_sub();
    wider.subscribe_category(PublisherId(0), Category::Science);
    d.sim.node_mut(REQUESTER).set_subscription(wider);
    d.settle(10);
    for item in &science {
        let got = delivery_at(&d, REQUESTER, item);
        assert_eq!(got.len(), 1, "{} backfilled", item.id);
        assert!(got[0].via_repair);
    }
}

/// A node that relays a scoped article toward a zone outside its own never
/// caches it: it may not hold what it may not be delivered.
#[test]
fn an_out_of_scope_relay_never_caches_the_scoped_item_it_relays() {
    let mut d = tech_tree(24);
    d.sim.drain_telemetry();
    let scope = ZoneId::root().child(1).child(2);
    let item = tech_item(0);
    d.publish_scoped(ms(60_000), item.clone(), scope.clone());
    d.settle(20);
    let mut relays = 0;
    for (id, node) in d.sim.iter() {
        let in_scope = scope.is_ancestor_of(node.agent.zone(0));
        assert_eq!(node.has_item(item.id), in_scope, "{id}");
        // The one article is all anyone forwarded since the drain.
        let relayed = count(&d, id, ctr::NW_FORWARDS) > 0;
        if relayed && !in_scope && id != PUBLISHER {
            relays += 1;
            assert!(!node.cache.contains(item.id), "relay {id} cached the scoped item");
        }
    }
    assert!(relays > 0, "workload sanity: the article was relayed from outside its scope");
}

/// The 63-subscriber, branching-4 deployment every member of which takes
/// technology news.
fn tech_tree(seed: u64) -> Deployment {
    let mut d = DeploymentBuilder::new(63, seed)
        .branching(4)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    for id in 1..64 {
        d.sim.node_mut(NodeId(id)).set_subscription(tech_sub());
    }
    d.settle(60);
    d
}

/// A node frozen mid-drain sends what its queue kept once it recovers: the
/// drain timer that went off while it was down is lost, and no later
/// article comes to arm another. Reconcile cannot stand in: nobody's log
/// shows a hole before a second article.
fn frozen_mid_drain_sends_what_its_queue_kept(node_of: fn(&Deployment) -> NodeId) {
    let mut d = tech_tree(24);
    let node = node_of(&d);
    let item = tech_item(0);
    d.publish(ms(60_000), item.clone());
    while count(&d, node, ctr::NW_FORWARDS) == 0 || d.sim.node(node).queues.is_empty() {
        assert!(d.sim.now() < ms(61_000), "workload sanity: {node} drains a queue");
        d.sim.run_until(d.sim.now() + SimDuration::from_micros(100));
    }
    d.sim.schedule_crash(d.sim.now(), node);
    d.sim.schedule_recover(ms(63_000), node);
    d.sim.run_until(ms(63_000));
    assert!(!d.sim.node(node).queues.is_empty(), "workload sanity: {node} kept copies");
    d.sim.run_until(ms(63_500));
    assert!(d.sim.node(node).queues.is_empty(), "{node} drained");
    // The frozen node's own copy waits for reconcile.
    for id in (1..64).map(NodeId).filter(|&id| id != node) {
        assert!(d.sim.node(id).has_item(item.id), "{id} has the article");
    }
}

/// The publisher, its first article's copies queued.
#[test]
fn a_publisher_frozen_mid_drain_sends_what_its_queue_kept() {
    frozen_mid_drain_sends_what_its_queue_kept(|_| PUBLISHER);
}

/// A representative of `/1`, the copies of its duty for that zone queued.
#[test]
fn a_representative_frozen_mid_drain_sends_what_its_queue_kept() {
    frozen_mid_drain_sends_what_its_queue_kept(|d| {
        NodeId(zone_reps(&d.sim.node(PUBLISHER).agent, &ZoneId::root().child(1))[0])
    });
}

/// A publisher recovered before the drain timer it armed ahead of the freeze
/// goes off drains at one copy per [`SERVICE_INTERVAL`]: that stale timer
/// does not start a second drain beside the recovery's.
#[test]
fn a_drain_timer_armed_before_a_freeze_starts_no_second_drain() {
    let mut d = tech_tree(24);
    d.publish(ms(60_000), tech_item(0));
    // Drain timers fire at +0.5, +1.0 and +1.5 ms: the last is pending
    // across the 0.1 ms outage.
    let crash = SimTime::from_micros(60_001_200);
    let recover = SimTime::from_micros(60_001_300);
    d.sim.schedule_crash(crash, PUBLISHER);
    d.sim.schedule_recover(recover, PUBLISHER);
    d.sim.run_until(recover);
    let sent = count(&d, PUBLISHER, ctr::NW_FORWARDS);
    assert!(d.sim.node(PUBLISHER).queues.len() >= 4, "workload sanity: copies wait");
    d.sim.run_until(recover + SERVICE_INTERVAL * 4 + SimDuration::from_micros(100));
    assert_eq!(count(&d, PUBLISHER, ctr::NW_FORWARDS) - sent, 4, "one drain, not two");
}

fn delivery_at(d: &Deployment, node: NodeId, item: &NewsItem) -> Vec<DeliveryRecord> {
    d.sim.node(node).deliveries.iter().filter(|r| r.item == item.id).collect()
}

/// Through the handlers, a lost `Deliver`'s re-send ends the final hop's
/// clean run (the table's half: `acks::tests::an_announce_ack_times_nothing_and_a_resend_ends_the_clean_run`).
#[test]
fn a_resent_deliver_ends_the_clean_run() {
    let mut d = one_zone(9);
    d.sim.node_mut(PUBLISHER).acks.force_split();
    publish(&mut d, 61_000, &tech_item(0), true);
    d.settle(5);
    assert_eq!(count(&d, PUBLISHER, ctr::NW_DELIVER_RESENDS), 1);
    assert!(!d.sim.node(PUBLISHER).acks.split_on());
}

/// In the two-zone deployment, with the split forced on at both
/// representatives of /1, the neighbour (node 4) is sent the payload by one
/// of them and an announce by the other. Its payload is lost: the announce
/// it holds delivers, caches and logs nothing, and the payload's re-send —
/// a tree copy — is what it acknowledges the announce on. The announcer
/// never sends the payload.
#[test]
fn a_held_announce_is_acknowledged_once_a_tree_copy_arrives() {
    let mut d = two_zones(31);
    for rep in [6, 7] {
        d.sim.node_mut(NodeId(rep)).acks.force_split();
    }
    let sends_payload = |d: &Deployment, rep: u32| !d.sim.node(NodeId(rep)).announces_to(4);
    let (payload, announcer) = if sends_payload(&d, 6) { (6, 7) } else { (7, 6) };
    assert!(sends_payload(&d, payload) && !sends_payload(&d, announcer), "one payload to 4");
    assert!(d.sim.node(NodeId(6)).announces_to(7), "a representative is announced to");
    // The payload's re-send comes before the announcer's wait runs out.
    let resend = d.sim.node(NodeId(payload)).acks.round_trip_bound(4);
    let node = d.sim.node(NodeId(announcer));
    let wait = node.acks.round_trip_bound(PUBLISHER.0) + node.acks.round_trip_bound(4);
    assert!(resend < wait, "{resend:?} vs {wait:?}");

    // The hand-off and the payload take 10 ms each: the cut loses the
    // payload, and the look is taken after the announce came and before
    // the re-send can have.
    let item = science_item(0);
    let half = resend.as_micros() / 2_000;
    cut(&mut d, NodeId(payload), NEIGHBOUR, 60_999, 11 + half);
    d.publish(ms(61_000), item.clone());
    d.sim.run_until(ms(61_025 + half));
    let neighbour = d.sim.node(NEIGHBOUR);
    assert_eq!(neighbour.held_announces(), 1, "the announce came, the payload did not");
    assert!(neighbour.deliveries.is_empty() && !neighbour.cache.contains(item.id));
    assert!(neighbour.article_log(PublisherId(0)).is_none_or(|log| !log.contains(item.id.seq)));
    assert_eq!(d.sim.node(NodeId(announcer)).unacknowledged(), 1, "the announce awaits its ack");

    d.settle(5);
    let got = delivery_at(&d, NEIGHBOUR, &item);
    assert_eq!(got.len(), 1, "delivered once");
    assert!(!got[0].via_repair);
    assert_eq!(d.sim.node(NEIGHBOUR).held_announces(), 0);
    assert_eq!(count(&d, NodeId(payload), ctr::NW_DELIVER_RESENDS), 1, "the payload was re-sent");
    assert!(count(&d, NodeId(announcer), ctr::NW_ANNOUNCES) >= 1);
    assert_eq!(
        count(&d, NodeId(announcer), ctr::NW_ANNOUNCE_PAYLOADS),
        0,
        "acked on the tree copy"
    );
    assert_eq!(d.sim.node(NodeId(announcer)).unacknowledged(), 0);
}

/// Announces from arbitrary senders of ids nobody published — ids past
/// every log head — are held, never delivered, cached or logged, and the
/// held list keeps the newest [`MAX_HELD_ANNOUNCES`]. An announce of an
/// article already logged is answered at once and holds nothing.
#[test]
fn the_held_announces_are_capped_and_hold_nothing_but_ids() {
    let mut d = one_zone(10);
    d.publish(ms(61_000), tech_item(0));
    d.settle(2);
    let member = d.sim.node_mut(MEMBER);
    let logged = ItemId::new(PublisherId(0), 0);
    assert!(!member.hold_announce(PUBLISHER.0, logged), "logged: answered now");
    let fabricated = |k: u32| ItemId::new(PublisherId((k % 3) as u16), 1_000 + u64::from(k));
    let n = MAX_HELD_ANNOUNCES as u32 + 40;
    for k in 0..n {
        assert!(member.hold_announce(SYBIL_ID_BASE + k, fabricated(k)));
        assert!(member.held_announces() <= MAX_HELD_ANNOUNCES);
    }
    assert_eq!(member.held_announces(), MAX_HELD_ANNOUNCES);
    let oldest = member.acks.oldest_held().expect("held");
    assert_eq!(oldest, msg_id_of(fabricated(40)), "the first 40 were forgotten");
    assert_eq!(member.deliveries.len(), 1, "only the published article");
    assert_eq!(member.cache.len(), 1);
    assert!(member.logged_publishers().eq([PublisherId(0)]), "nothing else logged");
}

/// What a mate's restart under `mode` leaves at an observer that then
/// pulls: whether the restarted mate took a strike, whether its old rider
/// was still held once its new row arrived, and whom the pull went to.
/// Leaf zone /1 is node 4 — first in every leaf table of /1, and
/// subscribed to nothing, so its log stays empty after any restart — and 5
/// (the observer), 6 and 7. The observer hears of 4's restart only through
/// 6's and 7's rows, since 4's own link to it is cut, and is then given a
/// hole every mate's rider covers.
fn pull_after_a_mates_restart(mode: RestartMode) -> (bool, bool, Option<NodeId>) {
    const RESTARTED: NodeId = NodeId(4);
    const OBSERVER: NodeId = NodeId(5);
    let publisher = PublisherId(0);
    let mut d = DeploymentBuilder::new(7, 25)
        .branching(4)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(publisher)))
        .build();
    for id in 1..8 {
        let sub = if NodeId(id) == RESTARTED { Subscription::new() } else { tech_sub() };
        d.sim.node_mut(NodeId(id)).set_subscription(sub);
    }
    d.settle(60);
    for seq in 0..4 {
        d.publish(ms(60_000 + 500 * seq), tech_item(seq));
    }
    d.settle(10);
    // 4 settled the four articles as its mates hold them: a contiguous log.
    d.sim.node_mut(RESTARTED).reconcile.set_log(publisher, 0..4);
    d.settle(10);
    let held = |d: &Deployment| d.sim.node(OBSERVER).reconcile.holds_rider(RESTARTED.0);
    assert!(held(&d), "the observer holds 4's rider");

    // Every restart starts 4's row versions over; the observer sees its
    // new life once a row of 4's below the last old version reaches it.
    let label = d.sim.node(RESTARTED).agent.own_label(0);
    let version = |d: &Deployment| {
        d.sim.node(OBSERVER).agent.table(0).row(label).map_or(0, |r| r.stamp.version)
    };
    let before = version(&d);
    let now = d.sim.now();
    d.sim.schedule_link_cut(now, RESTARTED, OBSERVER);
    d.sim.schedule_crash(now + SimDuration::from_millis(100), RESTARTED);
    d.sim.schedule_restart(now + SimDuration::from_millis(200), RESTARTED, mode);
    let restarted = |d: &Deployment| version(d) < before;
    for _ in 0..60 {
        if restarted(&d) {
            break;
        }
        d.sim.run_for(SimDuration::from_millis(500));
    }
    assert!(restarted(&d), "4's new row reached the observer through its mates");
    let held_after_restart = held(&d);

    // A hole at seq 1, which every mate's rider covers.
    d.sim.node_mut(OBSERVER).reconcile.set_log(publisher, [0, 2, 3]);
    for _ in 0..5_000 {
        if d.sim.node(OBSERVER).reconcile.pending_peer().is_some() {
            break;
        }
        d.sim.run_for(SimDuration::from_millis(1));
    }
    let asked = d.sim.node(OBSERVER).reconcile.pending_peer();
    // The reply, had 4 been asked, now reaches the observer.
    d.sim.schedule_link_heal(d.sim.now(), RESTARTED, OBSERVER);
    d.settle(10);
    let observer = d.sim.node(OBSERVER);
    assert!(observer.article_log(publisher).is_some_and(|log| log.gaps().is_empty()));
    (observer.misbehavior.contains_key(&RESTARTED.0), held_after_restart, asked)
}

/// A mate's cold restart voids the digest rider it sent before: a pull
/// against that rider would find the restarted log empty and take the
/// honest, empty reply for a contradiction. The incarnation bump drops it.
#[test]
fn a_mates_restart_drops_its_rider_before_it_draws_a_pull() {
    let (struck, held, asked) = pull_after_a_mates_restart(RestartMode::ColdAmnesia);
    assert!(!struck, "the restarted mate took a strike");
    assert!(!held, "the bump dropped 4's rider");
    assert!(asked.is_some_and(|p| p != NodeId(4)), "the pull went to a live rider: {asked:?}");
}

/// A freeze wipes the logs too but burns no incarnation: the frozen
/// mate's old rider is still held when its new row arrives, and must not
/// be read once that row shows the row versions starting over.
#[test]
fn a_mates_freeze_voids_its_rider_before_it_draws_a_pull() {
    let (struck, _, asked) = pull_after_a_mates_restart(RestartMode::Freeze);
    assert!(!struck, "the frozen mate took a strike");
    assert!(asked.is_some_and(|p| p != NodeId(4)), "the pull went to a live rider: {asked:?}");
}

/// On a lossless WAN no live peer is judged suspect: every hand-off is
/// acknowledged inside its bound, so at the end no node holds a backed-off
/// peer and no hand-off took the suspect shortcut.
#[test]
fn a_lossless_run_judges_no_peer_suspect() {
    let mut d = DeploymentBuilder::new(48, 5)
        .branching(8)
        .wan(0.0)
        .config(NewsWireConfig::tech_news())
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .build();
    d.settle(60);
    let items: Vec<NewsItem> = (0..30).map(tech_item).collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(60 + i as u64), item.clone());
    }
    d.settle(30);
    for item in &items {
        assert_eq!(d.interested_nodes(item), d.delivered_nodes(item), "item {}", item.id);
    }
    assert!(d.counter(ctr::NW_ACKS_RECEIVED) > 0, "hand-offs were acknowledged");
    for (id, node) in d.sim.iter() {
        let backed_off = node.acks.backed_off();
        assert!(backed_off.is_empty(), "{id:?} backed off {backed_off:?}");
    }
    assert_eq!(d.counter(ctr::NW_SUSPECT_FAILOVERS), 0);
}

/// The payload holder and co-representative of /1 that the publisher of
/// [`two_zones`], its hand-off record forced clean, names for `item`.
fn holder_of(d: &mut Deployment, item: &NewsItem) -> (NodeId, NodeId) {
    let publisher = d.sim.node_mut(PUBLISHER);
    publisher.acks.force_handoff_clean();
    let level = publisher.agent.level_of(&ZoneId::root());
    let zone = ZoneId::root().child(1);
    let (holder, reps) =
        publisher.single_holder(msg_id_of(item.id), &zone, level).expect("one payload into /1");
    let co_rep = reps.into_iter().find(|&r| r != holder).expect("two representatives");
    (NodeId(holder), NodeId(co_rep))
}

/// With its hand-off record clean, the publisher hands leaf zone /1 one
/// payload, for the holder, and the co-representative an announce. The
/// holder's copy to the co-representative is lost: holding only the
/// announce, the co-representative delivers, caches and logs nothing and
/// leaves it unacknowledged. It acknowledges once the holder's re-send
/// arrives, before the announce's wait runs out, so the publisher never
/// sends it the payload.
#[test]
fn a_co_representative_acknowledges_a_hand_off_announce_once_it_holds_the_article() {
    let mut d = two_zones(41);
    let item = science_item(0);
    let (holder, co_rep) = holder_of(&mut d, &item);
    cut(&mut d, holder, co_rep, 60_999, 40);
    d.publish(ms(61_000), item.clone());
    d.sim.run_until(ms(61_035));
    let node = d.sim.node(co_rep);
    assert_eq!(node.held_announces(), 1, "the announce came, the holder's copy did not");
    assert!(node.deliveries.is_empty() && !node.cache.contains(item.id));
    let handoffs = d.sim.node(PUBLISHER).acks.handoffs();
    assert_eq!(handoffs.len(), 1, "only the announce awaits its ack: {handoffs:?}");
    assert_eq!((handoffs[0].1, handoffs[0].2), (co_rep.0, Cover::Announce));

    d.settle(5);
    for id in [co_rep, holder, NEIGHBOUR] {
        assert_eq!(delivery_at(&d, id, &item).len(), 1, "{id} delivered once");
    }
    assert_eq!(d.sim.node(co_rep).held_announces(), 0);
    assert_eq!(count(&d, holder, ctr::NW_DELIVER_RESENDS), 1, "the holder re-sent its copy");
    assert_eq!(count(&d, PUBLISHER, ctr::NW_HANDOFF_ANNOUNCES), 1);
    assert_eq!(count(&d, PUBLISHER, ctr::NW_HANDOFF_ANNOUNCE_PAYLOADS), 0, "acked in time");
    assert_eq!(d.sim.node(PUBLISHER).unacknowledged(), 0);
    assert!(d.sim.node(PUBLISHER).acks.handoff_clean(), "nothing timed out");
}

/// The holder crashes just before the hand-off, so nobody sends the
/// co-representative the article: its announce runs out, the publisher
/// sends it the payload, and it covers /1 alone — the neighbour gets its
/// tree copy from it. The announce that ran out ends the publisher's clean
/// record.
#[test]
fn an_announce_nobody_satisfies_runs_out_and_the_co_representative_covers_the_zone() {
    let mut d = two_zones(42);
    let item = science_item(0);
    let (holder, co_rep) = holder_of(&mut d, &item);
    d.sim.schedule_crash(ms(60_990), holder);
    d.publish(ms(61_000), item.clone());
    d.settle(5);
    assert_eq!(count(&d, PUBLISHER, ctr::NW_HANDOFF_ANNOUNCE_PAYLOADS), 1, "the payload went");
    assert!(!d.sim.node(PUBLISHER).acks.handoff_clean(), "the record ended");
    for id in [co_rep, NEIGHBOUR] {
        let got = delivery_at(&d, id, &item);
        assert_eq!(got.len(), 1, "{id} delivered once");
        assert!(!got[0].via_repair, "{id}: a tree copy");
    }
    assert!(count(&d, co_rep, ctr::NW_FORWARDS) >= 1, "the co-representative covered /1");
    assert_eq!(count(&d, co_rep, ctr::NW_ANNOUNCES), 0, "alone: no announce");
}

/// A holder covers its zone alone: with the final-hop split forced on at
/// both representatives of /1, it still sends the neighbour and its
/// co-representative the payload and announces nothing, and the
/// co-representative, handed only an announce, sends nothing. Each takes
/// one copy.
#[test]
fn a_holder_sends_no_final_hop_announce() {
    let mut d = two_zones(43);
    for rep in [6, 7] {
        d.sim.node_mut(NodeId(rep)).acks.force_split();
    }
    let item = science_item(0);
    let (holder, co_rep) = holder_of(&mut d, &item);
    d.publish(ms(61_000), item.clone());
    d.settle(5);
    assert_eq!(count(&d, holder, ctr::NW_ANNOUNCES), 0, "the holder announced nothing");
    assert_eq!(count(&d, co_rep, ctr::NW_FORWARDS), 0, "the co-representative sent nothing");
    assert_eq!(count(&d, PUBLISHER, ctr::NW_HANDOFF_ANNOUNCES), 1);
    for id in [co_rep, NEIGHBOUR] {
        assert_eq!(delivery_at(&d, id, &item).len(), 1, "{id} delivered");
        assert_eq!(count(&d, id, ctr::NW_DUPLICATES), 0, "{id} took one copy");
    }
    assert_eq!(count(&d, holder, ctr::NW_DUPLICATES), 0, "one sender, one payload");
}

/// Only a leaf zone gets one payload: with its record clean, the publisher
/// of a three-level tree hands each other top-level zone — a region — to
/// two representatives, a payload each, and each other leaf zone of its
/// own region to a holder, beside an announce.
#[test]
fn a_hand_off_into_a_zone_above_the_leaf_level_still_sends_k_payloads() {
    let mut d = tech_tree(26);
    d.sim.node_mut(PUBLISHER).acks.force_handoff_clean();
    d.publish(ms(60_000), tech_item(0));
    d.sim.run_until(ms(60_008));
    let handoffs = d.sim.node(PUBLISHER).acks.handoffs();
    let leaf_depth = d.sim.node(PUBLISHER).agent.zone(0).depth();
    let (mut regions, mut leaves) = (BTreeMap::new(), BTreeMap::new());
    for (zone, _, cover) in handoffs {
        let of = if zone.depth() == leaf_depth { &mut leaves } else { &mut regions };
        of.entry(zone.to_string()).or_insert_with(Vec::new).push(cover);
    }
    assert_eq!(regions.len(), 3, "every other region: {regions:?}");
    for covers in regions.values() {
        assert_eq!(covers, &[Cover::Shared, Cover::Shared], "k payloads");
    }
    assert_eq!(leaves.len(), 3, "every other leaf zone of the publisher's region: {leaves:?}");
    for covers in leaves.values() {
        assert_eq!(covers.len(), 2);
        assert!(matches!(covers[0], Cover::Alone { .. }), "{covers:?}");
        assert_eq!(covers[1], Cover::Announce);
    }
    d.settle(5);
    for id in (1..64).map(NodeId) {
        assert!(d.sim.node(id).has_item(tech_item(0).id), "{id} has the article");
    }
}
