//! One stamp, one content. A row's stamp names the values it was issued
//! with, so no two replicas may ever hold one stamp with two contents —
//! the property that lets a replica take a newer stamp for values it
//! already holds (a digest entry or a refresh record with an equal content
//! hash) instead of pulling the row, and the one such a shortcut would
//! break silently.

use std::collections::BTreeMap;
use std::sync::Arc;

use astrolabe::{Agent, Config, GossipMsg, MibBuilder, Stamp, TableDigest, TableRows, ZoneLayout};
use simnet::{fork, SimDuration, SimTime};

fn config() -> Config {
    Config {
        branching: 4,
        gossip_interval: SimDuration::from_secs(1),
        row_ttl: SimDuration::from_secs(20),
        ..Config::standard()
    }
}

/// Panics on the first stamp two replicas of one zone hold with two
/// different contents.
fn assert_one_content_per_stamp(agents: &[Agent], context: &str) {
    let mut seen: BTreeMap<(String, Stamp), (u64, u32)> = BTreeMap::new();
    for a in agents {
        for level in 0..a.levels() {
            for r in a.table(level).rows() {
                let key = (a.zone(level).to_string(), r.stamp);
                let (hash, holder) = *seen.entry(key).or_insert((r.mib.content_hash(), a.id()));
                assert_eq!(
                    hash,
                    r.mib.content_hash(),
                    "{context}: agents {holder} and {} hold stamp {} of zone {} with different \
                     contents",
                    a.id(),
                    r.stamp,
                    a.zone(level)
                );
            }
        }
    }
}

/// The stale-refresh interleaving: `b` answers `a`'s digest with a refresh
/// record for the values `a` held when it sent the digest, but by the time
/// the reply lands `a` holds other values under a stamp between the two.
/// Taking the record's stamp would give `a`'s new values the stamp of
/// `b`'s old ones; the record's content hash must stop it.
#[test]
fn a_refresh_record_never_restamps_values_that_changed_since_the_digest() {
    let layout = ZoneLayout::new(4, 4);
    let mut agents: Vec<Agent> = (0..2).map(|i| Agent::new(i, &layout, config(), vec![])).collect();
    let zone = agents[0].zone(0).clone();
    let mut rng = fork(3, 0);
    let now = SimTime::from_secs(10);
    // Row 2 is node 2's, which is not simulated: its versions arrive
    // as pushed rows.
    let stamp = |s: u64| Stamp { issued_us: s * 1_000_000, version: s, origin: 2 };
    let rows = |s: Stamp, load: f64| {
        let values = MibBuilder::new().attr("id", 2i64).attr("load", load).build(s);
        GossipMsg::Rows {
            rows: vec![TableRows { zone: zone.clone(), rows: vec![(2, s, Arc::new(values))] }],
        }
    };
    let digest_of = |a: &Agent| GossipMsg::Digest {
        digests: vec![TableDigest { zone: zone.clone(), rows: a.table(0).digest() }],
    };
    let (old, between, newer) = (stamp(5), stamp(6), stamp(7));

    // a holds the values under an old stamp, b the same values under a
    // newer one.
    agents[0].on_message(now, 2, rows(old, 0.5), &mut rng);
    agents[1].on_message(now, 2, rows(newer, 0.5), &mut rng);
    let digest = digest_of(&agents[0]);
    let mut out = agents[1].on_message(now, 0, digest, &mut rng);
    assert!(
        matches!(out.as_slice(), [(0, GossipMsg::DigestReply { .. })]),
        "b, newer on row 2, must answer a's digest: {out:?}"
    );
    let reply = out.pop().unwrap().1;

    // Before the reply lands, a learns other values under a stamp
    // between the two.
    agents[0].on_message(now, 2, rows(between, 0.9), &mut rng);
    agents[0].on_message(now, 1, reply, &mut rng);
    assert_one_content_per_stamp(&agents, "after the reply");
    let held = agents[0].table(0).row(2).unwrap();
    let held = (held.stamp, held.mib.get("load").and_then(|v| v.as_f64()));
    assert!(
        [(between, Some(0.9)), (newer, Some(0.5))].contains(&held),
        "a holds {held:?}, a version nobody issued"
    );

    // The next exchange settles it the ordinary way: b is newer with
    // other values, so the row travels.
    let digest = digest_of(&agents[0]);
    let out = agents[1].on_message(now, 0, digest, &mut rng);
    for (_, reply) in out {
        agents[0].on_message(now, 1, reply, &mut rng);
    }
    let held = agents[0].table(0).row(2).unwrap();
    assert_eq!((held.stamp, held.mib.get("load").and_then(|v| v.as_f64())), (newer, Some(0.5)));
}

/// A message in flight: `(from, to, message)`.
type Flight = (u32, u32, GossipMsg);

/// Seeded schedules over a small deployment: ticks, reordered and dropped
/// deliveries, value changes drawn from a small set (so equal values recur
/// under new stamps), silent spells long enough for peers to evict, and
/// cold restarts under a new incarnation. The invariant is checked after
/// every step.
#[test]
fn no_two_replicas_hold_one_stamp_with_two_contents() {
    for (seed, n, branching) in [(1u64, 4u32, 2u16), (2, 6, 2), (3, 8, 2), (4, 8, 4)] {
        run_schedule(seed, n, branching);
    }
}

fn run_schedule(seed: u64, n: u32, branching: u16) {
    use rand::Rng;
    let layout = ZoneLayout::new(n, branching);
    let cfg = Config { branching, ..config() };
    let mut agents: Vec<Agent> =
        (0..n).map(|i| Agent::new(i, &layout, cfg.clone(), vec![0])).collect();
    let mut rng = fork(seed, 1);
    let mut protocol_rng = fork(seed, 2);
    let mut inflight: Vec<Flight> = Vec::new();
    let mut silent_until = vec![0u64; n as usize];
    let mut now = 0u64;
    for step in 0..1_500 {
        now += rng.gen_range(50_000u64..400_000);
        let t = SimTime::from_micros(now);
        let who = rng.gen_range(0..n);
        let alive = |i: u32, silent: &[u64]| silent[i as usize] <= now;
        match rng.gen_range(0..100) {
            // Ticks: every live agent about once a simulated second.
            0..=29 => {
                if alive(who, &silent_until) {
                    let out = agents[who as usize].on_tick(t, &mut protocol_rng);
                    inflight.extend(out.into_iter().map(|(to, m)| (who, to, m)));
                }
            }
            // Deliveries, in any order; a silent agent loses what it is sent.
            30..=79 => {
                if !inflight.is_empty() {
                    let (from, to, msg) = inflight.swap_remove(rng.gen_range(0..inflight.len()));
                    if to < n && alive(to, &silent_until) {
                        let out = agents[to as usize].on_message(t, from, msg, &mut protocol_rng);
                        inflight.extend(out.into_iter().map(|(next, m)| (to, next, m)));
                    }
                }
            }
            80..=87 => {
                if !inflight.is_empty() {
                    inflight.swap_remove(rng.gen_range(0..inflight.len()));
                }
            }
            88..=95 => {
                let load = [0.1, 0.5, 0.9][rng.gen_range(0..3usize)];
                agents[who as usize].set_local_attr("load", load);
            }
            96..=98 => silent_until[who as usize] = now + rng.gen_range(3u64..8) * 1_000_000,
            _ => {
                agents[who as usize].reset();
                agents[who as usize].set_incarnation(now);
            }
        }
        assert_one_content_per_stamp(
            &agents,
            &format!("seed {seed}, n {n}, b {branching}, step {step}"),
        );
    }
}
