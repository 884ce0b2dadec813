//! Structural invariants of the `route` computation, checked against a
//! converged agent population (synchronous rounds, no network effects).

use std::collections::BTreeMap;

use amcast::{route, Action, FilterSpec};
use astrolabe::{Agent, Config, ZoneId, ZoneLayout};
use simnet::{fork, SimTime};

fn converged_agents(n: u32, branching: u16, seed: u64) -> (Vec<Agent>, ZoneLayout) {
    let layout = ZoneLayout::new(n, branching);
    let mut config = Config::standard();
    config.branching = branching;
    let mut agents: Vec<Agent> =
        (0..n).map(|i| Agent::new(i, &layout, config.clone(), vec![0, n / 2])).collect();
    let mut rng = fork(seed, 0);
    for round in 1..=25u64 {
        let now = SimTime::from_secs(round);
        let mut inflight = Vec::new();
        for a in agents.iter_mut() {
            for (to, m) in a.on_tick(now, &mut rng) {
                inflight.push((a.id(), to, m));
            }
        }
        while let Some((from, to, msg)) = inflight.pop() {
            if let Some(b) = agents.iter_mut().find(|a| a.id() == to) {
                for (to2, m2) in b.on_message(now, from, msg, &mut rng) {
                    inflight.push((to, to2, m2));
                }
            }
        }
    }
    (agents, layout)
}

#[test]
fn route_actions_satisfy_structural_invariants() {
    let (agents, layout) = converged_agents(48, 4, 11);
    let filter = FilterSpec::All;
    for agent in &agents {
        for k in [1usize, 2] {
            let mut rng = fork(99, u64::from(agent.id()));
            let actions = route(agent, &filter, &ZoneId::root(), k, &mut rng);
            assert!(!actions.is_empty(), "agent {} produced no actions", agent.id());

            let mut forwards_per_zone: BTreeMap<ZoneId, Vec<u32>> = BTreeMap::new();
            let mut local = 0;
            for a in &actions {
                match a {
                    Action::DeliverLocal => local += 1,
                    Action::Deliver { member } => {
                        // Final-hop targets are members of this agent's own
                        // leaf zone.
                        assert_eq!(
                            layout.leaf_zone(*member),
                            layout.leaf_zone(agent.id()),
                            "agent {} delivers outside its leaf zone",
                            agent.id()
                        );
                        assert_ne!(*member, agent.id(), "self handled by DeliverLocal");
                    }
                    Action::Forward { rep, zone } => {
                        assert_ne!(*rep, agent.id(), "never forwards to itself");
                        assert!(
                            zone.is_ancestor_of(&layout.leaf_zone(*rep)),
                            "agent {}: rep {} is not under the zone {} it must cover",
                            agent.id(),
                            rep,
                            zone
                        );
                        forwards_per_zone.entry(zone.clone()).or_default().push(*rep);
                    }
                }
            }
            assert_eq!(local, 1, "FilterSpec::All delivers locally exactly once");
            for (zone, reps) in &forwards_per_zone {
                assert!(reps.len() <= k, "zone {zone} got {} reps for k={k}", reps.len());
                let mut dedup = reps.clone();
                dedup.sort_unstable();
                dedup.dedup();
                assert_eq!(dedup.len(), reps.len(), "duplicate reps for {zone}");
            }
        }
    }
}

#[test]
fn route_is_deterministic_given_rng() {
    let (agents, _) = converged_agents(48, 4, 12);
    let agent = &agents[7];
    let a1 = route(agent, &FilterSpec::All, &ZoneId::root(), 2, &mut fork(5, 5));
    let a2 = route(agent, &FilterSpec::All, &ZoneId::root(), 2, &mut fork(5, 5));
    assert_eq!(a1, a2);
}

#[test]
fn relay_toward_foreign_zone_goes_through_its_subtree() {
    let (agents, layout) = converged_agents(48, 4, 13);
    // Pick an agent and a top-level zone it is NOT under.
    let agent = &agents[0];
    let own_top = layout.leaf_zone(0).path()[0];
    let foreign_top = if own_top == 0 { 1 } else { 0 };
    let target = ZoneId::root().child(foreign_top).child(0);
    let actions = route(agent, &FilterSpec::All, &target, 1, &mut fork(7, 7));
    assert!(!actions.is_empty(), "relay must find a representative");
    for a in &actions {
        match a {
            Action::Forward { rep, zone } => {
                assert_eq!(zone, &target, "relay preserves the original target zone");
                assert!(
                    ZoneId::root().child(foreign_top).is_ancestor_of(&layout.leaf_zone(*rep)),
                    "relay rep must live under the target's top-level zone"
                );
            }
            other => panic!("relay produced a non-forward action {other:?}"),
        }
    }
}
