//! Chaos-engine integration tests: FaultPlan expansion, gray degradation,
//! duplication windows, and deterministic replay of whole chaos runs.

use simnet::{
    ChurnSpec, Context, FaultPlan, GrayProfile, GraySpec, LinkCutSpec, MessageChaosSpec,
    NetworkModel, Node, NodeId, Partition, PartitionSpec, RestartMode, SimDuration, SimTime,
    Simulation, TimerId,
};

/// Every node pings a random neighbour once a second and counts echoes.
struct Chatter {
    n: u32,
    sent: u64,
    received: u64,
    trace: Vec<(u64, NodeId)>,
}

impl Chatter {
    fn new(n: u32) -> Self {
        Chatter { n, sent: 0, received: 0, trace: Vec::new() }
    }
}

#[derive(Clone)]
enum Msg {
    Ping,
    Pong,
}

impl simnet::Payload for Msg {
    fn wire_size(&self) -> usize {
        16
    }
}

impl Node for Chatter {
    type Msg = Msg;
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(SimDuration::from_millis(500), 1);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        self.trace.push((ctx.now().since(SimTime::ZERO).as_micros(), from));
        match msg {
            Msg::Ping => ctx.send(from, Msg::Pong),
            Msg::Pong => self.received += 1,
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerId, _tag: u64) {
        let target = rand::Rng::gen_range(ctx.rng(), 0..self.n);
        if NodeId(target) != ctx.id() {
            self.sent += 1;
            ctx.send(NodeId(target), Msg::Ping);
        }
        ctx.set_timer(SimDuration::from_secs(1), 1);
    }
}

fn build(n: u32, net: NetworkModel, seed: u64) -> Simulation<Chatter> {
    let mut sim = Simulation::new(net, seed);
    for _ in 0..n {
        sim.add_node(Chatter::new(n));
    }
    sim
}

fn stress_plan(n: u32) -> FaultPlan {
    FaultPlan {
        salt: 7,
        churn: vec![ChurnSpec {
            nodes: (1..n / 2).map(NodeId).collect(),
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(90),
            mean_up_secs: 25.0,
            mean_down_secs: 8.0,
            recover_at_end: true,
            restart: RestartMode::Freeze,
        }],
        gray: vec![GraySpec {
            nodes: (n / 2..n / 2 + n / 5).map(NodeId).collect(),
            start: SimTime::from_secs(20),
            end: Some(SimTime::from_secs(70)),
            profile: GrayProfile::brownout(),
        }],
        link_cuts: vec![LinkCutSpec {
            from: NodeId(0),
            to: NodeId(1),
            start: SimTime::from_secs(30),
            end: Some(SimTime::from_secs(60)),
        }],
        partitions: vec![PartitionSpec {
            partition: Partition::split_at(n as usize, n as usize / 2),
            start: SimTime::from_secs(40),
            heal: SimTime::from_secs(55),
        }],
        message_chaos: vec![MessageChaosSpec {
            start: SimTime::from_secs(15),
            end: Some(SimTime::from_secs(80)),
            dup_prob: 0.05,
            reorder_prob: 0.10,
            reorder_jitter: SimDuration::from_millis(250),
        }],
        ..FaultPlan::default()
    }
}

#[test]
fn fault_plan_replays_bit_for_bit() {
    let run = |seed: u64| {
        let mut sim = build(40, NetworkModel::wan((0..40).map(|i| i / 10).collect(), 0.01), seed);
        sim.apply_fault_plan(&stress_plan(40));
        sim.run_until(SimTime::from_secs(120));
        let traces: Vec<_> = sim.iter().map(|(_, n)| n.trace.clone()).collect();
        (traces, sim.fault_counters(), sim.total_counters())
    };
    assert_eq!(run(11), run(11), "same seed + same plan must replay identically");
    assert_ne!(run(11).0, run(12).0, "different seeds must diverge");
}

#[test]
fn churn_plan_crashes_and_recovers_nodes() {
    let mut sim = build(30, NetworkModel::default(), 3);
    let plan = FaultPlan {
        churn: vec![ChurnSpec {
            nodes: (1..30).map(NodeId).collect(),
            start: SimTime::from_secs(5),
            end: SimTime::from_secs(60),
            mean_up_secs: 15.0,
            mean_down_secs: 5.0,
            recover_at_end: true,
            restart: RestartMode::Freeze,
        }],
        ..FaultPlan::default()
    };
    assert_eq!(plan.churned_nodes().len(), 29);
    sim.apply_fault_plan(&plan);
    sim.run_until(SimTime::from_secs(80));
    let faults = sim.fault_counters();
    assert!(faults.crashes > 0, "churn produced no crashes");
    assert_eq!(faults.crashes, faults.recoveries, "recover_at_end balances the books");
    for i in 0..30 {
        assert!(!sim.is_down(NodeId(i)), "node {i} left down after the plan ended");
    }
}

#[test]
fn gray_node_still_gossips_slow_is_not_dead() {
    let mut sim = build(20, NetworkModel::ideal(SimDuration::from_millis(10)), 5);
    let gray = NodeId(7);
    sim.apply_fault_plan(&FaultPlan {
        gray: vec![GraySpec {
            nodes: vec![gray],
            start: SimTime::from_secs(10),
            end: None,
            profile: GrayProfile {
                extra_latency: SimDuration::from_millis(400),
                extra_drop: 0.2,
                send_throttle: 0.5,
            },
        }],
        ..FaultPlan::default()
    });
    sim.run_until(SimTime::from_secs(10));
    let (sent_before, recv_before) = {
        let n = sim.node(gray);
        (n.sent, n.trace.len())
    };
    sim.run_until(SimTime::from_secs(120));
    let n = sim.node(gray);
    assert!(!sim.is_down(gray), "gray is degradation, not a crash");
    assert!(n.sent > sent_before, "gray node kept initiating pings");
    assert!(n.trace.len() > recv_before, "gray node kept receiving (slowly)");
    let faults = sim.fault_counters();
    assert!(faults.drops_gray_send > 0, "throttle never fired");
    assert!(faults.drops_gray_recv > 0, "receiver-side gray loss never fired");
}

#[test]
fn duplication_window_inflates_deliveries() {
    let mut sim = build(20, NetworkModel::ideal(SimDuration::from_millis(10)), 6);
    sim.apply_fault_plan(&FaultPlan {
        message_chaos: vec![MessageChaosSpec {
            start: SimTime::ZERO,
            end: Some(SimTime::from_secs(60)),
            dup_prob: 0.25,
            reorder_prob: 0.0,
            reorder_jitter: SimDuration::ZERO,
        }],
        ..FaultPlan::default()
    });
    sim.run_until(SimTime::from_secs(60));
    let faults = sim.fault_counters();
    let totals = sim.total_counters();
    assert!(faults.msgs_duplicated > 0, "no duplicates in a 25% window");
    assert_eq!(
        totals.msgs_recv,
        totals.msgs_sent + faults.msgs_duplicated,
        "every copy (original or duplicate) is delivered on a lossless net"
    );
}

/// Writes a durable marker at start and records, for every restart, the mode
/// the engine delivered and whether the marker was still on disk.
struct Probe {
    restarts: Vec<(RestartMode, bool)>,
}

impl Node for Probe {
    type Msg = ();
    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        ctx.disk().write("boot", b"installed".to_vec());
        ctx.disk().fsync();
        ctx.disk().write("scratch", b"unsynced".to_vec());
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _m: ()) {}
    fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _t: TimerId, _tag: u64) {}
    fn on_restart(&mut self, ctx: &mut Context<'_, ()>, mode: RestartMode) {
        let has_boot = ctx.disk().read("boot").is_some();
        self.restarts.push((mode, has_boot));
    }
}

/// Runs a churn plan whose down-dwell is far longer than the window, so the
/// node is (almost always) still down at `end` and `recover_at_end` does the
/// final restart. Returns node 1's recorded restarts.
fn run_recover_at_end(mode: RestartMode) -> Vec<(RestartMode, bool)> {
    let mut sim = Simulation::new(NetworkModel::default(), 21);
    for _ in 0..3 {
        sim.add_node(Probe { restarts: Vec::new() });
    }
    sim.apply_fault_plan(&FaultPlan {
        churn: vec![ChurnSpec {
            nodes: vec![NodeId(1)],
            start: SimTime::from_secs(5),
            end: SimTime::from_secs(30),
            mean_up_secs: 0.5,
            mean_down_secs: 120.0,
            recover_at_end: true,
            restart: mode,
        }],
        ..FaultPlan::default()
    });
    sim.run_until(SimTime::from_secs(40));
    assert!(!sim.is_down(NodeId(1)), "recover_at_end left the node down");
    sim.node(NodeId(1)).restarts.clone()
}

#[test]
fn recover_at_end_honors_freeze_mode() {
    let restarts = run_recover_at_end(RestartMode::Freeze);
    assert!(!restarts.is_empty(), "churn never crashed the node");
    for (mode, has_boot) in restarts {
        assert_eq!(mode, RestartMode::Freeze);
        assert!(has_boot, "freeze must leave the disk untouched");
    }
}

#[test]
fn recover_at_end_honors_cold_durable_mode() {
    let restarts = run_recover_at_end(RestartMode::ColdDurable);
    assert!(!restarts.is_empty(), "churn never crashed the node");
    for (mode, has_boot) in restarts {
        assert_eq!(mode, RestartMode::ColdDurable);
        assert!(has_boot, "cold-durable must keep fsynced state");
    }
}

#[test]
fn recover_at_end_honors_cold_amnesia_mode() {
    let restarts = run_recover_at_end(RestartMode::ColdAmnesia);
    assert!(!restarts.is_empty(), "churn never crashed the node");
    for (mode, has_boot) in restarts {
        assert_eq!(mode, RestartMode::ColdAmnesia);
        assert!(!has_boot, "amnesia must wipe the disk before on_restart");
    }
}

#[test]
fn crash_destroys_unsynced_writes_by_default() {
    let mut sim = Simulation::new(NetworkModel::default(), 17);
    let n = sim.add_node(Probe { restarts: Vec::new() });
    sim.schedule_crash(SimTime::from_secs(1), n);
    sim.schedule_restart(SimTime::from_secs(2), n, RestartMode::ColdDurable);
    sim.run_until(SimTime::from_secs(3));
    assert_eq!(sim.disk(n).read("boot"), Some(&b"installed"[..]), "fsynced data survives");
    assert_eq!(sim.disk(n).read("scratch"), None, "unsynced write lost in the crash");
    assert_eq!(sim.disk(n).total_lost(), 1);
}

#[test]
fn asymmetric_cut_blocks_one_direction() {
    let mut sim = build(2, NetworkModel::ideal(SimDuration::from_millis(5)), 8);
    sim.apply_fault_plan(&FaultPlan {
        link_cuts: vec![LinkCutSpec {
            from: NodeId(0),
            to: NodeId(1),
            start: SimTime::ZERO,
            end: None,
        }],
        ..FaultPlan::default()
    });
    sim.run_until(SimTime::from_secs(60));
    // Node 1's pings reach node 0, but node 0 can never answer (or ping).
    assert!(!sim.node(NodeId(0)).trace.is_empty(), "reverse direction flows");
    assert!(sim.node(NodeId(1)).trace.is_empty(), "cut direction is dark");
    assert!(sim.fault_counters().drops_link_cut > 0);
}
