//! Telemetry-layer integration tests: determinism of drained exports, view
//! equivalence of the legacy counter structs, and snapshot/drain semantics.

use obs::ctr;
use simnet::{
    Context, LatencyModel, NetworkModel, Node, NodeId, Partition, Payload, SimDuration, SimTime,
    Simulation, TimerId,
};

#[derive(Debug, Clone)]
struct Ping(u32);
impl Payload for Ping {
    fn wire_size(&self) -> usize {
        12
    }
}

struct Echo;
impl Node for Echo {
    type Msg = Ping;
    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        ctx.set_timer(SimDuration::from_millis(50), 1);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: NodeId, Ping(n): Ping) {
        if n > 0 && from != NodeId::EXTERNAL {
            ctx.send(from, Ping(n - 1));
        } else if from == NodeId::EXTERNAL {
            ctx.send(NodeId((ctx.id().0 + 1) % 4), Ping(n));
        }
    }
    fn on_timer(&mut self, _: &mut Context<'_, Ping>, _: TimerId, _: u64) {}
}

fn lossy_sim(seed: u64) -> Simulation<Echo> {
    let mut sim = Simulation::new(
        NetworkModel {
            latency: LatencyModel::Uniform {
                min: SimDuration::from_millis(1),
                max: SimDuration::from_millis(40),
            },
            drop_prob: 0.15,
            ..NetworkModel::default()
        },
        seed,
    );
    for _ in 0..4 {
        sim.add_node(Echo);
    }
    for i in 0..12u32 {
        sim.schedule_external(SimTime::from_micros(u64::from(i) * 977), NodeId(i % 4), Ping(5));
    }
    sim.schedule_crash(SimTime::from_secs(1), NodeId(2));
    sim.schedule_recover(SimTime::from_secs(2), NodeId(2));
    sim.schedule_partition(SimTime::from_secs(3), Some(Partition::split_at(4, 2)));
    sim.schedule_partition(SimTime::from_secs(4), None);
    sim
}

#[test]
fn same_seed_drains_byte_identical_telemetry() {
    let drain = |seed: u64| {
        let mut sim = lossy_sim(seed);
        sim.run_until(SimTime::from_secs(5));
        sim.drain_telemetry().to_json()
    };
    assert_eq!(drain(0xD5), drain(0xD5), "same-seed telemetry must be byte-identical");
    assert_ne!(drain(0xD5), drain(0xD6), "different seeds should diverge");
}

#[test]
fn views_match_registry() {
    let mut sim = lossy_sim(7);
    sim.run_until(SimTime::from_secs(5));
    let totals = sim.total_counters();
    let hub = sim.telemetry();
    let hub = hub.borrow();
    assert_eq!(totals.msgs_sent, hub.counter_total(ctr::MSGS_SENT));
    assert_eq!(totals.bytes_sent, hub.counter_total(ctr::BYTES_SENT));
    assert_eq!(totals.msgs_lost, hub.counter_total(ctr::MSGS_LOST));
    assert!(totals.msgs_sent > 0);
    let f = sim.fault_counters();
    assert_eq!(f.crashes, 1);
    assert_eq!(f.recoveries, 1);
    assert_eq!(f.partitions_started, 1);
    assert_eq!(f.partitions_healed, 1);
    assert_eq!(f.drops_loss, hub.global().ctr(ctr::DROPS_LOSS));
    assert!(f.drops_loss > 0, "15% loss over dozens of messages");
}

#[test]
fn engine_traces_cover_faults_and_delivery() {
    use obs::kind;
    let mut sim = lossy_sim(11);
    sim.run_until(SimTime::from_secs(5));
    let t = sim.snapshot_telemetry();
    let count = |k: u8| t.events.iter().filter(|e| e.kind == k).count() as u64;
    let totals = sim.total_counters();
    let f = sim.fault_counters();
    assert_eq!(count(kind::MSG_DELIVER), totals.msgs_recv, "one trace per delivery");
    assert_eq!(count(kind::MSG_DROP), f.total_drops(), "one trace per routed drop");
    assert_eq!(count(kind::NODE_CRASH), 1);
    assert_eq!(count(kind::NODE_RECOVER), 1);
    assert_eq!(count(kind::PARTITION_START), 1);
    assert_eq!(count(kind::PARTITION_HEAL), 1);
    // Snapshot is non-destructive: counters still read through the views.
    assert_eq!(sim.total_counters().msgs_recv, totals.msgs_recv);
}

#[test]
fn drain_resets_views_and_ring() {
    let mut sim = lossy_sim(3);
    sim.run_until(SimTime::from_secs(5));
    assert!(sim.total_counters().msgs_sent > 0);
    let t = sim.drain_telemetry();
    assert!(!t.nodes.is_empty());
    assert_eq!(t.now_us, SimTime::from_secs(5).as_micros());
    assert_eq!(sim.total_counters().msgs_sent, 0, "drain resets the registry the views read");
    assert_eq!(sim.fault_counters().total_drops(), 0);
    let t2 = sim.drain_telemetry();
    assert!(t2.events.is_empty());
}

#[test]
fn trace_capacity_is_respected() {
    let mut sim = lossy_sim(13);
    sim.set_trace_capacity(8);
    sim.run_until(SimTime::from_secs(5));
    let t = sim.snapshot_telemetry();
    assert!(t.events.len() <= 8);
    assert!(t.events_dropped > 0, "a lossy run emits far more than 8 records");
}
