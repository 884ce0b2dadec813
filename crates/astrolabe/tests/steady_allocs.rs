//! What a gossip round allocates once replicas are in sync, pinned with a
//! counting allocator. Every heartbeat re-stamps every row, and the stamps
//! move without their rows: a replica takes a newer stamp for values it
//! holds by writing it inline, so taking one — from a digest entry or from
//! a refresh record — must allocate nothing at all, and a whole round stays
//! within a fixed budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use astrolabe::{Agent, Config, GossipMsg, TableDigest, ZoneLayout};
use rand::rngs::SmallRng;
use simnet::{fork, SimDuration, SimTime};

thread_local! {
    // Per thread, so tests running in parallel do not see each other.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const N: u32 = 64;
const ROUND: SimDuration = SimDuration::from_secs(2);

/// 64 agents in three levels of four (the standard gossip cadence).
fn deployment(delta_gossip: bool) -> Vec<Agent> {
    let layout = ZoneLayout::new(N, 4);
    let config = Config { branching: 4, delta_gossip, ..Config::standard() };
    (0..N).map(|i| Agent::new(i, &layout, config.clone(), vec![(i * 17 + 5) % N])).collect()
}

/// One synchronous gossip round with perfect delivery: every agent ticks,
/// then messages are relayed until the exchange dies down.
fn round(agents: &mut [Agent], now: SimTime, rng: &mut SmallRng) {
    let mut inflight: Vec<(u32, u32, GossipMsg)> = Vec::new();
    for a in agents.iter_mut() {
        inflight.extend(a.on_tick(now, rng).into_iter().map(|(to, m)| (a.id(), to, m)));
    }
    while let Some((from, to, msg)) = inflight.pop() {
        let out = agents[to as usize].on_message(now, from, msg, rng);
        inflight.extend(out.into_iter().map(|(next, m)| (to, next, m)));
    }
}

/// Allocations per round of a converged 64-agent deployment: the messages
/// themselves (digest, reply and outbox vectors, a few per exchange) and
/// the failure-detector sweep. Measured at 1,355 on the full wire and 1,713
/// on the delta wire (whose lanes hash-map per peer); a build that
/// allocated a row per re-stamp measured 2,086 and 2,779. The budgets leave
/// ≈ 7 % for hash-seed wobble and none for a row per re-stamp.
#[test]
fn a_steady_round_stays_within_its_allocation_budget() {
    for (delta, budget) in [(false, 1_450), (true, 1_850)] {
        let mut agents = deployment(delta);
        let mut rng = fork(7, 0);
        let mut now = SimTime::ZERO;
        for _ in 0..40 {
            now += ROUND;
            round(&mut agents, now, &mut rng);
        }
        for a in &agents {
            let rows: usize = (0..a.levels()).map(|l| a.table(l).len()).sum();
            assert_eq!(rows, 12, "agent {} converged (delta {delta})", a.id());
        }
        const ROUNDS: u64 = 10;
        let ((), allocs) = counted(|| {
            for _ in 0..ROUNDS {
                now += ROUND;
                round(&mut agents, now, &mut rng);
            }
        });
        let per_round = allocs / ROUNDS;
        assert!(per_round <= budget, "{per_round} allocations per round (delta {delta})");
    }
}

/// `a`'s full digest of every table it shares with `b`.
fn digest_of(a: &Agent) -> GossipMsg {
    let digests = (0..a.levels())
        .map(|l| TableDigest {
            zone: a.zone(l).clone(),
            rows: a.table(l).digest().into(),
            since: 0,
            gen: 0,
        })
        .collect();
    GossipMsg::Digest { digests }
}

/// Brings `b` level with `a` on every table they share.
fn sync(agents: &mut [Agent], a: usize, b: usize, now: SimTime, rng: &mut SmallRng) {
    let mut inflight = vec![(a as u32, b as u32, digest_of(&agents[a]))];
    while let Some((from, to, msg)) = inflight.pop() {
        let out = agents[to as usize].on_message(now, from, msg, rng);
        inflight.extend(out.into_iter().map(|(next, m)| (to, next, m)));
    }
}

#[test]
fn taking_a_stamp_for_held_values_allocates_nothing() {
    let mut agents = deployment(false);
    let mut rng = fork(9, 0);
    let mut now = SimTime::ZERO;
    for _ in 0..40 {
        now += ROUND;
        round(&mut agents, now, &mut rng);
    }
    // Agents 0 and 1 share a leaf zone, so every table.
    let (a, b) = (0, 1);
    for pass in 0..2 {
        sync(&mut agents, a, b, now, &mut rng);
        // a heartbeats: new stamps, same values.
        now += ROUND;
        drop(agents[a].on_tick(now, &mut rng));
        let digest = digest_of(&agents[a]);
        let (out, allocs) = counted(|| agents[b].on_message(now, a as u32, digest, &mut rng));
        assert!(out.is_empty(), "b adopts every stamp and has nothing to say: {out:?}");
        // The first pass may still grow the handler's scratch lists.
        if pass == 1 {
            assert_eq!(allocs, 0, "adopting stamps from a digest allocated");
        }
    }
    for pass in 0..2 {
        sync(&mut agents, a, b, now, &mut rng);
        // b heartbeats, then answers a's (now older) digest with refresh
        // records, which a applies.
        now += ROUND;
        drop(agents[b].on_tick(now, &mut rng));
        let digest = digest_of(&agents[a]);
        let mut out = agents[b].on_message(now, a as u32, digest, &mut rng);
        let Some((_, reply @ GossipMsg::DigestReply { .. })) = out.pop() else {
            panic!("b, newer on stamps only, must answer with refresh records");
        };
        let GossipMsg::DigestReply { rows, refresh, .. } = &reply else { unreachable!() };
        assert!(rows.is_empty() && !refresh.is_empty(), "stamps only: {reply:?}");
        let (out, allocs) = counted(|| agents[a].on_message(now, b as u32, reply, &mut rng));
        assert!(out.is_empty());
        if pass == 1 {
            assert_eq!(allocs, 0, "applying refresh records allocated");
        }
    }
}
