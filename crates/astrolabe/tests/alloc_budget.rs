//! What an Astrolabe replica allocates beside its rows, pinned with a
//! counting allocator: building an agent is a gated benchmark metric
//! (`gossip_cold_start` `setup_s` constructs 2,560 of them), and failure
//! detection and compiled programs must cost nothing until — and nothing
//! more than — they are used.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use astrolabe::{Agent, Config, GossipMsg, ZoneLayout};
use simnet::{fork, PhiBank, SimTime};

thread_local! {
    // Per thread, so tests running in parallel do not see each other.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-locals without destructors, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result with the `(allocations, bytes)` it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (out, ALLOCS.with(Cell::get) - before.0, BYTES.with(Cell::get) - before.1)
}

/// Synchronous gossip rounds with perfect delivery (as the agent unit tests).
fn run_rounds(agents: &mut [Agent], rounds: u64) {
    let mut rng = fork(42, 0);
    for round in 1..=rounds {
        let now = SimTime::from_secs(round);
        let mut inflight: Vec<(u32, u32, GossipMsg)> = Vec::new();
        for a in agents.iter_mut() {
            inflight.extend(a.on_tick(now, &mut rng).into_iter().map(|(to, m)| (a.id(), to, m)));
        }
        while let Some((from, to, msg)) = inflight.pop() {
            let replies = agents[to as usize].on_message(now, from, msg, &mut rng);
            inflight.extend(replies.into_iter().map(|(to2, m)| (to, to2, m)));
        }
    }
}

/// Everything a deployment does per agent — clone the shared configuration,
/// draw contacts, build the agent — in the allocations the issue budgets
/// for `gossip_cold_start`'s set-up phase, none of them for failure
/// detection.
#[test]
fn constructing_an_agent_stays_within_its_allocation_budget() {
    const BUDGET: u64 = 14;
    let layout = ZoneLayout::new(5_000, 64); // 64^2 < 5,000: leaf, interior, root
    let config = Config::standard();
    let (agent, allocs, bytes) = counted(|| {
        let contacts = vec![17, 1_234, 4_321];
        Agent::new(77, &layout, config.clone(), contacts)
    });
    assert_eq!(agent.levels(), 3);
    assert!(allocs <= BUDGET, "{allocs} allocations ({bytes} B) to build one agent");
    // One 64-row detector lane alone would be 6.6 KB.
    assert!(bytes < 2_048, "{bytes} B to build one agent");
    for level in 0..agent.levels() {
        assert_eq!(agent.detector_heap_bytes(level), 0, "level {level}");
    }
}

#[test]
fn detectors_are_two_exact_allocations_per_level() {
    let layout = ZoneLayout::new(64, 4); // 4 x 4 x 4
    let config = Config { branching: 4, delta_gossip: false, ..Config::standard() };
    let mut agents: Vec<Agent> =
        (0..64).map(|i| Agent::new(i, &layout, config.clone(), vec![0])).collect();
    run_rounds(&mut agents, 30);

    // What one slot costs (its record plus its share of the ring), read off
    // a bank of the same window.
    let mut probe = PhiBank::new(config.phi());
    probe.grow_to(1);
    let per_slot = probe.heap_bytes();
    assert_eq!(per_slot, 40 + 4 * config.phi().window);

    for a in &agents {
        for level in 0..a.levels() {
            assert_eq!(a.table(level).len(), 4, "agent {} level {level} converged", a.id());
            // Sized once to the zone's four children — the own row's slot
            // included, idle — with no growth slack and nothing else owned.
            assert_eq!(
                a.detector_heap_bytes(level),
                4 * per_slot,
                "agent {} level {level}",
                a.id()
            );
        }
    }
}

#[test]
fn agents_of_one_deployment_share_their_compiled_programs() {
    let layout = ZoneLayout::new(12, 4);
    let config = Config { branching: 4, ..Config::standard() };
    let a = Agent::new(0, &layout, config.clone(), vec![]);
    let b = Agent::new(11, &layout, config.clone(), vec![0]);
    let program = |agent: &Agent| Arc::clone(agent.config().aggregations[0].compiled().unwrap());
    assert!(Arc::ptr_eq(&program(&a), &program(&b)));
}
