//! What an Astrolabe replica allocates beside its rows, pinned with a
//! counting allocator: building an agent is a gated benchmark metric
//! (`gossip_cold_start` `setup_s` constructs 2,560 of them), failure
//! detection and compiled programs must cost nothing until — and nothing
//! more than — they are used, and a gossip tick leaves nothing behind.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

use astrolabe::{Agent, Config, GossipMsg, ZoneLayout};
use simnet::{fork, SimTime};

/// Blocks [`kept_by`] can follow at once.
const WATCHED: usize = 512;

/// `(address, size)` of every watched block allocated and not yet freed:
/// the first `.1` entries of the array.
type Watch = ([(usize, usize); WATCHED], usize);

thread_local! {
    // Per thread, so tests running in parallel do not see each other.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// The blocks [`kept_by`] follows while it runs.
    static WATCH: RefCell<Option<Watch>> = const { RefCell::new(None) };
    /// A watched block did not fit the array.
    static OVERFLOW: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn count(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

fn watch_alloc(ptr: *mut u8, size: usize) {
    WATCH.with(|w| {
        if let Some((blocks, len)) = w.borrow_mut().as_mut() {
            if *len == WATCHED {
                OVERFLOW.with(|o| o.set(true));
            } else {
                blocks[*len] = (ptr as usize, size);
                *len += 1;
            }
        }
    });
}

fn watch_free(ptr: *mut u8) {
    WATCH.with(|w| {
        if let Some((blocks, len)) = w.borrow_mut().as_mut() {
            if let Some(at) = blocks[..*len].iter().position(|&(p, _)| p == ptr as usize) {
                blocks[at] = blocks[*len - 1];
                *len -= 1;
            }
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-locals without destructors, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        watch_alloc(ptr, layout.size());
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        watch_alloc(ptr, layout.size());
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        watch_free(ptr);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        watch_free(ptr);
        // SAFETY: as above.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        watch_alloc(new, new_size);
        new
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

/// Runs `f`, returning the bytes of the blocks it allocated that are still
/// live when it returns (a block that grew counts at its new size).
fn kept_by(f: impl FnOnce()) -> usize {
    WATCH.with(|w| *w.borrow_mut() = Some(([(0, 0); WATCHED], 0)));
    f();
    let (blocks, len) = WATCH.with(|w| w.borrow_mut().take()).expect("the watch is open");
    assert!(!OVERFLOW.with(Cell::get), "more than {WATCHED} blocks live at once");
    blocks[..len].iter().map(|&(_, size)| size).sum()
}

/// Synchronous gossip rounds with perfect delivery (as the agent unit tests).
fn run_rounds(agents: &mut [Agent], rounds: std::ops::RangeInclusive<u64>) {
    let mut rng = fork(42, 0);
    for round in rounds {
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
    assert_eq!(agent.footprint().detectors, 0);
}

/// What one row's timeout costs: a `u64` last-heard instant and two `u32`
/// estimates.
const BYTES_PER_TIMEOUT: usize = 16;

#[test]
fn detectors_are_one_exact_allocation_per_level() {
    let layout = ZoneLayout::new(64, 4); // 4 x 4 x 4
    let config = Config { branching: 4, ..Config::standard() };
    let mut agents: Vec<Agent> =
        (0..64).map(|i| Agent::new(i, &layout, config.clone(), vec![0])).collect();
    run_rounds(&mut agents, 1..=30);

    for a in &agents {
        for level in 0..a.levels() {
            assert_eq!(a.table(level).len(), 4, "agent {} level {level} converged", a.id());
        }
        // Each level sized once to the zone's four children — the own
        // row's slot included, idle — with no growth slack, no side list
        // and nothing else owned.
        assert_eq!(a.footprint().detectors, a.levels() * 4 * BYTES_PER_TIMEOUT, "agent {}", a.id());
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

/// Between ticks an agent keeps its rows, its detectors and what it derives
/// from their values, and nothing of the tick itself: in a converged
/// deployment no block `on_tick` allocates outlives its outbox — the
/// digests it fans out included — and that still holds ten rounds later.
#[test]
fn a_tick_leaves_nothing_behind_but_its_outbox() {
    let layout = ZoneLayout::new(64, 4);
    let config = Config { branching: 4, ..Config::standard() };
    let mut agents: Vec<Agent> =
        (0..64).map(|i| Agent::new(i, &layout, config.clone(), vec![0])).collect();
    let mut rng = fork(7, 0);
    for (rounds, at) in [(1..=30, 30), (31..=40, 40)] {
        run_rounds(&mut agents, rounds);
        // An extra tick per agent, half a round on, whose messages are lost.
        let now = SimTime::from_micros(at * 1_000_000 + 500_000);
        for a in &mut agents {
            let mut sent = 0;
            let kept = kept_by(|| sent = a.on_tick(now, &mut rng).len());
            assert!(sent > 0, "agent {} fanned out", a.id());
            assert_eq!(kept, 0, "agent {} kept {kept} B of its tick at {now}", a.id());
        }
    }
}
