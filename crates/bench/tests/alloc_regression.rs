//! Allocation-count regression gate for the zero-copy hot path.
//!
//! A counting global allocator wraps the system allocator; after a
//! warmup phase has populated the `BufArena` free lists and grown every
//! executor structure (timing-wheel slot vectors, ready queue, arena
//! bins) to steady capacity, a window of fine-grained point lookups
//! must perform **zero** heap allocations — the property the PageBuf
//! arena exists to provide (DESIGN.md §17). A regression that
//! reintroduces a per-verb `Vec` shows up here as an exact count, not a
//! profile hunch.
//!
//! A second window runs the same lookups with the happens-before race
//! detector installed: observer dispatch and the detector's clean-read
//! path must allocate nothing either (DESIGN.md §18).
//!
//! This lives in its own integration-test binary because a global
//! allocator is process-wide. Counting is per thread, so the tests of
//! this binary may run in parallel without counting each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use namdex_core::{FgConfig, FineGrained};
use racecheck::Racecheck;
use rdma_sim::{ClusterSpec, Endpoint};
use simnet::Sim;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Build a 20k-key fine-grained index, optionally with the race
/// detector installed, warm it up, and return the heap allocations of a
/// window of 500 point lookups.
fn steady_state_lookup_allocations(racecheck: bool) -> u64 {
    let sim = Sim::new();
    let nam = nam::NamCluster::new(&sim, ClusterSpec::with_memory_servers(4));
    nam.rdma.set_active_clients(1);
    let data = ycsb::Dataset::new(20_000);
    let domain = data.domain();
    let fg = FineGrained::build(
        &nam.rdma,
        FgConfig {
            layout: blink::PageLayout::default(),
            fill: 0.7,
            head_stride: 8,
            cache_capacity: None,
        },
        data.iter(),
    );
    let race =
        racecheck.then(|| Racecheck::install(&nam.rdma, blink::PageLayout::DEFAULT_PAGE_SIZE));
    let cluster = nam.rdma.clone();
    let allocs = std::rc::Rc::new(Cell::new(u64::MAX));
    let measured = allocs.clone();
    sim.spawn(async move {
        let ep = Endpoint::new(&cluster);
        let mut key = 1u64;
        let mut next = move || {
            key = key
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            key % domain
        };
        // Warmup: fill the arena free lists and grow every executor
        // container (wheel slots, ready queue) to steady capacity. The
        // full scan also shows the detector every leaf once, so its
        // page registry holds every page the window can touch.
        fg.range(&ep, 0, domain).await.expect("warmup scan");
        // One insert gives the client a non-empty vector clock, so a
        // detector that copied the reader's clock on every read would
        // show up as allocations.
        fg.insert(&ep, 1, 1).await.expect("warmup insert");
        for _ in 0..1_000 {
            fg.lookup(&ep, next()).await.expect("warmup lookup");
        }
        let mut window = Vec::with_capacity(500);
        window.extend((0..500).map(|_| next()));
        ALLOCS.with(|n| n.set(0));
        COUNTING.with(|c| c.set(true));
        for &k in &window {
            fg.lookup(&ep, k).await.expect("measured lookup");
        }
        COUNTING.with(|c| c.set(false));
        measured.set(ALLOCS.with(Cell::get));
    });
    sim.run();
    if let Some(race) = race {
        race.assert_clean();
        assert!(
            race.counts().reads_checked > 500,
            "the detector saw the window"
        );
    }
    allocs.get()
}

#[test]
fn steady_state_fg_lookups_allocate_nothing() {
    assert_eq!(
        steady_state_lookup_allocations(false),
        0,
        "steady-state fine-grained lookups must perform zero heap allocations"
    );
}

#[test]
fn steady_state_lookups_under_racecheck_allocate_nothing() {
    assert_eq!(
        steady_state_lookup_allocations(true),
        0,
        "with the race detector installed, steady-state lookups (observer \
         dispatch + clean-read checks) must perform zero heap allocations"
    );
}
