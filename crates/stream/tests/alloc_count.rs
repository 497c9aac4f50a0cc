//! Allocation-count gates for the monitor's warm alarm path, plus the
//! fleet's per-series memory footprint.
//!
//! Mirrors `crates/core/tests/alloc_count.rs`: a counting global allocator
//! measures the *marginal* allocation cost of the steady state — two runs
//! differing only in length pay the identical warm-up (treap arenas, FFT
//! planes, engine scratch), so the difference is the true per-cycle cost,
//! which must be exactly zero once every buffer has grown to its working
//! set. The same allocator tracks live heap bytes, which pins what one
//! window slot of a warmed fleet costs.
//!
//! The counters are process-global and libtest runs sibling test threads
//! concurrently, so this binary contains exactly ONE #[test]: the gates
//! run as sequential phases inside it.

use moche_stream::{DriftMonitor, FleetConfig, MonitorConfig, MonitorEvent, MonitorFleet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Live heap bytes (wrapping: a dealloc may run before its alloc is seen
/// by a reader, but differences between two readings are exact).
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a counter bump; every
// `GlobalAlloc` contract obligation is discharged by `System` itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // delegates all allocation to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // delegates all allocation to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

const W: usize = 60;
/// One period of the drifting stream: half a cycle low, half high, so
/// every cycle drives the windows through alarm territory twice.
const CYCLE: usize = 4 * W;

/// The observation at stream position `i`: a periodic base signal plus a
/// level shift toggling every half cycle. Deterministic, so every cycle
/// replays the same values and the treap arenas reach a fixed working set.
fn observation(i: usize) -> f64 {
    let base = ((i * 13) % 11) as f64;
    if (i / (CYCLE / 2)).is_multiple_of(2) {
        base
    } else {
        base + 25.0
    }
}

/// Feeds `cycles` full periods into the monitor, recycling every
/// explanation, and returns how many alarms fired.
fn run_cycles(mon: &mut DriftMonitor, start: &mut usize, cycles: usize) -> usize {
    let mut alarms = 0;
    for _ in 0..cycles * CYCLE {
        match mon.push(observation(*start)) {
            MonitorEvent::Drift { explanation: Some(e), .. } => {
                assert!(e.outcome_after.passes());
                mon.recycle(e);
                alarms += 1;
            }
            MonitorEvent::Drift { .. } => alarms += 1,
            MonitorEvent::Stable { .. } | MonitorEvent::Warming { .. } => {}
        }
        *start += 1;
    }
    alarms
}

#[test]
fn warm_monitor_alarm_gates_run_sequentially() {
    warm_explain_alarms_allocate_nothing();
    warm_size_only_alarms_allocate_nothing();
    warm_alarms_with_checkpointing_configured_allocate_nothing();
    warm_fleet_heap_per_window_slot_is_pinned();
}

/// Live heap bytes per window slot of a warmed single-shard fleet: 1,000
/// stationary series at w = 64, every window pair full and slid for
/// another `2w` pushes so every arena sits at its working set. Everything
/// the fleet holds counts (slab, id map, rings, treaps, shard scratch),
/// divided by the `1,000 · 2w` observations it keeps. One ring plus one
/// treap per series measures 73.94 B/slot on x86-64 Linux (64 B of treap
/// node and 8 B of ring per slot, the rest slab and id map); the bound fails
/// on any change that stores the windows a second time.
fn warm_fleet_heap_per_window_slot_is_pinned() {
    const SERIES: u64 = 1_000;
    const FLEET_W: usize = 64;
    const MAX_BYTES_PER_SLOT: f64 = 74.0;
    let mut monitor = MonitorConfig::new(FLEET_W, 0.05);
    monitor.reset_on_drift = false;
    let before = live_bytes();
    let mut fleet = MonitorFleet::new(FleetConfig::new(1, monitor)).unwrap();
    for i in 0..4 * FLEET_W {
        // The benchmark stream: ~w distinct values per window (a realistic
        // treap depth), distribution-equal paired windows (no alarms).
        let x = ((i * 13) % 11) as f64 + (i % FLEET_W) as f64 * 1e-8;
        for id in 0..SERIES {
            fleet.push(id, x).unwrap();
        }
    }
    let held = live_bytes().wrapping_sub(before);
    assert_eq!(fleet.stats().view().alarms, 0, "the stationary fleet must never alarm");
    let per_slot = held as f64 / (SERIES as f64 * 2.0 * FLEET_W as f64);
    assert!(
        per_slot <= MAX_BYTES_PER_SLOT,
        "a warmed fleet holds {per_slot:.3} heap bytes per window slot \
         (bound {MAX_BYTES_PER_SLOT})"
    );
}

/// The explain-on-drift steady state: slides, KS decisions, SR scoring,
/// the reference index rebuild, the explanation itself — all through recycled
/// buffers, exactly 0 marginal heap allocations after `recycle`.
fn warm_explain_alarms_allocate_nothing() {
    let mut cfg = MonitorConfig::new(W, 0.05);
    cfg.reset_on_drift = false;
    let mut mon = DriftMonitor::new(cfg).unwrap();
    let mut at = 0usize;
    // Warm-up: enough cycles for every arena (KS treap, reference index,
    // SR planes, engine workspace, output arena) to hit its high-water
    // mark across both shift directions.
    let warm_alarms = run_cycles(&mut mon, &mut at, 3);
    assert!(warm_alarms > 0, "the shifting stream must alarm during warm-up");

    let before = allocations();
    let alarms = run_cycles(&mut mon, &mut at, 2);
    let allocated = allocations() - before;
    assert!(alarms > 0, "the measured window must contain alarms");
    assert_eq!(
        allocated, 0,
        "warm monitor explain alarms must be allocation-free \
         ({alarms} alarms allocated {allocated} times)"
    );
}

/// The fault-tolerant deployment shape: a checkpoint cadence is configured
/// (the per-push `pushes() % every` decision runs, exactly as the CLI's
/// checkpoint loop runs it) but no checkpoint falls due inside the measured
/// window. Writing a snapshot allocates by design — fresh window vectors
/// plus the encoded byte buffer — so the guarantee is precisely scoped:
/// checkpointing costs nothing *between* checkpoints, even through alarms.
fn warm_alarms_with_checkpointing_configured_allocate_nothing() {
    let mut cfg = MonitorConfig::new(W, 0.05);
    cfg.reset_on_drift = false;
    let mut mon = DriftMonitor::new(cfg).unwrap();
    let mut at = 0usize;
    let warm_alarms = run_cycles(&mut mon, &mut at, 3);
    assert!(warm_alarms > 0, "the shifting stream must alarm during warm-up");

    // Prove the checkpoint path itself works for this monitor (outside the
    // measured window), then pick a cadence that cannot fall due during
    // the two measured cycles.
    let path = std::env::temp_dir().join("moche-alloc-gate.snap");
    mon.checkpoint(&path).expect("warm-up checkpoint");
    let every: u64 = mon.pushes() + 100 * CYCLE as u64;

    let before = allocations();
    let mut alarms = 0usize;
    let mut checkpoints = 0usize;
    for _ in 0..2 * CYCLE {
        match mon.push(observation(at)) {
            MonitorEvent::Drift { explanation: Some(e), .. } => {
                mon.recycle(e);
                alarms += 1;
            }
            MonitorEvent::Drift { .. } => alarms += 1,
            MonitorEvent::Stable { .. } | MonitorEvent::Warming { .. } => {}
        }
        if mon.pushes().is_multiple_of(every) {
            mon.checkpoint(&path).expect("cadence checkpoint");
            checkpoints += 1;
        }
        at += 1;
    }
    let allocated = allocations() - before;
    let _ = std::fs::remove_file(&path);
    assert!(alarms > 0, "the measured window must contain alarms");
    assert_eq!(checkpoints, 0, "the cadence must not fall due while measuring");
    assert_eq!(
        allocated, 0,
        "warm alarms with checkpointing configured must be allocation-free \
         ({alarms} alarms allocated {allocated} times)"
    );
}

/// The size-only steady state: Phase 1 per alarm, no Phase 2, no output —
/// also exactly 0 marginal allocations.
fn warm_size_only_alarms_allocate_nothing() {
    let mut cfg = MonitorConfig::new(W, 0.05);
    cfg.reset_on_drift = false;
    cfg.size_only = true;
    let mut mon = DriftMonitor::new(cfg).unwrap();
    let mut at = 0usize;
    let warm_alarms = run_cycles(&mut mon, &mut at, 3);
    assert!(warm_alarms > 0);

    let before = allocations();
    let alarms = run_cycles(&mut mon, &mut at, 2);
    let allocated = allocations() - before;
    assert!(alarms > 0);
    assert_eq!(
        allocated, 0,
        "warm monitor size-only alarms must be allocation-free \
         ({alarms} alarms allocated {allocated} times)"
    );
}
