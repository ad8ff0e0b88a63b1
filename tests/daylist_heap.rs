//! Heap bound of the day-list build: the counting sort by entity needs
//! the finished store's day arena plus one property per day, and nothing
//! of the size of a per-field hash map.
//!
//! The counting allocator is process-wide and its scope mark is shared,
//! so this file holds a single test and nothing runs beside it.

use wikistale_core::filters::FilterPipeline;
use wikistale_obs::alloc::{AllocScope, CountingAlloc};
use wikistale_synth::{generate, SynthConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn day_list_build_peaks_within_twice_the_store() {
    let raw = generate(&SynthConfig::small()).cube;
    let (filtered, _) = FilterPipeline::paper().apply(&raw);
    for (name, cube) in [("raw", &raw), ("filtered", &filtered)] {
        let scope = AllocScope::begin();
        let store = cube.day_lists();
        let peak = scope.peak_delta();
        let bytes = store.heap_bytes();
        assert!(store.total_days() > 0, "synth small {name} has changes");
        let ratio = peak as f64 / bytes as f64;
        println!("{name}: peak {peak} bytes, store {bytes} bytes, {ratio:.2}x");
        assert!(
            ratio <= 2.0,
            "{name} day-list build peaked at {peak} heap bytes, {ratio:.2}x the {bytes}-byte store"
        );
    }
}
