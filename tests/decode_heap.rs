//! Heap bound of `binio::decode`: the six change arrays decode straight
//! into the cube's columns, so decoding a canonical file needs the
//! columns, the dimension tables and nothing of the size of a row table.
//!
//! The counting allocator is process-wide and its scope mark is shared,
//! so this file holds a single test and nothing runs beside it.

use wikistale_obs::alloc::{AllocScope, CountingAlloc};
use wikistale_synth::{generate, SynthConfig};
use wikistale_wikicube::binio;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn decode_peak_heap_stays_within_one_and_a_half_change_tables() {
    let bytes = binio::encode(&generate(&SynthConfig::small()).cube);
    let scope = AllocScope::begin();
    let cube = binio::decode(&bytes).expect("a freshly encoded cube decodes");
    let peak = scope.peak_delta();
    let table = cube.change_table_bytes();
    assert!(table > 0, "synth small has changes");
    let ratio = peak as f64 / table as f64;
    assert!(
        ratio <= 1.5,
        "decode peaked at {peak} heap bytes, {ratio:.2}x the {table}-byte change table"
    );
}
