#!/usr/bin/env bash
# Tier-1 verification gate: build, tests, formatting, lints.
#
# The workspace is fully offline (all external deps are vendored stubs in
# vendor/ — see vendor/README.md), so every step below runs without
# network access; --offline makes cargo fail fast instead of probing an
# unreachable registry.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --offline
run cargo test -q --offline
run cargo fmt --all --check
run cargo clippy --all-targets --offline -- -D warnings
# Doc gate: broken, ambiguous or private intra-doc links fail the build.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Robustness gates. These suites are part of the workspace test run above;
# invoking them by name makes a chaos/corruption/determinism regression
# fail loudly on its own line instead of disappearing into the
# full-workspace summary.
run cargo test -q --offline -p wikistale-cli --test chaos
run cargo test -q --offline -p wikistale-wikicube binio
# CRC gate: the carry-less-multiply kernel against the slicing-by-8 table
# it falls back to (random bytes at unaligned offsets, every two-way split
# of 200 bytes, zlib's check values).
run cargo test -q --offline -p wikistale-wikicube crc32
run cargo test -q --offline -p wikistale-cli --test differential

# Execution-layer gates: the scheduler's unit suite (task order across
# worker counts, exactly-once claims, panic propagation, pool metrics)
# and the `parallel/<label>/…` metric recording it reports through, so an
# engine regression fails on its own line.
run cargo test -q --offline -p wikistale-exec
run cargo test -q --offline -p wikistale-obs parallel

# Columnar data plane: the row-vs-columnar differential tests live in the
# differential suite above; this names them so a day-list or rebuild
# regression fails on its own line.
run cargo test -q --offline -p wikistale-cli --test differential -- \
    day_list columnar weekly_transactions

# Day-list gates: the slice store's unit and property tests (round trip,
# field order and positions, kind filters, `in_range` and `changed_in`),
# the mean baseline's forecast jump against its per-window reference
# (synth tiny and small at 1/7/30/365 days, the hand-built fixtures, a
# forecast a float hair below a window start, and random histories and
# gaps at 1 to 365 days), and the build heap bound (at most 2x the
# finished store on synth small, raw and paper-filtered).
run cargo test -q --offline -p wikistale-wikicube daylist
run cargo test -q --offline -p wikistale-core mean_baseline
run cargo test -q --offline -p wikistale-bench --test daylist_heap

# Cube-constructor gates: `from_parts` against the row path it replaced
# (random unsorted columns with same-day duplicate keys, empty,
# canonical and all-duplicate inputs, dangling ids), binio decoding of
# unsorted/duplicate change sections and bad kinds or ids, and the
# decode heap bound (at most 1.5x the change table on synth small).
run cargo test -q --offline -p wikistale-wikicube from_parts
run cargo test -q --offline -p wikistale-wikicube binio::tests::decode_
run cargo test -q --offline -p wikistale-bench --test decode_heap

# Filter gates: the two-pass filter against its staged reference (random
# cubes under all 8 stage configurations, synth tiny and small), the
# canonical-form invariant that lets the pipeline skip a same-day stage,
# and the cross-crate filter properties (idempotence, monotonicity).
run cargo test -q --offline -p wikistale-core filters
run cargo test -q --offline -p wikistale-bench --test props filter

# Ingest gates: the page scanner's unit suite (linear time on a long
# page, pages straddling reads, UTF-8 and `<page/>` handling) and the
# XML round trip of a synthetic corpus through export, scan, and diff.
run cargo test -q --offline -p wikistale-wikitext
run cargo test -q --offline -p wikistale-bench --test roundtrip

# Revision-diff gates: the borrowed differ against the string-based
# reference it replaced (random page histories with duplicate keys,
# whitespace and template spelling variants, several boxes of one
# template, removed and re-added boxes and parameters, comments and
# same-day revisions; identical `binio` bytes), and the template scanner
# against the reference scanner on brace-heavy text, including the O(1)
# rejection of unclosed `{{` and 1 MB of unclosed templates in linear
# time.
run cargo test -q --offline -p wikistale-wikitext diff::tests
run cargo test -q --offline -p wikistale-wikitext -- \
    brace unclosed_templates_extract_in_linear_time

# Rule-mining gates: `AssociationRulePredictor::train` against its
# row-scan reference (weekly transactions from the change rows, brute-force
# pair counts per template, holdout validation) on synth tiny and small
# with the default parameters and the paper's 48-point grid, bit-identical
# rules; and the unary pair-count miner against its brute-force oracle.
run cargo test -q --offline -p wikistale-core rules_match_row_scan_reference
run cargo test -q --offline -p wikistale-apriori

# Banner gate: the per-field staleness banner (`scoring::stale_flags`)
# against the whole-cube OR-ensemble reference it replaced, on synth tiny
# and small at 1/7/30/365-day windows, seasonal off and on, for the whole
# cube and per page.
run cargo test -q --offline -p wikistale-core banners_match

# Serving gates: the query server's unit suite (admission, cache,
# deadline, byte-determinism) plus the end-to-end suite that drives the
# real binary over loopback TCP.
run cargo test -q --offline -p wikistale-serve
run cargo test -q --offline -p wikistale-cli --test serve_e2e

# The lossy-parsing, persistence, and serving code paths promise "typed
# error or quarantine entry, never a panic" — a stray unwrap()/expect()
# in them breaks that contract. Scan non-test, non-comment lines
# (everything before the #[cfg(test)] module) of the fault-tolerant
# surfaces. testutil.rs is cfg(test)-gated at the module level in
# lib.rs, so it is exempt.
echo "==> forbid unwrap()/expect() in fault-tolerant code paths"
violations=$(
    for f in crates/wikitext/src/*.rs crates/wikicube/src/binio.rs \
             crates/wikicube/src/daylist.rs crates/wikicube/src/cube.rs \
             crates/serve/src/*.rs; do
        [ "$(basename "$f")" = "testutil.rs" ] && continue
        awk '/#\[cfg\(test\)\]/ { exit }
             !/^[[:space:]]*\/\// && (/\.unwrap\(\)/ || /\.expect\(/) {
                 print FILENAME ":" FNR ": " $0
             }' "$f"
    done
)
if [ -n "$violations" ]; then
    echo "$violations"
    echo "verify: unwrap()/expect() are forbidden in lossy-parsing and persistence code"
    exit 1
fi

echo "verify: all gates green"
