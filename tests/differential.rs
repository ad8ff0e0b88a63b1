//! Serial-vs-parallel differential suite.
//!
//! The execution layer (`wikistale-exec`) promises that artifact bytes
//! are a pure function of the input and the per-call-site chunk size —
//! never of the worker count or the scheduling order. This suite pins
//! that promise for every parallelized stage: cube building (sort +
//! index), rule-mining pair counting, field-correlation pairing, truth
//! sets / prediction sets, and the final experiment report, across
//! seeds × thread counts {1, 2, 4, 7} × chunk sizes including the
//! adversarial ones (1, len−1, > len).
//!
//! In-process tests pin the global configuration with
//! [`wikistale_exec::override_scope`], whose guard also holds a global
//! lock — the cargo test runner executes tests of this binary
//! concurrently, and the thread/chunk overrides are process-wide.
//! Subprocess tests (the `wikistale` binary) need no lock: each child
//! resolves its own `--threads`.
//!
//! Reproducing a failure: every in-process case states its seed and
//! (threads, chunk) pair in the assertion message; proptest cases
//! re-run exactly with `PROPTEST_CASE=<n>` (see vendor/README.md).

use proptest::prelude::*;
use std::path::PathBuf;
use std::process::{Command, Output};
use wikistale_apriori::{mine, AprioriParams, Support, TransactionSet};
use wikistale_core::experiment::{run_paper_evaluation, ExperimentConfig, TrainedPredictors};
use wikistale_core::filters::FilterPipeline;
use wikistale_core::predictors::{FieldCorrelation, FieldCorrelationParams};
use wikistale_core::report;
use wikistale_core::scoring::predict_all;
use wikistale_core::split::EvalSplit;
use wikistale_core::{truth_set, EvalData, GRANULARITIES};
use wikistale_synth::{generate, SynthConfig};
use wikistale_wikicube::{binio, ChangeCube, ChangeCubeBuilder, ChangeKind, CubeIndex, Date};

/// Thread counts the issue pins: serial, even, the machine default, odd.
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// Run `f` with a pinned (threads, chunk override) configuration.
/// `chunk == 0` keeps each call site's own chunk size.
fn with_exec<T>(threads: usize, chunk: usize, f: impl FnOnce() -> T) -> T {
    let _guard = wikistale_exec::override_scope(threads, chunk);
    f()
}

/// The adversarial chunk sizes for an input of length `len`: default,
/// single-element chunks, one-short-of-everything, more than everything.
fn adversarial_chunks(len: usize) -> Vec<usize> {
    vec![0, 1, len.saturating_sub(1).max(1), len + 7]
}

fn wikistale(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wikistale"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wikistale-diff-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// An unsorted batch of change rows exercising the parallel stable sort
/// (same-day same-slot duplicates included, so last-wins dedup order
/// matters).
fn build_cube(rows: &[(i32, usize, usize, u8, String)]) -> ChangeCube {
    let mut b = ChangeCubeBuilder::new();
    let entities: Vec<_> = (0..6)
        .map(|i| {
            b.entity(
                &format!("e{i}"),
                &format!("t{}", i % 3),
                &format!("pg{}", i % 4),
            )
        })
        .collect();
    let props: Vec<_> = (0..5).map(|i| b.property(&format!("p{i}"))).collect();
    for (day, e, p, kind, value) in rows {
        let kind = match kind % 3 {
            0 => ChangeKind::Create,
            1 => ChangeKind::Update,
            _ => ChangeKind::Delete,
        };
        b.change(
            Date::EPOCH + *day,
            entities[e % entities.len()],
            props[p % props.len()],
            value,
            kind,
        );
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stage 0, the engine itself: fixed chunking partitions identically
    /// for every thread count, including adversarial chunk sizes.
    #[test]
    fn exec_chunk_results_independent_of_threads(
        items in proptest::collection::vec(0u64..1_000_000, 1..400),
    ) {
        for chunk in adversarial_chunks(items.len()) {
            let effective = if chunk == 0 { 16 } else { chunk };
            let reference: Vec<u64> = items
                .chunks(effective)
                .map(|c| c.iter().sum::<u64>())
                .collect();
            for threads in THREADS {
                let got = with_exec(threads, 0, || {
                    wikistale_exec::par_chunks("diff_exec", &items, effective, |c| {
                        c.iter().sum::<u64>()
                    })
                });
                prop_assert_eq!(
                    &got, &reference,
                    "threads={} chunk={}", threads, effective
                );
            }
        }
    }

    /// Stage 1, cube building: the bytes of a built cube, including the
    /// last-wins collapse of same-day writes to one slot, do not depend
    /// on the thread count or the chunk size. `from_parts` sorts on one
    /// thread, so this pins that no parallel stage leaks into the
    /// canonical form.
    #[test]
    fn cube_bytes_independent_of_threads(
        rows in proptest::collection::vec(
            (0i32..1_500, 0usize..6, 0usize..5, 0u8..3, "[a-z0-9]{0,6}"),
            1..200,
        ),
    ) {
        let reference = with_exec(1, 0, || binio::encode(&build_cube(&rows)));
        for chunk in adversarial_chunks(rows.len()) {
            for threads in [2, 4, 7] {
                let got = with_exec(threads, chunk, || binio::encode(&build_cube(&rows)));
                prop_assert_eq!(
                    &got, &reference,
                    "threads={} chunk={}", threads, chunk
                );
            }
        }
    }

    /// Stage 2, rule mining: sharded item and pair counting merges to the
    /// exact serial rule list (counts, support, confidence) for every
    /// thread count and chunking.
    #[test]
    fn mined_itemsets_independent_of_threads(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u32..12, 0..8),
            1..60,
        ),
        support in 1u64..4,
    ) {
        let mut builder = TransactionSet::builder();
        for row in &rows {
            let mut items = row.clone();
            items.sort_unstable();
            items.dedup();
            builder.push(items.into_iter());
        }
        let ts = builder.finish();
        let params = AprioriParams {
            min_support: Support::Count(support),
            min_confidence: 0.0,
        };
        let reference = with_exec(1, 0, || mine(&ts, &params));
        for chunk in adversarial_chunks(ts.len()) {
            for threads in [2, 4, 7] {
                let got = with_exec(threads, chunk, || mine(&ts, &params));
                prop_assert_eq!(
                    &got, &reference,
                    "threads={} chunk={}", threads, chunk
                );
            }
        }
    }
}

/// Stage 1b, the full synth → filter path through the binary format:
/// generated and filtered cube bytes across seeds × threads × chunks.
#[test]
fn synth_and_filter_bytes_independent_of_threads() {
    for seed in [1u64, 7, 42] {
        let config = SynthConfig {
            seed,
            ..SynthConfig::tiny()
        };
        let reference = with_exec(1, 0, || {
            let corpus = generate(&config);
            let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
            (binio::encode(&corpus.cube), binio::encode(&filtered))
        });
        for (threads, chunk) in [(2, 0), (4, 0), (7, 0), (2, 1), (4, 13), (7, 1_000_000)] {
            let got = with_exec(threads, chunk, || {
                let corpus = generate(&config);
                let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
                (binio::encode(&corpus.cube), binio::encode(&filtered))
            });
            assert_eq!(
                got, reference,
                "seed={seed} threads={threads} chunk={chunk}"
            );
        }
    }
}

/// Stage 3, field correlation: the trained partner lists (the model
/// itself, not just its predictions) across threads × chunks.
#[test]
fn correlation_partners_independent_of_threads() {
    for seed in [3u64, 11] {
        let config = SynthConfig {
            seed,
            ..SynthConfig::tiny()
        };
        let corpus = generate(&config);
        let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
        let split = EvalSplit::for_span(filtered.time_span().unwrap()).unwrap();
        let partners_at = |threads: usize, chunk: usize| {
            with_exec(threads, chunk, || {
                let index = CubeIndex::build(&filtered);
                let data = EvalData::new(&filtered, &index);
                let fc =
                    FieldCorrelation::train(&data, split.train, FieldCorrelationParams::default());
                let lists: Vec<Vec<u32>> = (0..index.num_fields())
                    .map(|pos| fc.partners_of(pos as u32).to_vec())
                    .collect();
                (fc.num_rules(), fc.num_correlated_fields(), lists)
            })
        };
        let reference = partners_at(1, 0);
        for (threads, chunk) in [(2, 0), (4, 1), (7, 13), (4, 1_000_000)] {
            assert_eq!(
                partners_at(threads, chunk),
                reference,
                "seed={seed} threads={threads} chunk={chunk}"
            );
        }
    }
}

/// Stage 4, the evaluation sweep: truth sets, every granularity's
/// exact prediction sets, the PaperResults and the rendered report
/// across threads × chunks.
#[test]
fn evaluation_results_independent_of_threads() {
    let corpus = generate(&SynthConfig::tiny());
    let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
    let split = EvalSplit::for_span(filtered.time_span().unwrap()).unwrap();
    let config = ExperimentConfig::default();
    let evaluate_at = |threads: usize, chunk: usize| {
        with_exec(threads, chunk, || {
            let index = CubeIndex::build(&filtered);
            let truth = truth_set(&index, split.test, 7);
            let data = EvalData::new(&filtered, &index);
            let predictors = TrainedPredictors::train(&data, split.train_and_validation(), &config);
            let predicted: Vec<_> = GRANULARITIES
                .iter()
                .map(|&g| predict_all(&data, &predictors, split.test, g))
                .collect();
            let results = run_paper_evaluation(&filtered, &split, &config);
            let rendered = format!(
                "{}\n{}\n{}",
                report::render_table1(&results),
                report::render_overlap(&results),
                report::render_figure3(&results)
            );
            (truth.items().to_vec(), results, rendered, predicted)
        })
    };
    let reference = evaluate_at(1, 0);
    for (threads, chunk) in [(2, 0), (4, 0), (7, 0), (2, 1), (4, 97)] {
        let got = evaluate_at(threads, chunk);
        assert_eq!(got.0, reference.0, "truth threads={threads} chunk={chunk}");
        assert_eq!(
            got.1, reference.1,
            "results threads={threads} chunk={chunk}"
        );
        assert_eq!(got.2, reference.2, "report threads={threads} chunk={chunk}");
        assert_eq!(
            got.3, reference.3,
            "predicted sets threads={threads} chunk={chunk}"
        );
    }
}

/// CLI end to end: `experiment` stdout and checkpoint artifact bytes are
/// identical at every `--threads` value.
#[test]
fn cli_experiment_stdout_and_artifacts_independent_of_threads() {
    let dir = tmpdir("artifacts");
    let run_at = |threads: &str, sub: &str| {
        let ckpt = dir.join(sub);
        let ckpt = ckpt.to_str().unwrap().to_owned();
        let out = wikistale(&[
            "experiment",
            "--preset",
            "tiny",
            "--seed",
            "5",
            "--threads",
            threads,
            "--checkpoint-dir",
            &ckpt,
        ]);
        assert!(out.status.success(), "threads={threads}: {out:?}");
        (stdout_of(&out), ckpt)
    };
    let (ref_stdout, ref_ckpt) = run_at("1", "t1");
    for threads in ["2", "4", "7"] {
        let (got_stdout, got_ckpt) = run_at(threads, &format!("t{threads}"));
        assert_eq!(
            got_stdout, ref_stdout,
            "stdout differs at --threads {threads}"
        );
        for stage in ["generate.wcube", "filter.wcube"] {
            let reference = std::fs::read(PathBuf::from(&ref_ckpt).join(stage)).unwrap();
            let got = std::fs::read(PathBuf::from(&got_ckpt).join(stage)).unwrap();
            assert_eq!(
                got, reference,
                "artifact {stage} differs at --threads {threads}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoints cross thread counts: artifacts written at `--threads 1`
/// resume under `--threads 4` and vice versa, reproducing the reference
/// stdout byte for byte. (The fingerprint deliberately excludes the
/// thread count.)
#[test]
fn checkpoint_resume_crosses_thread_counts() {
    let reference = {
        let out = wikistale(&["experiment", "--preset", "tiny", "--seed", "9"]);
        assert!(out.status.success());
        stdout_of(&out)
    };
    for (first, second) in [("1", "4"), ("4", "1")] {
        let dir = tmpdir(&format!("xresume-{first}-{second}"));
        let ckpt = dir.to_str().unwrap();
        let crashed = wikistale(&[
            "experiment",
            "--preset",
            "tiny",
            "--seed",
            "9",
            "--threads",
            first,
            "--checkpoint-dir",
            ckpt,
            "--crash-after",
            "train",
        ]);
        assert_eq!(crashed.status.code(), Some(42), "expected simulated crash");
        let resumed = wikistale(&[
            "experiment",
            "--preset",
            "tiny",
            "--seed",
            "9",
            "--threads",
            second,
            "--checkpoint-dir",
            ckpt,
            "--resume",
        ]);
        assert!(resumed.status.success(), "{resumed:?}");
        let err = String::from_utf8_lossy(&resumed.stderr).into_owned();
        assert!(
            err.contains("resume: reusing checkpointed"),
            "resume did not reuse artifacts: {err}"
        );
        assert_eq!(
            stdout_of(&resumed),
            reference,
            "--threads {first} checkpoint resumed at --threads {second} diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Row-vs-columnar differential: the columnar change table and the shared
// day-list store (sorted day slices) against straight row-layout
// reference implementations, at --threads {1, 4}.

/// Reference day lists computed the pre-columnar way: scan every change
/// row of `kinds` and bucket its day under the (entity, property) field.
fn reference_day_lists(
    cube: &ChangeCube,
    kinds: &[ChangeKind],
) -> std::collections::BTreeMap<wikistale_wikicube::FieldId, Vec<Date>> {
    let mut map: std::collections::BTreeMap<wikistale_wikicube::FieldId, Vec<Date>> =
        std::collections::BTreeMap::new();
    for c in cube.iter_changes().filter(|c| kinds.contains(&c.kind)) {
        let days = map.entry(c.field()).or_default();
        if days.last() != Some(&c.day) {
            days.push(c.day);
        }
    }
    map
}

/// Assert that `store` holds exactly the `reference` day lists — fields,
/// order and every day — and that `position` finds each field and
/// nothing else.
fn assert_store_matches(
    store: &wikistale_wikicube::DayListStore,
    reference: &std::collections::BTreeMap<wikistale_wikicube::FieldId, Vec<Date>>,
    what: &str,
) {
    use wikistale_wikicube::{EntityId, FieldId, PropertyId};
    assert_eq!(store.num_fields(), reference.len(), "{what}");
    assert_eq!(
        store.total_days(),
        reference.values().map(Vec::len).sum::<usize>(),
        "{what}"
    );
    for ((pos, field, list), (ref_field, expected)) in store.iter().zip(reference) {
        assert_eq!(field, *ref_field, "{what} field #{pos}");
        assert_eq!(list, expected.as_slice(), "{what} field #{pos}");
    }
    for (field, expected) in reference {
        let pos = store.position(*field);
        assert_eq!(pos.map(|p| store.field(p)), Some(*field), "{what}");
        assert_eq!(store.get(*field), Some(expected.as_slice()), "{what}");
    }
    // A property absent on an entity that has fields, and an entity past
    // the last field.
    let (first, last) = (store.fields()[0], store.fields()[store.num_fields() - 1]);
    let absent = (0..)
        .map(|p| FieldId::new(first.entity, PropertyId(p)))
        .find(|f| !reference.contains_key(f))
        .unwrap();
    assert_eq!(store.position(absent), None, "{what}");
    let past = FieldId::new(EntityId(last.entity.0 + 1), PropertyId(0));
    assert_eq!(store.position(past), None, "{what}");
}

/// The shared day-list store holds exactly the day lists a row scan
/// produces, at every thread count: the cube's all-kinds store on the raw
/// and the paper-filtered cube, and the kind-filtered stores an index
/// builds on the raw cube.
#[test]
fn day_list_store_matches_row_scan() {
    use ChangeKind::{Create, Delete, Update};
    for seed in [2u64, 13] {
        let config = SynthConfig {
            seed,
            ..SynthConfig::tiny()
        };
        for threads in [1usize, 4] {
            let (raw, filtered, by_kinds) = with_exec(threads, 0, || {
                let corpus = generate(&config);
                let filtered = FilterPipeline::paper().apply(&corpus.cube).0;
                let by_kinds: Vec<(&[ChangeKind], CubeIndex)> = [&[Update][..], &[Create, Delete]]
                    .into_iter()
                    .map(|kinds| (kinds, CubeIndex::build_for_kinds(&corpus.cube, kinds)))
                    .collect();
                (corpus.cube, filtered, by_kinds)
            });
            for (name, cube) in [("raw", &raw), ("filtered", &filtered)] {
                let reference = reference_day_lists(cube, &[Create, Update, Delete]);
                let what = format!("seed={seed} threads={threads} {name}");
                assert_store_matches(cube.day_lists(), &reference, &what);
            }
            for (kinds, index) in &by_kinds {
                let reference = reference_day_lists(&raw, kinds);
                let what = format!("seed={seed} threads={threads} raw {kinds:?}");
                assert_store_matches(index.day_lists(), &reference, &what);
            }
        }
    }
}

/// Rebuilding a cube from its materialized rows (`changes_vec` →
/// `with_changes`, which collects the rows into columns for the cube
/// constructor) reproduces the binio artifact byte for byte, at
/// --threads {1, 4}.
#[test]
fn columnar_rebuild_from_rows_is_byte_identical() {
    let corpus = generate(&SynthConfig::tiny());
    let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
    for cube in [&corpus.cube, &filtered] {
        let reference = binio::encode(cube);
        for threads in [1usize, 4] {
            let rebuilt = with_exec(threads, 0, || {
                cube.with_changes(cube.changes_vec())
                    .expect("ids are valid")
            });
            assert_eq!(
                binio::encode(&rebuilt),
                reference,
                "row-rebuilt cube bytes diverged at threads={threads}"
            );
        }
    }
}

/// The weekly association-rule transactions read from the shared day
/// store match the pre-columnar row-scan reference exactly.
#[test]
fn weekly_transactions_from_day_store_match_row_scan() {
    use std::collections::{BTreeMap, BTreeSet};
    use wikistale_wikicube::{EntityId, PropertyId};
    let corpus = generate(&SynthConfig::tiny());
    let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
    let range = filtered.time_span().unwrap();
    // Row reference: scan every change, bucket into 7-day windows.
    let mut reference: BTreeMap<(EntityId, u32), BTreeSet<PropertyId>> = BTreeMap::new();
    for c in filtered.changes_in(range) {
        let week = (c.day - range.start()) as u32 / 7;
        reference
            .entry((c.entity, week))
            .or_default()
            .insert(c.property);
    }
    // Day-store walk: what the association-rule trainer reads.
    let mut got: BTreeMap<(EntityId, u32), BTreeSet<PropertyId>> = BTreeMap::new();
    for (_, field, list) in filtered.day_lists().iter() {
        for &day in wikistale_wikicube::daylist::in_range(list, range) {
            let week = (day - range.start()) as u32 / 7;
            got.entry((field.entity, week))
                .or_default()
                .insert(field.property);
        }
    }
    assert_eq!(got, reference);
}

/// Scheduling-order stress: many repetitions at an odd worker count with
/// single-element chunks — the configuration most likely to surface a
/// merge-order or termination bug. Run with
/// `cargo test -q --test differential -- --ignored stress`.
#[test]
#[ignore = "stress leg: run explicitly via -- --ignored stress"]
fn stress_scheduling_orders_never_change_results() {
    let corpus = generate(&SynthConfig::tiny());
    let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
    let split = EvalSplit::for_span(filtered.time_span().unwrap()).unwrap();
    let reference = with_exec(1, 0, || {
        run_paper_evaluation(&filtered, &split, &ExperimentConfig::default())
    });
    for round in 0..12 {
        for (threads, chunk) in [(7, 1), (4, 3), (2, 1)] {
            let got = with_exec(threads, chunk, || {
                run_paper_evaluation(&filtered, &split, &ExperimentConfig::default())
            });
            assert_eq!(
                got, reference,
                "round={round} threads={threads} chunk={chunk}"
            );
        }
    }
    // The raw engine, hammered with single-element chunks and uneven
    // workloads.
    let items: Vec<u64> = (0..10_000).collect();
    let expected: Vec<u64> = items.iter().map(|&i| i * 2).collect();
    for round in 0..25 {
        let got = with_exec(7, 0, || {
            wikistale_exec::par_chunks("diff_stress", &items, 1, |c| {
                if c[0] % 997 == 0 {
                    std::thread::yield_now();
                }
                c[0] * 2
            })
        });
        assert_eq!(got, expected, "round={round}");
    }
}
