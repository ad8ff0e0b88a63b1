//! Ingestion round trip: a filtered synthetic corpus is rendered into a
//! MediaWiki XML export (page revision histories with real wikitext
//! infoboxes), re-parsed, and re-diffed — the result must reproduce the
//! original per-field update histories. This exercises every layer of the
//! `wikistale-wikitext` substrate against generator-scale data.

use wikistale_core::filters::FilterPipeline;
use wikistale_synth::{generate, SynthConfig};
use wikistale_wikicube::{ChangeCube, ChangeKind, Date};
use wikistale_wikitext::{build_cube, cube_to_dump, parse_export, render_export};

/// Per-field history as (page, property) → ordered (day, value) pairs,
/// independent of interner numbering.
fn histories(
    cube: &ChangeCube,
) -> std::collections::BTreeMap<(String, String), Vec<(Date, String)>> {
    let mut map: std::collections::BTreeMap<(String, String), Vec<(Date, String)>> =
        Default::default();
    for c in cube.iter_changes() {
        let key = (
            cube.page_title(cube.page_of(c.entity)).to_owned(),
            format!(
                "{}::{}",
                cube.template_name(cube.template_of(c.entity)),
                cube.property_name(c.property)
            ),
        );
        map.entry(key)
            .or_default()
            .push((c.day, cube.value_text(c.value).to_owned()));
    }
    map
}

#[test]
fn filtered_corpus_survives_xml_round_trip() {
    let corpus = generate(&SynthConfig::tiny());
    let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
    assert!(filtered.num_changes() > 1_000, "need a meaningful corpus");

    // Render → serialize → parse → diff.
    let pages = cube_to_dump(&filtered);
    let xml = render_export(&pages);
    let parsed = parse_export(&xml).expect("our own export must parse");
    assert_eq!(parsed.len(), pages.len());
    let rebuilt = build_cube(&parsed);

    // The rebuilt cube sees each field appear (create) at its first
    // filtered change and update afterwards; deletes cannot occur because
    // the filtered corpus is update-only and values never repeat
    // consecutively.
    assert!(rebuilt.iter_changes().all(|c| c.kind != ChangeKind::Delete));

    let original = histories(&filtered);
    let roundtripped = histories(&rebuilt);
    assert_eq!(original.len(), roundtripped.len(), "field set differs");
    for (key, expected) in &original {
        let got = &roundtripped[key];
        assert_eq!(got, expected, "history differs for {key:?}");
    }

    // Kind structure: per field, exactly one leading create.
    let mut first_seen = std::collections::HashSet::new();
    for c in rebuilt.iter_changes() {
        let is_first = first_seen.insert(c.field());
        assert_eq!(
            c.kind,
            if is_first {
                ChangeKind::Create
            } else {
                ChangeKind::Update
            },
            "kind structure broken at {c:?}"
        );
    }
}

#[test]
fn raw_corpus_with_deletes_round_trips_after_dedup() {
    // With every filter stage off (same-day writes are already collapsed
    // by cube construction) and creations and deletions kept, the
    // round trip must reproduce the *liveness* of every field: present
    // fields match values; deleted fields are absent from the final
    // snapshot either way.
    let corpus = generate(&SynthConfig::tiny());
    let dedup_only = FilterPipeline {
        drop_bot_reverted: false,
        drop_creations_deletions: false,
        min_changes: None,
    };
    let (deduped, _) = dedup_only.apply(&corpus.cube);
    let pages = cube_to_dump(&deduped);
    let rebuilt = build_cube(&parse_export(&render_export(&pages)).unwrap());

    // Compare final states: replay both cubes' histories.
    let final_state = |cube: &ChangeCube| {
        let mut state: std::collections::BTreeMap<(String, String), Option<String>> =
            Default::default();
        for c in cube.iter_changes() {
            let key = (
                cube.entity_name(c.entity).to_owned(),
                cube.property_name(c.property).to_owned(),
            );
            match c.kind {
                ChangeKind::Delete => {
                    state.insert(key, None);
                }
                _ => {
                    state.insert(key, Some(cube.value_text(c.value).to_owned()));
                }
            }
        }
        state
    };
    let a = final_state(&deduped);
    let b = final_state(&rebuilt);
    // Entity naming differs (`title § template`), so compare per
    // (page, property) via value multisets of live fields.
    let live = |m: &std::collections::BTreeMap<(String, String), Option<String>>| {
        let mut values: Vec<String> = m.values().flatten().cloned().collect();
        values.sort();
        values
    };
    assert_eq!(
        live(&a),
        live(&b),
        "live field values differ after round trip"
    );
}
