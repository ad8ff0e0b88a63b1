//! Revision differencing: page histories → change-cube tuples.
//!
//! For every page, consecutive revision snapshots are compared infobox by
//! infobox and parameter by parameter:
//!
//! * a parameter appearing for the first time (or a whole new infobox)
//!   emits a **create**,
//! * a parameter whose value differs from the previous snapshot emits an
//!   **update**,
//! * a missing parameter (or a removed infobox) emits a **delete**.
//!
//! Infobox *identity* across revisions follows Bleifuß et al. (ICDE 2021)
//! in spirit, simplified to the stable case: boxes are matched by template
//! name and occurrence index within the page. Entity names are
//! `title § template #k` so a page hosting several infoboxes (the paper's
//! Beale-family example) yields distinct entities on one page.

use crate::infobox::{canonical_template_name, extract_infoboxes};
use crate::xml::PageDump;
use std::collections::HashMap;
use wikistale_wikicube::{ChangeCube, ChangeCubeBuilder, ChangeKind, EntityId};

/// Diff all pages' revision histories into a change cube.
pub fn build_cube(pages: &[PageDump]) -> ChangeCube {
    let mut acc = CubeAccumulator::new();
    for page in pages {
        acc.add_page(page);
    }
    acc.finish()
}

/// Incremental cube construction for streamed dumps: feed pages one at a
/// time (e.g. from [`crate::stream::PageStream`]) without materializing
/// the whole dump.
#[derive(Debug, Default)]
pub struct CubeAccumulator {
    builder: ChangeCubeBuilder,
    pages_seen: usize,
}

impl CubeAccumulator {
    /// Start an empty accumulator.
    pub fn new() -> CubeAccumulator {
        CubeAccumulator::default()
    }

    /// Diff one page's revisions into the cube under construction.
    pub fn add_page(&mut self, page: &PageDump) -> &mut Self {
        diff_page(&mut self.builder, page);
        self.pages_seen += 1;
        self
    }

    /// Pages processed so far.
    pub fn pages_seen(&self) -> usize {
        self.pages_seen
    }

    /// Changes accumulated so far.
    pub fn num_changes(&self) -> usize {
        self.builder.num_changes()
    }

    /// Finalize into a canonical cube.
    pub fn finish(self) -> ChangeCube {
        self.builder.finish()
    }
}

/// Whether `title` is a main-namespace (article) page. Real dumps include
/// Talk:, User:, Template:, … pages; infobox *instances* live on articles,
/// so ingestion normally skips the rest (MediaWiki namespace prefixes are
/// reserved and cannot start an article title).
pub fn is_article_title(title: &str) -> bool {
    const NAMESPACE_PREFIXES: [&str; 14] = [
        "Talk:",
        "User:",
        "User talk:",
        "Wikipedia:",
        "Wikipedia talk:",
        "File:",
        "File talk:",
        "MediaWiki:",
        "Template:",
        "Template talk:",
        "Help:",
        "Category:",
        "Portal:",
        "Draft:",
    ];
    !NAMESPACE_PREFIXES
        .iter()
        .any(|prefix| title.starts_with(prefix))
}

/// Key identifying one infobox within a page across revisions: the slot
/// of its canonical template name in [`PageMemo::canonical`] and its
/// occurrence index among the revision's boxes of that template.
type BoxKey = (usize, usize);

/// A parsed revision: its infoboxes' keys and parameters.
type Snapshot = Vec<(BoxKey, Vec<(String, String)>)>;

/// What [`diff_page`] derives from template names, memoized for one
/// page: its revisions mostly repeat the same boxes, so canonical names
/// and entity ids are worked out once per page, not once per revision.
#[derive(Default)]
struct PageMemo {
    /// Template names as written, with their slot in `canonical`. The
    /// names come from the dump, so the map keeps the default hasher.
    spellings: HashMap<String, usize>,
    /// Canonical template names, in order of first sight.
    canonical: Vec<String>,
    /// Registered entities by box key.
    entities: HashMap<BoxKey, EntityId>,
}

impl PageMemo {
    /// Slot of the canonical form of the template name `written`.
    fn template(&mut self, written: &str) -> usize {
        if let Some(&slot) = self.spellings.get(written) {
            return slot;
        }
        let canonical = canonical_template_name(written);
        let slot = match self.canonical.iter().position(|c| *c == canonical) {
            Some(slot) => slot,
            None => {
                self.canonical.push(canonical);
                self.canonical.len() - 1
            }
        };
        self.spellings.insert(written.to_owned(), slot);
        slot
    }

    /// The entity of box `key` on the page titled `title`, registered
    /// with `builder` on first use.
    fn entity(&mut self, builder: &mut ChangeCubeBuilder, title: &str, key: BoxKey) -> EntityId {
        if let Some(&entity) = self.entities.get(&key) {
            return entity;
        }
        let template = &self.canonical[key.0];
        let entity = builder.entity(&entity_name(title, template, key.1), template, title);
        self.entities.insert(key, entity);
        entity
    }
}

fn diff_page(builder: &mut ChangeCubeBuilder, page: &PageDump) {
    // Snapshots keep parameters in source order so interning — and hence
    // the produced cube — is deterministic for a given input.
    let mut memo = PageMemo::default();
    let mut prev: Snapshot = Vec::new();
    let mut occurrence: Vec<usize> = Vec::new();
    for rev in &page.revisions {
        let mut current: Snapshot = Vec::new();
        occurrence.clear();
        for infobox in extract_infoboxes(&rev.text) {
            // Identity is the canonical template name, so casing or
            // underscore variations across revisions do not fragment a
            // field's history into several entities.
            let template = memo.template(&infobox.template);
            if occurrence.len() <= template {
                occurrence.resize(template + 1, 0);
            }
            current.push(((template, occurrence[template]), infobox.params));
            occurrence[template] += 1;
        }

        let lookup =
            |snapshot: &Snapshot, key: &BoxKey| snapshot.iter().position(|(k, _)| k == key);

        // Creates, updates, and per-parameter deletes.
        for (key, params) in &current {
            let entity = memo.entity(builder, &page.title, *key);
            let old = lookup(&prev, key).map(|i| &prev[i].1);
            for (param, value) in params {
                let property = builder.property(param);
                let old_value =
                    old.and_then(|o| o.iter().find(|(k, _)| k == param).map(|(_, v)| v.as_str()));
                match old_value {
                    None => {
                        builder.change(rev.date, entity, property, value, ChangeKind::Create);
                    }
                    Some(old_value) if old_value != value => {
                        builder.change(rev.date, entity, property, value, ChangeKind::Update);
                    }
                    Some(_) => {}
                }
            }
            if let Some(old) = old {
                for (param, _) in old {
                    if !params.iter().any(|(k, _)| k == param) {
                        let property = builder.property(param);
                        builder.change(rev.date, entity, property, "", ChangeKind::Delete);
                    }
                }
            }
        }

        // Whole infoboxes that disappeared.
        for (key, old_params) in &prev {
            if lookup(&current, key).is_none() {
                let entity = memo.entity(builder, &page.title, *key);
                for (param, _) in old_params {
                    let property = builder.property(param);
                    builder.change(rev.date, entity, property, "", ChangeKind::Delete);
                }
            }
        }

        prev = current;
    }
}

fn entity_name(title: &str, template: &str, occurrence: usize) -> String {
    if occurrence == 0 {
        format!("{title} § {template}")
    } else {
        format!("{title} § {template} #{occurrence}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xml::Revision;
    use wikistale_wikicube::Date;

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    fn page(title: &str, revs: Vec<(i32, &str)>) -> PageDump {
        PageDump {
            title: title.to_owned(),
            revisions: revs
                .into_iter()
                .map(|(d, text)| Revision {
                    date: day(d),
                    text: text.to_owned(),
                })
                .collect(),
        }
    }

    #[test]
    fn first_revision_creates_all_fields() {
        let cube = build_cube(&[page(
            "London",
            vec![(0, "{{Infobox settlement | population = 8 | mayor = K}}")],
        )]);
        assert_eq!(cube.num_changes(), 2);
        assert!(cube
            .iter_changes()
            .all(|c| c.kind == ChangeKind::Create && c.day == day(0)));
        let entity = cube.entity_id("London § infobox settlement").unwrap();
        assert_eq!(
            cube.template_name(cube.template_of(entity)),
            "infobox settlement"
        );
        assert_eq!(cube.page_title(cube.page_of(entity)), "London");
    }

    #[test]
    fn value_change_is_an_update() {
        let cube = build_cube(&[page(
            "London",
            vec![
                (0, "{{Infobox settlement | population = 8}}"),
                (5, "{{Infobox settlement | population = 9}}"),
                (9, "{{Infobox settlement | population = 9}}"), // no-op revision
            ],
        )]);
        let kinds: Vec<ChangeKind> = cube.iter_changes().map(|c| c.kind).collect();
        assert_eq!(kinds, vec![ChangeKind::Create, ChangeKind::Update]);
        let update = cube.change_at(1);
        assert_eq!(update.day, day(5));
        assert_eq!(cube.value_text(update.value), "9");
    }

    #[test]
    fn removed_parameter_is_a_delete() {
        let cube = build_cube(&[page(
            "London",
            vec![
                (0, "{{Infobox settlement | population = 8 | mayor = K}}"),
                (3, "{{Infobox settlement | population = 8}}"),
            ],
        )]);
        let deletes: Vec<_> = cube
            .iter_changes()
            .filter(|c| c.kind == ChangeKind::Delete)
            .collect();
        assert_eq!(deletes.len(), 1);
        assert_eq!(cube.property_name(deletes[0].property), "mayor");
        assert_eq!(deletes[0].day, day(3));
    }

    #[test]
    fn removed_infobox_deletes_every_field() {
        let cube = build_cube(&[page(
            "London",
            vec![
                (0, "{{Infobox settlement | a = 1 | b = 2}}"),
                (4, "plain text, box removed"),
            ],
        )]);
        let deletes = cube
            .iter_changes()
            .filter(|c| c.kind == ChangeKind::Delete)
            .count();
        assert_eq!(deletes, 2);
    }

    #[test]
    fn readded_parameter_is_a_create_again() {
        let cube = build_cube(&[page(
            "P",
            vec![
                (0, "{{Infobox x | a = 1}}"),
                (1, "{{Infobox x }}"),
                (2, "{{Infobox x | a = 2}}"),
            ],
        )]);
        let kinds: Vec<ChangeKind> = cube.iter_changes().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            vec![ChangeKind::Create, ChangeKind::Delete, ChangeKind::Create]
        );
    }

    #[test]
    fn multiple_infoboxes_on_one_page_are_distinct_entities() {
        // The Beale-family pattern: several character infoboxes on one
        // page; fields of both belong to the same page for the
        // field-correlation search.
        let text0 = "{{Infobox character | sisters = 2}} {{Infobox character | daughters = 2}}";
        let text1 = "{{Infobox character | sisters = 3}} {{Infobox character | daughters = 3}}";
        let cube = build_cube(&[page("Beale family", vec![(0, text0), (7, text1)])]);
        assert_eq!(cube.num_entities(), 2);
        assert_eq!(cube.num_pages(), 1);
        let e0 = cube.entity_id("Beale family § infobox character").unwrap();
        let e1 = cube
            .entity_id("Beale family § infobox character #1")
            .unwrap();
        assert_eq!(cube.page_of(e0), cube.page_of(e1));
        let updates = cube
            .iter_changes()
            .filter(|c| c.kind == ChangeKind::Update)
            .count();
        assert_eq!(updates, 2);
    }

    #[test]
    fn pages_without_infoboxes_produce_nothing() {
        let cube = build_cube(&[page("Plain", vec![(0, "just text"), (1, "more text")])]);
        assert_eq!(cube.num_changes(), 0);
    }

    #[test]
    fn template_name_variants_share_one_entity() {
        // Casing and underscore drift across revisions must not fragment
        // the history.
        let cube = build_cube(&[page(
            "London",
            vec![
                (0, "{{Infobox settlement | population = 8}}"),
                (5, "{{infobox_Settlement | population = 9}}"),
                (9, "{{Infobox  settlement | population = 10}}"),
            ],
        )]);
        assert_eq!(cube.num_entities(), 1);
        let kinds: Vec<ChangeKind> = cube.iter_changes().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            vec![ChangeKind::Create, ChangeKind::Update, ChangeKind::Update]
        );
    }

    #[test]
    fn article_title_detection() {
        assert!(is_article_title("London"));
        assert!(is_article_title("Premier League"));
        assert!(is_article_title("Filey")); // no false positive on "File"
        assert!(!is_article_title("Talk:London"));
        assert!(!is_article_title("User talk:Example"));
        assert!(!is_article_title("Template:Infobox settlement"));
        assert!(!is_article_title("Category:Cities"));
    }

    #[test]
    fn same_day_revisions_collapse_to_last_value() {
        // The diff emits one change per revision, but cube canonicalization
        // keeps only the day's final write per field (last value wins).
        let cube = build_cube(&[page(
            "P",
            vec![
                (0, "{{Infobox x | a = 1}}"),
                (0, "{{Infobox x | a = 2}}"),
                (0, "{{Infobox x | a = 3}}"),
            ],
        )]);
        assert_eq!(cube.num_changes(), 1);
        let c = cube.change_at(0);
        assert_eq!(c.day, day(0));
        assert_eq!(cube.value_text(c.value), "3");
    }
}
