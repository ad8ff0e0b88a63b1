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
//!
//! A revision is parsed once into a snapshot that copies nothing: each
//! parameter becomes its interned property and the byte range of its value
//! in the revision's comment-stripped text, which the snapshot holds (only
//! the previous and the current revision's are alive). Boxes are matched
//! through an index by template slot and occurrence, and parameters
//! through a table indexed by property id that holds the first occurrence
//! of each property in the old box, so a duplicated key is compared with
//! its first old occurrence. The work per revision is linear in its
//! parameters.

use crate::infobox::{canonical_template_name, infoboxes, strip_comments};
use crate::xml::PageDump;
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use wikistale_wikicube::{ChangeCube, ChangeCubeBuilder, ChangeKind, EntityId, PropertyId};

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
    index: ParamIndex,
    pages_seen: usize,
}

impl CubeAccumulator {
    /// Start an empty accumulator.
    pub fn new() -> CubeAccumulator {
        CubeAccumulator::default()
    }

    /// Diff one page's revisions into the cube under construction.
    pub fn add_page(&mut self, page: &PageDump) -> &mut Self {
        diff_page(&mut self.builder, &mut self.index, page);
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
        // The parameter index is scratch: free it before the builder
        // sorts its columns.
        let CubeAccumulator { builder, index, .. } = self;
        drop(index);
        builder.finish()
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

/// One infobox of a [`Snapshot`]: its identity and its run of
/// [`Snapshot::params`].
struct SnapshotBox {
    key: BoxKey,
    params: Range<usize>,
}

/// A parsed revision. It holds the revision's comment-stripped text —
/// borrowed from the page unless comments had to be cut out — and every
/// parameter as its interned property and the byte range of its value in
/// that text, so no key or value is copied.
#[derive(Default)]
struct Snapshot<'p> {
    text: Cow<'p, str>,
    /// Infoboxes in document order.
    boxes: Vec<SnapshotBox>,
    /// Parameters of all boxes, in source order.
    params: Vec<(PropertyId, Range<usize>)>,
    /// `by_slot[slot][k]` is the index in `boxes` of occurrence `k` of
    /// template slot `slot`.
    by_slot: Vec<Vec<usize>>,
}

impl<'p> Snapshot<'p> {
    /// Replace the contents with the infoboxes of `text`, interning each
    /// parameter's property in source order.
    fn parse(&mut self, text: &'p str, memo: &mut PageMemo, builder: &mut ChangeCubeBuilder) {
        self.text = strip_comments(text);
        self.boxes.clear();
        self.params.clear();
        self.by_slot.iter_mut().for_each(Vec::clear);
        let Snapshot {
            text,
            boxes,
            params,
            by_slot,
        } = self;
        let base = text.as_ptr() as usize;
        for infobox in infoboxes(text) {
            // Identity is the canonical template name, so casing or
            // underscore variations across revisions do not fragment a
            // field's history into several entities.
            let slot = memo.template(&infobox.name());
            if by_slot.len() <= slot {
                by_slot.resize_with(slot + 1, Vec::new);
            }
            let occurrences = &mut by_slot[slot];
            let key = (slot, occurrences.len());
            occurrences.push(boxes.len());
            let first = params.len();
            for (name, value) in infobox.params() {
                // `value` is a slice of `text`.
                let start = value.as_ptr() as usize - base;
                params.push((builder.property(&name), start..start + value.len()));
            }
            boxes.push(SnapshotBox {
                key,
                params: first..params.len(),
            });
        }
    }

    /// The box with identity `key`, if this revision has it.
    fn find(&self, (slot, occurrence): BoxKey) -> Option<&SnapshotBox> {
        let index = *self.by_slot.get(slot)?.get(occurrence)?;
        Some(&self.boxes[index])
    }

    fn params(&self, infobox: &SnapshotBox) -> &[(PropertyId, Range<usize>)] {
        &self.params[infobox.params.clone()]
    }

    fn value(&self, range: &Range<usize>) -> &str {
        &self.text[range.clone()]
    }
}

/// Where each property sits in the old box of the pair being compared,
/// and which properties the new box has, as tables indexed by
/// [`PropertyId`]. An entry counts only while its stamp is the current
/// one, so moving on to the next pair of boxes clears nothing. The
/// tables grow to the largest property id they meet.
#[derive(Debug, Default)]
struct ParamIndex {
    stamp: u32,
    /// Stamp and the index among the old box's parameters of each
    /// property's first occurrence there.
    first: Vec<(u32, usize)>,
    /// Stamp of the new box's properties.
    seen: Vec<u32>,
}

impl ParamIndex {
    /// Start a new pair of boxes: index `old` by property, keeping each
    /// property's first occurrence.
    fn index_old(&mut self, old: &[(PropertyId, Range<usize>)]) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamps wrapped: entries of a previous round would read as
            // current.
            self.first.fill((0, 0));
            self.seen.fill(0);
            self.stamp = 1;
        }
        for (i, (property, _)) in old.iter().enumerate() {
            let p = property.index();
            if self.first.len() <= p {
                self.first.resize(p + 1, (0, 0));
            }
            if self.first[p].0 != self.stamp {
                self.first[p] = (self.stamp, i);
            }
        }
    }

    /// Mark `property` as present in the new box and return the index of
    /// its first occurrence in the old box, if it has one.
    fn see(&mut self, property: PropertyId) -> Option<usize> {
        let p = property.index();
        if self.seen.len() <= p {
            self.seen.resize(p + 1, 0);
        }
        self.seen[p] = self.stamp;
        match self.first.get(p) {
            Some(&(stamp, i)) if stamp == self.stamp => Some(i),
            _ => None,
        }
    }

    /// Whether the new box has `property`.
    fn seen(&self, property: PropertyId) -> bool {
        self.seen.get(property.index()) == Some(&self.stamp)
    }
}

/// Diff one page's revisions. Changes are emitted per revision in this
/// order, which fixes value ids and which same-day write is last: for
/// each box in document order, its creates and updates in source order
/// and then the deletes of its old parameters in their old order; then
/// the deletes of every box that disappeared.
fn diff_page(builder: &mut ChangeCubeBuilder, index: &mut ParamIndex, page: &PageDump) {
    let mut memo = PageMemo::default();
    let mut prev = Snapshot::default();
    let mut current = Snapshot::default();
    for rev in &page.revisions {
        current.parse(&rev.text, &mut memo, builder);

        // Creates, updates, and per-parameter deletes.
        for infobox in &current.boxes {
            let entity = memo.entity(builder, &page.title, infobox.key);
            let params = current.params(infobox);
            let Some(old_box) = prev.find(infobox.key) else {
                for (property, value) in params {
                    let value = current.value(value);
                    builder.change(rev.date, entity, *property, value, ChangeKind::Create);
                }
                continue;
            };
            let old = prev.params(old_box);
            index.index_old(old);
            for (property, value) in params {
                let value = current.value(value);
                match index.see(*property) {
                    None => {
                        builder.change(rev.date, entity, *property, value, ChangeKind::Create);
                    }
                    Some(i) if prev.value(&old[i].1) != value => {
                        builder.change(rev.date, entity, *property, value, ChangeKind::Update);
                    }
                    Some(_) => {}
                }
            }
            for (property, _) in old {
                if !index.seen(*property) {
                    builder.change(rev.date, entity, *property, "", ChangeKind::Delete);
                }
            }
        }

        // Whole infoboxes that disappeared.
        for old_box in &prev.boxes {
            if current.find(old_box.key).is_none() {
                let entity = memo.entity(builder, &page.title, old_box.key);
                for (property, _) in prev.params(old_box) {
                    builder.change(rev.date, entity, *property, "", ChangeKind::Delete);
                }
            }
        }

        std::mem::swap(&mut prev, &mut current);
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
    use proptest::prelude::*;
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

    #[test]
    fn duplicated_key_compares_against_its_first_old_occurrence() {
        let cube = build_cube(&[page(
            "P",
            vec![
                (0, "{{Infobox x | a = 1 | a = 2}}"),
                // Equal to the first old `a`: no change, although the
                // day's last write left the field at 2.
                (1, "{{Infobox x | a = 1}}"),
                // The first `a` differs from the old one, the second
                // does not; both old occurrences are still present.
                (2, "{{Infobox x | a = 2 | a = 1}}"),
            ],
        )]);
        let changes: Vec<(Date, ChangeKind, &str)> = cube
            .iter_changes()
            .map(|c| (c.day, c.kind, cube.value_text(c.value)))
            .collect();
        assert_eq!(
            changes,
            vec![
                (day(0), ChangeKind::Create, "2"),
                (day(2), ChangeKind::Update, "2"),
            ]
        );
        assert_eq!(
            wikistale_wikicube::binio::encode(&cube),
            wikistale_wikicube::binio::encode(&reference::build_cube(&[page(
                "P",
                vec![
                    (0, "{{Infobox x | a = 1 | a = 2}}"),
                    (1, "{{Infobox x | a = 1}}"),
                    (2, "{{Infobox x | a = 2 | a = 1}}"),
                ],
            )]))
        );
    }

    #[test]
    fn commented_revision_diffs_like_its_stripped_text() {
        let cube = build_cube(&[page(
            "P",
            vec![
                (
                    0,
                    "{{Infobox x | a = 1 <!-- as of 2019 --> | b <!-- key --> = 2}}",
                ),
                // A comment hides `c`; only `b` changes.
                (3, "{{Infobox x | a = 1 | b = 3 <!-- | c = 4 -->}}"),
                // The previous revision's stripped text is still compared
                // against: the same values without comments change nothing.
                (5, "{{Infobox x | a = 1 | b = 3 }}"),
                (7, "{{Infobox x | a = 1 | b = 3 | c = 4}}"),
            ],
        )]);
        let changes: Vec<(Date, ChangeKind, &str, &str)> = cube
            .iter_changes()
            .map(|c| {
                let property = cube.property_name(c.property);
                (c.day, c.kind, property, cube.value_text(c.value))
            })
            .collect();
        assert_eq!(
            changes,
            vec![
                (day(0), ChangeKind::Create, "a", "1"),
                (day(0), ChangeKind::Create, "b", "2"),
                (day(3), ChangeKind::Update, "b", "3"),
                (day(7), ChangeKind::Create, "c", "4"),
            ]
        );
    }

    /// Spellings of two infobox templates and of two other templates.
    const TEMPLATES: [&str; 7] = [
        "Infobox x",
        "infobox_X",
        "Infobox  x",
        "Infobox y",
        "Infobox\ty",
        "Navbox",
        "cite web",
    ];
    /// Keys, including whitespace variants of one key and empty keys.
    const KEYS: [&str; 9] = ["a", "b", "a b", "a  b", "a\tb", " c ", "d", "", "b "];
    /// Values, including nested templates, links and comments.
    const VALUES: [&str; 9] = [
        "1",
        "2",
        "",
        "{{nts|3}}",
        "[[L|l]]",
        "x <!-- note -->",
        "a = b",
        " 2 ",
        "{{cite web | url = u}}",
    ];

    /// A small deterministic generator for page histories.
    struct Histories(u64);

    impl Histories {
        fn below(&mut self, n: usize) -> usize {
            // xorshift64*
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }

        fn template(&mut self) -> String {
            let mut text = format!("{{{{{}", TEMPLATES[self.below(TEMPLATES.len())]);
            for _ in 0..self.below(6) {
                text.push_str(match self.below(8) {
                    0 => " | positional",
                    1 => " <!-- comment -->",
                    _ => "",
                });
                let key = KEYS[self.below(KEYS.len())];
                let value = VALUES[self.below(VALUES.len())];
                text.push_str(&format!(" | {key} = {value}"));
            }
            text.push_str("}}");
            text
        }

        /// One page of up to eight revisions over a few days, so
        /// same-day revisions are common; boxes and parameters come and
        /// go between revisions.
        fn page(&mut self, title: &str) -> PageDump {
            let mut date = 0;
            let mut revisions = Vec::new();
            let mut boxes: Vec<String> = Vec::new();
            for _ in 0..1 + self.below(8) {
                date += self.below(3) as i32;
                match self.below(4) {
                    0 if !boxes.is_empty() => {
                        let i = self.below(boxes.len());
                        boxes.remove(i);
                    }
                    1 | 2 if !boxes.is_empty() => {
                        let i = self.below(boxes.len());
                        boxes[i] = self.template();
                    }
                    _ => {
                        let i = self.below(boxes.len() + 1);
                        let template = self.template();
                        boxes.insert(i, template);
                    }
                }
                let mut text = String::from("Lead. ");
                if self.below(5) == 0 {
                    text.push_str("<!-- {{Infobox x | a = hidden}} --> ");
                }
                text.push_str(&boxes.join("\n"));
                revisions.push(Revision {
                    date: day(date),
                    text,
                });
            }
            PageDump {
                title: title.to_owned(),
                revisions,
            }
        }
    }

    proptest! {
        #[test]
        fn prop_diff_matches_the_string_reference(seed in 1u64..u64::MAX, pages in 1usize..5) {
            let mut histories = Histories(seed);
            let pages: Vec<PageDump> =
                (0..pages).map(|p| histories.page(&format!("Page {p}"))).collect();
            prop_assert_eq!(
                wikistale_wikicube::binio::encode(&build_cube(&pages)),
                wikistale_wikicube::binio::encode(&reference::build_cube(&pages)),
                "{:#?}",
                pages
            );
        }
    }

    /// The differ as it was before parameters were borrowed: owned
    /// `(key, value)` strings per snapshot, boxes and keys matched by
    /// linear scans, each key's first old occurrence compared.
    mod reference {
        use super::super::{BoxKey, PageMemo};
        use crate::infobox::extract_infoboxes;
        use crate::xml::PageDump;
        use wikistale_wikicube::{ChangeCube, ChangeCubeBuilder, ChangeKind};

        type Snapshot = Vec<(BoxKey, Vec<(String, String)>)>;

        pub(super) fn build_cube(pages: &[PageDump]) -> ChangeCube {
            let mut builder = ChangeCubeBuilder::new();
            for page in pages {
                diff_page(&mut builder, page);
            }
            builder.finish()
        }

        fn diff_page(builder: &mut ChangeCubeBuilder, page: &PageDump) {
            let mut memo = PageMemo::default();
            let mut prev: Snapshot = Vec::new();
            let mut occurrence: Vec<usize> = Vec::new();
            for rev in &page.revisions {
                let mut current: Snapshot = Vec::new();
                occurrence.clear();
                for infobox in extract_infoboxes(&rev.text) {
                    let template = memo.template(&infobox.template);
                    if occurrence.len() <= template {
                        occurrence.resize(template + 1, 0);
                    }
                    current.push(((template, occurrence[template]), infobox.params));
                    occurrence[template] += 1;
                }

                let lookup =
                    |snapshot: &Snapshot, key: &BoxKey| snapshot.iter().position(|(k, _)| k == key);

                for (key, params) in &current {
                    let entity = memo.entity(builder, &page.title, *key);
                    let old = lookup(&prev, key).map(|i| &prev[i].1);
                    for (param, value) in params {
                        let property = builder.property(param);
                        let old_value = old.and_then(|o| {
                            o.iter().find(|(k, _)| k == param).map(|(_, v)| v.as_str())
                        });
                        match old_value {
                            None => {
                                builder.change(
                                    rev.date,
                                    entity,
                                    property,
                                    value,
                                    ChangeKind::Create,
                                );
                            }
                            Some(old_value) if old_value != value => {
                                builder.change(
                                    rev.date,
                                    entity,
                                    property,
                                    value,
                                    ChangeKind::Update,
                                );
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
    }
}
