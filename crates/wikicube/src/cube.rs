//! The [`ChangeCube`] container and its builder.

use crate::change::{Change, ChangeFlags, ChangeKind};
use crate::date::{Date, DateRange};
use crate::daylist::DayListStore;
use crate::error::CubeError;
use crate::ids::{EntityId, PageId, PropertyId, TemplateId, ValueId};
use crate::intern::Interner;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Per-entity metadata: every infobox belongs to exactly one template and
/// lives on exactly one page (paper §3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EntityMeta {
    /// The infobox template defining the entity's schema.
    pub template: TemplateId,
    /// The page the infobox appears on.
    pub page: PageId,
}

/// Struct-of-arrays change table: one column per [`Change`] component,
/// all the same length, in canonical `(day, entity, property)` order.
///
/// Columnar storage keeps each scan's working set to the columns it
/// actually reads (a day-range probe touches only the 4-byte day column
/// instead of dragging 20-byte rows through cache) and drops the 2 bytes
/// of padding per change the row layout paid for alignment.
#[derive(Debug, Clone, Default)]
pub struct ChangeColumns {
    days: Vec<Date>,
    entities: Vec<EntityId>,
    properties: Vec<PropertyId>,
    values: Vec<ValueId>,
    kinds: Vec<ChangeKind>,
    flags: Vec<ChangeFlags>,
}

impl ChangeColumns {
    /// Split a row table into columns. The rows must already be in
    /// canonical order.
    fn from_rows(rows: &[Change]) -> ChangeColumns {
        let mut cols = ChangeColumns {
            days: Vec::with_capacity(rows.len()),
            entities: Vec::with_capacity(rows.len()),
            properties: Vec::with_capacity(rows.len()),
            values: Vec::with_capacity(rows.len()),
            kinds: Vec::with_capacity(rows.len()),
            flags: Vec::with_capacity(rows.len()),
        };
        for c in rows {
            cols.push(*c);
        }
        cols
    }

    fn push(&mut self, c: Change) {
        self.days.push(c.day);
        self.entities.push(c.entity);
        self.properties.push(c.property);
        self.values.push(c.value);
        self.kinds.push(c.kind);
        self.flags.push(c.flags);
    }

    /// Give back the growth slack of incrementally built columns. Cubes
    /// are immutable once constructed, so there is nothing to grow into.
    fn shrink_to_fit(&mut self) {
        self.days.shrink_to_fit();
        self.entities.shrink_to_fit();
        self.properties.shrink_to_fit();
        self.values.shrink_to_fit();
        self.kinds.shrink_to_fit();
        self.flags.shrink_to_fit();
    }

    /// Number of changes.
    pub fn len(&self) -> usize {
        self.days.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.days.is_empty()
    }

    /// The day column.
    pub fn days(&self) -> &[Date] {
        &self.days
    }

    /// The entity column.
    pub fn entities(&self) -> &[EntityId] {
        &self.entities
    }

    /// The property column.
    pub fn properties(&self) -> &[PropertyId] {
        &self.properties
    }

    /// The value column.
    pub fn values(&self) -> &[ValueId] {
        &self.values
    }

    /// The change-kind column.
    pub fn kinds(&self) -> &[ChangeKind] {
        &self.kinds
    }

    /// The flag column.
    pub fn flags(&self) -> &[ChangeFlags] {
        &self.flags
    }

    /// Materialize the change at row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Change {
        Change {
            day: self.days[i],
            entity: self.entities[i],
            property: self.properties[i],
            value: self.values[i],
            kind: self.kinds[i],
            flags: self.flags[i],
        }
    }

    /// Heap bytes held by the six column vectors (18 per change; the row
    /// layout's `Vec<Change>` pays `size_of::<Change>()` = 20).
    pub fn heap_bytes(&self) -> usize {
        self.days.capacity() * std::mem::size_of::<Date>()
            + self.entities.capacity() * std::mem::size_of::<EntityId>()
            + self.properties.capacity() * std::mem::size_of::<PropertyId>()
            + self.values.capacity() * std::mem::size_of::<ValueId>()
            + self.kinds.capacity()
            + self.flags.capacity()
    }
}

/// Double-ended, exact-size iterator materializing [`Change`]s on demand
/// from a [`ChangeColumns`] row range.
#[derive(Debug, Clone)]
pub struct Changes<'a> {
    cols: &'a ChangeColumns,
    range: Range<usize>,
}

impl Iterator for Changes<'_> {
    type Item = Change;

    #[inline]
    fn next(&mut self) -> Option<Change> {
        self.range.next().map(|i| self.cols.get(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl DoubleEndedIterator for Changes<'_> {
    fn next_back(&mut self) -> Option<Change> {
        self.range.next_back().map(|i| self.cols.get(i))
    }
}

impl ExactSizeIterator for Changes<'_> {}
impl std::iter::FusedIterator for Changes<'_> {}

/// An immutable, canonically-ordered collection of infobox changes together
/// with the dimension tables (interners) its ids refer to.
///
/// The change table is columnar (see [`ChangeColumns`]), sorted by
/// `(day, entity, property)` and holds at most one change per key: when
/// several same-day changes hit one (entity, property) slot, the last
/// value written wins (matching how an infobox read at end of day sees
/// only the final revision). Sorting makes time-range scans a binary
/// search plus a linear walk and lets the filter pipeline stream in one
/// pass. The cube also owns the canonical per-field day lists
/// ([`ChangeCube::day_lists`]), built lazily once and shared by the
/// index, the correlation search and the Apriori transaction builder.
#[derive(Debug, Clone, Default)]
pub struct ChangeCube {
    entities: Interner,
    properties: Interner,
    templates: Interner,
    pages: Interner,
    values: Interner,
    entity_meta: Vec<EntityMeta>,
    columns: ChangeColumns,
    day_store: OnceLock<Arc<DayListStore>>,
}

impl ChangeCube {
    /// Assemble a cube from already-built parts. Used by the builder and by
    /// the persistence layer; validates referential integrity and restores
    /// the canonical form (sorted, one change per `(day, entity, property)`
    /// with the last value winning).
    pub(crate) fn from_parts(
        entities: Interner,
        properties: Interner,
        templates: Interner,
        pages: Interner,
        values: Interner,
        entity_meta: Vec<EntityMeta>,
        mut changes: Vec<Change>,
    ) -> Result<ChangeCube, CubeError> {
        if entity_meta.len() != entities.len() {
            return Err(CubeError::Corrupt(format!(
                "{} entities but {} metadata rows",
                entities.len(),
                entity_meta.len()
            )));
        }
        for (i, meta) in entity_meta.iter().enumerate() {
            if meta.template.index() >= templates.len() {
                return Err(CubeError::DanglingId(format!(
                    "entity {i} references template {}",
                    meta.template
                )));
            }
            if meta.page.index() >= pages.len() {
                return Err(CubeError::DanglingId(format!(
                    "entity {i} references page {}",
                    meta.page
                )));
            }
        }
        for c in &changes {
            if c.entity.index() >= entities.len() {
                return Err(CubeError::DanglingId(format!("change entity {}", c.entity)));
            }
            if c.property.index() >= properties.len() {
                return Err(CubeError::DanglingId(format!(
                    "change property {}",
                    c.property
                )));
            }
            if c.value.index() >= values.len() {
                return Err(CubeError::DanglingId(format!("change value {}", c.value)));
            }
        }
        if !changes.is_sorted_by_key(|c| c.sort_key()) {
            // Stable, so same-key changes keep their input order and the
            // last-wins dedup below resolves to the latest write.
            changes = stable_sort_changes(changes);
        }
        changes.dedup_by(|cur, prev| {
            if cur.sort_key() == prev.sort_key() {
                *prev = *cur;
                true
            } else {
                false
            }
        });
        Ok(ChangeCube {
            entities,
            properties,
            templates,
            pages,
            values,
            entity_meta,
            columns: ChangeColumns::from_rows(&changes),
            day_store: OnceLock::new(),
        })
    }

    /// The columnar change table, in canonical order.
    pub fn columns(&self) -> &ChangeColumns {
        &self.columns
    }

    /// Iterate all changes in canonical `(day, entity, property)` order,
    /// materializing each [`Change`] from the columns on demand.
    pub fn iter_changes(&self) -> Changes<'_> {
        Changes {
            cols: &self.columns,
            range: 0..self.columns.len(),
        }
    }

    /// Materialize the change at row `i` of the canonical order.
    pub fn change_at(&self, i: usize) -> Change {
        self.columns.get(i)
    }

    /// Collect all changes into a row vector (test and interop helper;
    /// hot paths should iterate or use the columns directly).
    pub fn changes_vec(&self) -> Vec<Change> {
        self.iter_changes().collect()
    }

    /// Number of changes.
    pub fn num_changes(&self) -> usize {
        self.columns.len()
    }

    /// Number of distinct entities (infoboxes).
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Number of distinct property names.
    pub fn num_properties(&self) -> usize {
        self.properties.len()
    }

    /// Number of distinct templates.
    pub fn num_templates(&self) -> usize {
        self.templates.len()
    }

    /// Number of distinct pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of distinct interned values.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// The template an entity belongs to.
    pub fn template_of(&self, entity: EntityId) -> TemplateId {
        self.entity_meta[entity.index()].template
    }

    /// The page an entity lives on.
    pub fn page_of(&self, entity: EntityId) -> PageId {
        self.entity_meta[entity.index()].page
    }

    /// Per-entity metadata table, indexed by [`EntityId`].
    pub fn entity_meta(&self) -> &[EntityMeta] {
        &self.entity_meta
    }

    /// Resolve an entity id to its name.
    pub fn entity_name(&self, id: EntityId) -> &str {
        self.entities.resolve(id.0)
    }

    /// Resolve a property id to its name.
    pub fn property_name(&self, id: PropertyId) -> &str {
        self.properties.resolve(id.0)
    }

    /// Resolve a template id to its name.
    pub fn template_name(&self, id: TemplateId) -> &str {
        self.templates.resolve(id.0)
    }

    /// Resolve a page id to its title.
    pub fn page_title(&self, id: PageId) -> &str {
        self.pages.resolve(id.0)
    }

    /// Resolve a value id to its text.
    pub fn value_text(&self, id: ValueId) -> &str {
        self.values.resolve(id.0)
    }

    /// Look up an entity by name.
    pub fn entity_id(&self, name: &str) -> Option<EntityId> {
        self.entities.get(name).map(EntityId)
    }

    /// Look up a property by name.
    pub fn property_id(&self, name: &str) -> Option<PropertyId> {
        self.properties.get(name).map(PropertyId)
    }

    /// Look up a template by name.
    pub fn template_id(&self, name: &str) -> Option<TemplateId> {
        self.templates.get(name).map(TemplateId)
    }

    /// Look up a page by title.
    pub fn page_id(&self, title: &str) -> Option<PageId> {
        self.pages.get(title).map(PageId)
    }

    /// The entity-name interner (id-ordered).
    pub fn entities(&self) -> &Interner {
        &self.entities
    }

    /// The property-name interner (id-ordered).
    pub fn properties(&self) -> &Interner {
        &self.properties
    }

    /// The template-name interner (id-ordered).
    pub fn templates(&self) -> &Interner {
        &self.templates
    }

    /// The page-title interner (id-ordered).
    pub fn pages(&self) -> &Interner {
        &self.pages
    }

    /// The value interner (id-ordered).
    pub fn values(&self) -> &Interner {
        &self.values
    }

    /// Half-open day range `[first change day, last change day + 1)`, or
    /// `None` for an empty cube.
    pub fn time_span(&self) -> Option<DateRange> {
        match (self.columns.days.first(), self.columns.days.last()) {
            (Some(&first), Some(&last)) => Some(DateRange::new(first, last.plus_days(1))),
            _ => None,
        }
    }

    /// Row range of the changes whose day lies in `range`.
    ///
    /// O(log n) thanks to the canonical time-major ordering; only the
    /// 4-byte day column is probed.
    pub fn change_range(&self, range: DateRange) -> Range<usize> {
        let days = &self.columns.days;
        let lo = days.partition_point(|&d| d < range.start());
        let hi = days.partition_point(|&d| d < range.end());
        lo..hi
    }

    /// Iterate the changes whose day lies in `range`, in canonical order.
    pub fn changes_in(&self, range: DateRange) -> Changes<'_> {
        Changes {
            cols: &self.columns,
            range: self.change_range(range),
        }
    }

    /// The canonical per-field day lists: for every `(entity, property)`
    /// field, its strictly-increasing change days across **all** change
    /// kinds, delta-encoded (see [`DayListStore`]). Built lazily on first
    /// use and shared by `Arc` — the index, the Apriori transaction
    /// builder and the statistics all read this one copy instead of
    /// re-deriving day lists from the change table.
    pub fn day_lists(&self) -> &Arc<DayListStore> {
        self.day_store.get_or_init(|| {
            Arc::new(DayListStore::from_field_days(
                crate::daylist::collect_field_days(self, None),
            ))
        })
    }

    /// Heap bytes of the columnar change table.
    pub fn change_table_bytes(&self) -> usize {
        self.columns.heap_bytes()
    }

    /// Heap bytes the change table would occupy in the row layout this
    /// cube replaced (`Vec<Change>`, 20 bytes per change) — the baseline
    /// the pipeline benchmark compares against.
    pub fn row_layout_baseline_bytes(&self) -> usize {
        self.num_changes() * std::mem::size_of::<Change>()
    }

    /// A new cube over the same dimension tables keeping only changes for
    /// which `keep` returns `true`. This is the primitive the filter
    /// pipeline is built on; dimension tables are shared unchanged so ids
    /// remain stable across filtering.
    pub fn retain_changes(&self, mut keep: impl FnMut(&Change) -> bool) -> ChangeCube {
        let mut columns = ChangeColumns::default();
        for c in self.iter_changes() {
            if keep(&c) {
                columns.push(c);
            }
        }
        columns.shrink_to_fit();
        ChangeCube {
            entities: self.entities.clone(),
            properties: self.properties.clone(),
            templates: self.templates.clone(),
            pages: self.pages.clone(),
            values: self.values.clone(),
            entity_meta: self.entity_meta.clone(),
            columns,
            day_store: OnceLock::new(),
        }
    }

    /// A new cube over the same dimension tables with `changes` as the
    /// change table (re-sorted and same-day duplicates collapsed if
    /// needed). Ids must refer to this cube's tables.
    pub fn with_changes(&self, changes: Vec<Change>) -> Result<ChangeCube, CubeError> {
        ChangeCube::from_parts(
            self.entities.clone(),
            self.properties.clone(),
            self.templates.clone(),
            self.pages.clone(),
            self.values.clone(),
            self.entity_meta.clone(),
            changes,
        )
    }
}

/// Incremental constructor for [`ChangeCube`]s.
///
/// The builder interns strings on the fly, enforces the one-template /
/// one-page invariant per entity, and sorts the change table once on
/// [`ChangeCubeBuilder::finish`].
#[derive(Debug, Default)]
pub struct ChangeCubeBuilder {
    entities: Interner,
    properties: Interner,
    templates: Interner,
    pages: Interner,
    values: Interner,
    entity_meta: Vec<EntityMeta>,
    changes: Vec<Change>,
}

impl ChangeCubeBuilder {
    /// Create an empty builder.
    pub fn new() -> ChangeCubeBuilder {
        ChangeCubeBuilder::default()
    }

    /// Pre-reserve space for `n` changes.
    pub fn reserve_changes(&mut self, n: usize) {
        self.changes.reserve(n);
    }

    /// Register (or look up) the entity `name` belonging to `template` on
    /// `page`.
    ///
    /// # Panics
    /// Panics if `name` was previously registered with a different template
    /// or page: each infobox belongs to exactly one of each.
    pub fn entity(&mut self, name: &str, template: &str, page: &str) -> EntityId {
        let template = TemplateId(self.templates.intern(template));
        let page = PageId(self.pages.intern(page));
        let id = self.entities.intern(name);
        let meta = EntityMeta { template, page };
        if let Some(existing) = self.entity_meta.get(id as usize) {
            assert_eq!(
                *existing, meta,
                "entity {name:?} re-registered with different template or page"
            );
        } else {
            self.entity_meta.push(meta);
        }
        EntityId(id)
    }

    /// Register (or look up) a property name.
    pub fn property(&mut self, name: &str) -> PropertyId {
        PropertyId(self.properties.intern(name))
    }

    /// Record an update change. Convenience wrapper around
    /// [`ChangeCubeBuilder::change_full`].
    pub fn change(
        &mut self,
        day: Date,
        entity: EntityId,
        property: PropertyId,
        value: &str,
        kind: ChangeKind,
    ) -> &mut Self {
        self.change_full(day, entity, property, value, kind, ChangeFlags::NONE)
    }

    /// Record a change with explicit flags.
    ///
    /// # Panics
    /// Panics if `entity` was not registered via
    /// [`ChangeCubeBuilder::entity`].
    pub fn change_full(
        &mut self,
        day: Date,
        entity: EntityId,
        property: PropertyId,
        value: &str,
        kind: ChangeKind,
        flags: ChangeFlags,
    ) -> &mut Self {
        assert!(
            entity.index() < self.entity_meta.len(),
            "change references unregistered entity {entity}"
        );
        assert!(
            property.index() < self.properties.len(),
            "change references unregistered property {property}"
        );
        let value = ValueId(self.values.intern(value));
        self.changes.push(Change {
            day,
            entity,
            property,
            value,
            kind,
            flags,
        });
        self
    }

    /// Number of changes recorded so far.
    pub fn num_changes(&self) -> usize {
        self.changes.len()
    }

    /// The (template, page) membership an already-registered entity name
    /// has, if any — lets callers check consistency without triggering the
    /// panic in [`ChangeCubeBuilder::entity`].
    pub fn entity_membership(&self, name: &str) -> Option<(&str, &str)> {
        let id = self.entities.get(name)?;
        let meta = self.entity_meta[id as usize];
        Some((
            self.templates.resolve(meta.template.0),
            self.pages.resolve(meta.page.0),
        ))
    }

    /// Finalize into an immutable, canonically-ordered cube.
    pub fn finish(self) -> ChangeCube {
        ChangeCube::from_parts(
            self.entities,
            self.properties,
            self.templates,
            self.pages,
            self.values,
            self.entity_meta,
            self.changes,
        )
        .unwrap_or_else(|e| panic!("builder maintains referential integrity: {e}"))
    }
}

/// Changes per sort chunk. Large enough that chunk sort dominates the
/// serial k-way merge; small enough for the workers to balance skewed data.
const SORT_CHUNK: usize = 32_768;

/// Stable sort by [`Change::sort_key`]: fixed contiguous chunks are sorted
/// in parallel, then k-way merged with ties broken by chunk index.
///
/// Because chunks are contiguous input ranges taken in order, "smaller
/// chunk index" equals "earlier original position" for equal keys, so the
/// merge reproduces a global stable sort exactly — for any chunk size and
/// any worker count. That is what keeps the last-wins dedup in
/// [`ChangeCube::from_parts`] independent of `--threads`.
fn stable_sort_changes(mut changes: Vec<Change>) -> Vec<Change> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    if wikistale_exec::threads() <= 1 || changes.len() <= wikistale_exec::chunk_size(SORT_CHUNK) {
        changes.sort_by_key(|c| c.sort_key());
        return changes;
    }
    let sorted_chunks: Vec<Vec<Change>> =
        wikistale_exec::par_ranges("cube_sort", changes.len(), SORT_CHUNK, |range| {
            let mut part = changes[range].to_vec();
            part.sort_by_key(|c| c.sort_key());
            part
        });

    let mut heap = BinaryHeap::with_capacity(sorted_chunks.len());
    for (idx, chunk) in sorted_chunks.iter().enumerate() {
        if let Some(first) = chunk.first() {
            heap.push(Reverse((first.sort_key(), idx)));
        }
    }
    let mut merged = Vec::with_capacity(changes.len());
    let mut cursors = vec![0usize; sorted_chunks.len()];
    while let Some(Reverse((_, idx))) = heap.pop() {
        let chunk = &sorted_chunks[idx];
        merged.push(chunk[cursors[idx]]);
        cursors[idx] += 1;
        if let Some(next) = chunk.get(cursors[idx]) {
            heap.push(Reverse((next.sort_key(), idx)));
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FieldId;

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    fn small_cube() -> ChangeCube {
        let mut b = ChangeCubeBuilder::new();
        let boxer = b.entity("Ali", "infobox boxer", "Muhammad Ali");
        let city = b.entity("London", "infobox settlement", "London");
        let wins = b.property("wins");
        let ko = b.property("ko");
        let pop = b.property("population_est");
        b.change(day(10), boxer, wins, "56", ChangeKind::Update);
        b.change(day(10), boxer, ko, "37", ChangeKind::Update);
        b.change(day(5), city, pop, "8,900,000", ChangeKind::Update);
        b.change(day(20), city, pop, "9,000,000", ChangeKind::Update);
        b.finish()
    }

    #[test]
    fn builder_produces_sorted_cube() {
        let cube = small_cube();
        assert_eq!(cube.num_changes(), 4);
        let keys: Vec<_> = cube.iter_changes().map(|c| c.sort_key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(cube.change_at(0).day, day(5));
    }

    #[test]
    fn columns_match_materialized_rows() {
        let cube = small_cube();
        let cols = cube.columns();
        assert_eq!(cols.len(), cube.num_changes());
        assert!(!cols.is_empty());
        for (i, c) in cube.iter_changes().enumerate() {
            assert_eq!(cols.days()[i], c.day);
            assert_eq!(cols.entities()[i], c.entity);
            assert_eq!(cols.properties()[i], c.property);
            assert_eq!(cols.values()[i], c.value);
            assert_eq!(cols.kinds()[i], c.kind);
            assert_eq!(cols.flags()[i], c.flags);
            assert_eq!(cols.get(i), c);
        }
    }

    #[test]
    fn iterator_is_double_ended_and_exact_size() {
        let cube = small_cube();
        let mut it = cube.iter_changes();
        assert_eq!(it.len(), 4);
        let first = it.next().unwrap();
        let last = it.next_back().unwrap();
        assert_eq!(it.len(), 2);
        assert_eq!(first, cube.change_at(0));
        assert_eq!(last, cube.change_at(3));
        let rev: Vec<Change> = cube.iter_changes().rev().collect();
        let mut fwd = cube.changes_vec();
        fwd.reverse();
        assert_eq!(rev, fwd);
    }

    #[test]
    fn columnar_table_is_smaller_than_row_layout() {
        let cube = small_cube();
        // 18 bytes/change in columns vs 20 in Vec<Change>.
        assert!(cube.change_table_bytes() < cube.row_layout_baseline_bytes());
    }

    #[test]
    fn day_lists_cover_all_kinds_once_per_day() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("Ali", "infobox boxer", "Muhammad Ali");
        let p = b.property("wins");
        b.change(day(1), e, p, "1", ChangeKind::Create);
        b.change(day(2), e, p, "2", ChangeKind::Update);
        b.change(day(4), e, p, "", ChangeKind::Delete);
        let cube = b.finish();
        let store = cube.day_lists();
        let list = store.get(FieldId::new(e, p)).unwrap();
        assert_eq!(list.to_vec(), vec![day(1), day(2), day(4)]);
        // Shared: a second call returns the same Arc allocation.
        assert!(Arc::ptr_eq(cube.day_lists(), store));
    }

    #[test]
    fn dimension_lookups() {
        let cube = small_cube();
        assert_eq!(cube.num_entities(), 2);
        assert_eq!(cube.num_properties(), 3);
        assert_eq!(cube.num_templates(), 2);
        assert_eq!(cube.num_pages(), 2);
        let ali = cube.entity_id("Ali").unwrap();
        assert_eq!(cube.entity_name(ali), "Ali");
        assert_eq!(cube.template_name(cube.template_of(ali)), "infobox boxer");
        assert_eq!(cube.page_title(cube.page_of(ali)), "Muhammad Ali");
        assert_eq!(
            cube.property_id("wins").map(|p| cube.property_name(p)),
            Some("wins")
        );
        assert!(cube.entity_id("nobody").is_none());
        assert!(cube.template_id("infobox boxer").is_some());
        assert!(cube.page_id("London").is_some());
    }

    #[test]
    fn values_are_interned_and_resolvable() {
        let cube = small_cube();
        let c = cube.iter_changes().find(|c| c.day == day(20)).unwrap();
        assert_eq!(cube.value_text(c.value), "9,000,000");
        assert_eq!(cube.num_values(), 4);
    }

    #[test]
    fn time_span_and_range_scan() {
        let cube = small_cube();
        let span = cube.time_span().unwrap();
        assert_eq!(span.start(), day(5));
        assert_eq!(span.end(), day(21));
        assert_eq!(cube.changes_in(DateRange::new(day(5), day(11))).len(), 3);
        assert_eq!(cube.changes_in(DateRange::new(day(6), day(10))).len(), 0);
        assert_eq!(cube.changes_in(DateRange::new(day(0), day(100))).len(), 4);
        assert_eq!(cube.change_range(DateRange::new(day(5), day(11))), 0..3);
        let empty = ChangeCubeBuilder::new().finish();
        assert!(empty.time_span().is_none());
    }

    #[test]
    fn retain_changes_keeps_dimensions() {
        let cube = small_cube();
        let only_pop = cube.retain_changes(|c| cube.property_name(c.property) == "population_est");
        assert_eq!(only_pop.num_changes(), 2);
        assert_eq!(only_pop.num_entities(), cube.num_entities());
        assert_eq!(only_pop.num_properties(), cube.num_properties());
    }

    #[test]
    fn with_changes_re_sorts() {
        let cube = small_cube();
        let mut reversed: Vec<Change> = cube.changes_vec();
        reversed.reverse();
        let rebuilt = cube.with_changes(reversed).unwrap();
        assert_eq!(rebuilt.changes_vec(), cube.changes_vec());
    }

    #[test]
    fn same_day_same_slot_keeps_last_value() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("Ali", "infobox boxer", "Muhammad Ali");
        let p = b.property("wins");
        b.change(day(10), e, p, "55", ChangeKind::Create);
        b.change(day(10), e, p, "56", ChangeKind::Update);
        b.change(day(11), e, p, "57", ChangeKind::Update);
        let cube = b.finish();
        assert_eq!(cube.num_changes(), 2);
        assert_eq!(cube.value_text(cube.change_at(0).value), "56");
        assert_eq!(cube.change_at(0).kind, ChangeKind::Update);
        assert_eq!(cube.value_text(cube.change_at(1).value), "57");
    }

    #[test]
    fn dedup_is_stable_under_unsorted_input() {
        // Feed with_changes an unsorted table containing a duplicate key;
        // the stable sort must preserve write order within the key so the
        // later write survives.
        let cube = small_cube();
        let mut changes = cube.changes_vec();
        let mut dup = changes[2];
        dup.value = changes[3].value; // different value, same key as [2]
        changes.insert(3, dup);
        changes.reverse();
        let rebuilt = cube.with_changes(changes).unwrap();
        assert_eq!(rebuilt.num_changes(), cube.num_changes());
        // Reversing flipped the write order of the duplicate pair, so the
        // original write (now last) wins.
        let survivor = rebuilt
            .iter_changes()
            .find(|c| c.sort_key() == cube.change_at(2).sort_key())
            .unwrap();
        assert_eq!(survivor.value, cube.change_at(2).value);
    }

    #[test]
    fn entity_reregistration_is_idempotent() {
        let mut b = ChangeCubeBuilder::new();
        let a = b.entity("Ali", "infobox boxer", "Muhammad Ali");
        let again = b.entity("Ali", "infobox boxer", "Muhammad Ali");
        assert_eq!(a, again);
    }

    #[test]
    #[should_panic(expected = "different template")]
    fn entity_reregistration_with_new_template_panics() {
        let mut b = ChangeCubeBuilder::new();
        b.entity("Ali", "infobox boxer", "Muhammad Ali");
        b.entity("Ali", "infobox settlement", "Muhammad Ali");
    }

    #[test]
    #[should_panic(expected = "unregistered entity")]
    fn change_for_unknown_entity_panics() {
        let mut b = ChangeCubeBuilder::new();
        let p = b.property("wins");
        b.change(day(0), EntityId(7), p, "1", ChangeKind::Update);
    }

    #[test]
    fn from_parts_rejects_dangling_ids() {
        let cube = small_cube();
        let mut bad = cube.changes_vec();
        bad[0].entity = EntityId(99);
        assert!(matches!(
            cube.with_changes(bad),
            Err(CubeError::DanglingId(_))
        ));
    }
}
