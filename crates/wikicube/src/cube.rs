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
    pub(crate) days: Vec<Date>,
    pub(crate) entities: Vec<EntityId>,
    pub(crate) properties: Vec<PropertyId>,
    pub(crate) values: Vec<ValueId>,
    pub(crate) kinds: Vec<ChangeKind>,
    pub(crate) flags: Vec<ChangeFlags>,
}

impl ChangeColumns {
    /// Append `c` as the last row.
    pub(crate) fn push(&mut self, c: Change) {
        self.days.push(c.day);
        self.entities.push(c.entity);
        self.properties.push(c.property);
        self.values.push(c.value);
        self.kinds.push(c.kind);
        self.flags.push(c.flags);
    }

    /// Reserve room for `n` more rows in every column.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.days.reserve(n);
        self.entities.reserve(n);
        self.properties.reserve(n);
        self.values.reserve(n);
        self.kinds.reserve(n);
        self.flags.reserve(n);
    }

    /// Whether the rows are strictly increasing by `(day, entity,
    /// property)`: sorted, with no two rows sharing that key.
    fn is_canonical(&self) -> bool {
        let key = |i: usize| (self.days[i], self.entities[i], self.properties[i]);
        (1..self.len()).all(|i| key(i - 1) < key(i))
    }

    /// The rows whose bit is set in `mask` (bit `i % 64` of word `i / 64`
    /// marks row `i`), in order, as columns of exactly `kept` rows.
    fn select(&self, mask: &[u64], kept: usize) -> ChangeColumns {
        ChangeColumns {
            days: gather(&self.days, mask, kept),
            entities: gather(&self.entities, mask, kept),
            properties: gather(&self.properties, mask, kept),
            values: gather(&self.values, mask, kept),
            kinds: gather(&self.kinds, mask, kept),
            flags: gather(&self.flags, mask, kept),
        }
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

/// The elements of `column` at the rows set in `mask`, into a vector
/// allocated once at its final length `kept`.
fn gather<T: Copy>(column: &[T], mask: &[u64], kept: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(kept);
    for (word_idx, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            out.push(column[word_idx * 64 + bits.trailing_zeros() as usize]);
            bits &= bits - 1;
        }
    }
    debug_assert_eq!(out.len(), kept);
    out
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

/// The dimension tables a cube's ids refer to: one [`Interner`] per
/// string-valued dimension plus the per-entity [`EntityMeta`].
///
/// Immutable once built. A cube holds its tables behind one `Arc`, and
/// every cube derived from it by `clone`, [`ChangeCube::retain_rows`],
/// [`ChangeCube::retain_changes`] or [`ChangeCube::with_changes`] shares
/// that allocation, so deriving a cube copies change columns only and ids
/// stay valid across the derivation. [`crate::slice`] and [`crate::merge`] re-intern into fresh
/// tables instead.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Dimensions {
    entities: Interner,
    properties: Interner,
    templates: Interner,
    pages: Interner,
    values: Interner,
    entity_meta: Vec<EntityMeta>,
}

impl Dimensions {
    /// Bundle the tables, checking that every entity has one metadata row
    /// and that each row's template and page ids resolve.
    pub(crate) fn new(
        entities: Interner,
        properties: Interner,
        templates: Interner,
        pages: Interner,
        values: Interner,
        entity_meta: Vec<EntityMeta>,
    ) -> Result<Dimensions, CubeError> {
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
        Ok(Dimensions {
            entities,
            properties,
            templates,
            pages,
            values,
            entity_meta,
        })
    }
}

/// An immutable, canonically-ordered collection of infobox changes together
/// with the dimension tables (interners) its ids refer to.
///
/// The change table is columnar (see [`ChangeColumns`]), sorted by
/// `(day, entity, property)` and holds at most one change per key: when
/// several same-day changes hit one (entity, property) slot, the last
/// value written wins (matching how an infobox read at end of day sees
/// only the final revision). Sorting makes time-range scans a binary
/// search plus a linear walk and lets the filter pipeline stream in one
/// pass. The dimension tables are shared by `Arc` (see [`Dimensions`]).
/// The cube also owns the canonical per-field day lists
/// ([`ChangeCube::day_lists`]), built lazily once and shared by the
/// index, the correlation search and the Apriori transaction builder.
#[derive(Debug, Clone, Default)]
pub struct ChangeCube {
    dims: Arc<Dimensions>,
    columns: ChangeColumns,
    day_store: OnceLock<Arc<DayListStore>>,
}

impl ChangeCube {
    /// The one constructor every cube is built through: the builder,
    /// [`crate::binio::decode`] and [`ChangeCube::with_changes`] all hand
    /// it their columns. Checks that every entity, property and value id
    /// resolves in `dims`, one column at a time, then restores the
    /// canonical form: rows sorted by `(day, entity, property)`, one row
    /// per key, the last-written row of a key winning.
    ///
    /// Columns already strictly increasing by that key (every file
    /// [`crate::binio::encode`] writes) are moved in without a copy.
    /// Otherwise each row gets a packed key `(day − min_day) << 96 |
    /// entity << 64 | property << 32 | row`. The row index makes every
    /// key unique, so an unstable sort orders rows as a stable sort
    /// would, and the last key of each run sharing `(day, entity,
    /// property)` is that slot's latest write. Each column is then
    /// gathered once, at its exact length.
    pub(crate) fn from_parts(
        dims: Arc<Dimensions>,
        mut columns: ChangeColumns,
    ) -> Result<ChangeCube, CubeError> {
        check_ids(&columns.entities, dims.entities.len(), "entity")?;
        check_ids(&columns.properties, dims.properties.len(), "property")?;
        check_ids(&columns.values, dims.values.len(), "value")?;
        if columns.is_canonical() {
            // A no-op for exact-length columns such as decoded ones.
            columns.days.shrink_to_fit();
            columns.entities.shrink_to_fit();
            columns.properties.shrink_to_fit();
            columns.values.shrink_to_fit();
            columns.kinds.shrink_to_fit();
            columns.flags.shrink_to_fit();
        } else {
            columns = canonicalize(columns)?;
        }
        Ok(ChangeCube {
            dims,
            columns,
            day_store: OnceLock::new(),
        })
    }

    /// The shared dimension tables. Cubes derived without re-interning
    /// return the same `Arc` (compare with [`Arc::ptr_eq`]).
    pub fn dimensions(&self) -> &Arc<Dimensions> {
        &self.dims
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
        self.dims.entities.len()
    }

    /// Number of distinct property names.
    pub fn num_properties(&self) -> usize {
        self.dims.properties.len()
    }

    /// Number of distinct templates.
    pub fn num_templates(&self) -> usize {
        self.dims.templates.len()
    }

    /// Number of distinct pages.
    pub fn num_pages(&self) -> usize {
        self.dims.pages.len()
    }

    /// Number of distinct interned values.
    pub fn num_values(&self) -> usize {
        self.dims.values.len()
    }

    /// The template an entity belongs to.
    pub fn template_of(&self, entity: EntityId) -> TemplateId {
        self.dims.entity_meta[entity.index()].template
    }

    /// The page an entity lives on.
    pub fn page_of(&self, entity: EntityId) -> PageId {
        self.dims.entity_meta[entity.index()].page
    }

    /// Per-entity metadata table, indexed by [`EntityId`].
    pub fn entity_meta(&self) -> &[EntityMeta] {
        &self.dims.entity_meta
    }

    /// Resolve an entity id to its name.
    pub fn entity_name(&self, id: EntityId) -> &str {
        self.dims.entities.resolve(id.0)
    }

    /// Resolve a property id to its name.
    pub fn property_name(&self, id: PropertyId) -> &str {
        self.dims.properties.resolve(id.0)
    }

    /// Resolve a template id to its name.
    pub fn template_name(&self, id: TemplateId) -> &str {
        self.dims.templates.resolve(id.0)
    }

    /// Resolve a page id to its title.
    pub fn page_title(&self, id: PageId) -> &str {
        self.dims.pages.resolve(id.0)
    }

    /// Resolve a value id to its text.
    pub fn value_text(&self, id: ValueId) -> &str {
        self.dims.values.resolve(id.0)
    }

    /// Look up an entity by name.
    pub fn entity_id(&self, name: &str) -> Option<EntityId> {
        self.dims.entities.get(name).map(EntityId)
    }

    /// Look up a property by name.
    pub fn property_id(&self, name: &str) -> Option<PropertyId> {
        self.dims.properties.get(name).map(PropertyId)
    }

    /// Look up a template by name.
    pub fn template_id(&self, name: &str) -> Option<TemplateId> {
        self.dims.templates.get(name).map(TemplateId)
    }

    /// Look up a page by title.
    pub fn page_id(&self, title: &str) -> Option<PageId> {
        self.dims.pages.get(title).map(PageId)
    }

    /// The entity-name interner (id-ordered).
    pub fn entities(&self) -> &Interner {
        &self.dims.entities
    }

    /// The property-name interner (id-ordered).
    pub fn properties(&self) -> &Interner {
        &self.dims.properties
    }

    /// The template-name interner (id-ordered).
    pub fn templates(&self) -> &Interner {
        &self.dims.templates
    }

    /// The page-title interner (id-ordered).
    pub fn pages(&self) -> &Interner {
        &self.dims.pages
    }

    /// The value interner (id-ordered).
    pub fn values(&self) -> &Interner {
        &self.dims.values
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
    /// kinds (see [`DayListStore`]). Built lazily on first use and shared
    /// by `Arc` — the index, the Apriori transaction builder and the
    /// statistics all read this one copy instead of re-deriving day lists
    /// from the change table.
    pub fn day_lists(&self) -> &Arc<DayListStore> {
        self.day_store
            .get_or_init(|| Arc::new(DayListStore::build(self, None)))
    }

    /// Heap bytes of the columnar change table.
    pub fn change_table_bytes(&self) -> usize {
        self.columns.heap_bytes()
    }

    /// A new cube keeping only the changes for which `keep` returns
    /// `true`, in order. The dimension tables are shared, not copied, so
    /// ids remain stable across filtering. See
    /// [`ChangeCube::retain_rows`].
    pub fn retain_changes(&self, mut keep: impl FnMut(&Change) -> bool) -> ChangeCube {
        self.retain_rows(|i| keep(&self.columns.get(i)))
    }

    /// A new cube keeping only the rows `i` of the canonical order for
    /// which `keep(i)` returns `true`: the primitive the filter pipeline
    /// is built on, for predicates that read only some of
    /// [`ChangeCube::columns`]. `keep` is called exactly once per row, in
    /// row order. It marks a bitmap; each output column is then allocated
    /// once at its exact length. The dimension tables are shared.
    pub fn retain_rows(&self, mut keep: impl FnMut(usize) -> bool) -> ChangeCube {
        let n = self.num_changes();
        let mut mask = vec![0u64; n.div_ceil(64)];
        let mut kept = 0usize;
        for (w, word) in mask.iter_mut().enumerate() {
            let base = w * 64;
            for i in base..n.min(base + 64) {
                if keep(i) {
                    *word |= 1 << (i - base);
                }
            }
            kept += word.count_ones() as usize;
        }
        ChangeCube {
            dims: Arc::clone(&self.dims),
            columns: self.columns.select(&mask, kept),
            day_store: OnceLock::new(),
        }
    }

    /// A new cube over the same (shared) dimension tables with `changes`
    /// as the change table, re-sorted and with same-day writes collapsed
    /// last-wins if needed. Ids must refer to this cube's tables.
    pub fn with_changes(&self, changes: Vec<Change>) -> Result<ChangeCube, CubeError> {
        let mut columns = ChangeColumns::default();
        columns.reserve(changes.len());
        for c in changes {
            columns.push(c);
        }
        ChangeCube::from_parts(Arc::clone(&self.dims), columns)
    }
}

/// Incremental constructor for [`ChangeCube`]s.
///
/// The builder interns strings on the fly, enforces the one-template /
/// one-page invariant per entity, and appends each change to the six
/// columns of a [`ChangeColumns`] in call order.
/// [`ChangeCubeBuilder::finish`] hands them to the cube constructor,
/// which sorts them and collapses same-day writes to one slot (the last
/// call wins) once.
#[derive(Debug, Default)]
pub struct ChangeCubeBuilder {
    dims: Dimensions,
    changes: ChangeColumns,
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
        let template = TemplateId(self.dims.templates.intern(template));
        let page = PageId(self.dims.pages.intern(page));
        let id = self.dims.entities.intern(name);
        let meta = EntityMeta { template, page };
        if let Some(existing) = self.dims.entity_meta.get(id as usize) {
            assert_eq!(
                *existing, meta,
                "entity {name:?} re-registered with different template or page"
            );
        } else {
            self.dims.entity_meta.push(meta);
        }
        EntityId(id)
    }

    /// Register (or look up) a property name.
    pub fn property(&mut self, name: &str) -> PropertyId {
        PropertyId(self.dims.properties.intern(name))
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
            entity.index() < self.dims.entity_meta.len(),
            "change references unregistered entity {entity}"
        );
        assert!(
            property.index() < self.dims.properties.len(),
            "change references unregistered property {property}"
        );
        let value = ValueId(self.dims.values.intern(value));
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
        let id = self.dims.entities.get(name)?;
        let meta = self.dims.entity_meta[id as usize];
        Some((
            self.dims.templates.resolve(meta.template.0),
            self.dims.pages.resolve(meta.page.0),
        ))
    }

    /// Finalize into an immutable, canonically-ordered cube.
    pub fn finish(self) -> ChangeCube {
        ChangeCube::from_parts(Arc::new(self.dims), self.changes)
            .unwrap_or_else(|e| panic!("builder maintains referential integrity: {e}"))
    }
}

/// The first id in `ids` that does not resolve in a table of `bound`
/// entries, as a [`CubeError::DanglingId`] naming the change `column`.
fn check_ids<I: Copy + Into<usize> + std::fmt::Display>(
    ids: &[I],
    bound: usize,
    column: &str,
) -> Result<(), CubeError> {
    match ids.iter().find(|&&id| id.into() >= bound) {
        Some(id) => Err(CubeError::DanglingId(format!("change {column} {id}"))),
        None => Ok(()),
    }
}

/// Sort `cols` by `(day, entity, property)` and keep each key's last row
/// (see [`ChangeCube::from_parts`]), gathering each column into a vector
/// of exactly the surviving length.
fn canonicalize(mut cols: ChangeColumns) -> Result<ChangeColumns, CubeError> {
    let n = cols.len();
    if u32::try_from(n).is_err() {
        return Err(CubeError::Corrupt(format!(
            "{n} changes exceed the {} rows one cube can order",
            u32::MAX
        )));
    }
    let min_day = cols.days.iter().min().map_or(0, |d| d.day_number());
    let mut keys: Vec<u128> = (0..n)
        .map(|i| {
            // Day numbers are i32, so the offset fits in 32 bits.
            let day = (i64::from(cols.days[i].day_number()) - i64::from(min_day)) as u128;
            day << 96
                | u128::from(cols.entities[i].0) << 64
                | u128::from(cols.properties[i].0) << 32
                | i as u128
        })
        .collect();
    keys.sort_unstable();
    // Within a run of equal `(day, entity, property)` the row indices
    // ascend, so keeping the run's last key keeps the latest write.
    keys.dedup_by(|later, kept| {
        let same_slot = *later >> 32 == *kept >> 32;
        if same_slot {
            *kept = *later;
        }
        same_slot
    });
    // One column at a time, so at most one old column is live beside the
    // keys and its replacement.
    cols.days = gather_rows(&cols.days, &keys);
    cols.entities = gather_rows(&cols.entities, &keys);
    cols.properties = gather_rows(&cols.properties, &keys);
    cols.values = gather_rows(&cols.values, &keys);
    cols.kinds = gather_rows(&cols.kinds, &keys);
    cols.flags = gather_rows(&cols.flags, &keys);
    Ok(cols)
}

/// The elements of `column` at the row indices in the low 32 bits of
/// `keys`, in key order.
fn gather_rows<T: Copy>(column: &[T], keys: &[u128]) -> Vec<T> {
    keys.iter().map(|&k| column[k as u32 as usize]).collect()
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
        assert!(cube.change_table_bytes() < cube.num_changes() * std::mem::size_of::<Change>());
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
        assert_eq!(list, [day(1), day(2), day(4)]);
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
    fn derived_cubes_share_dimensions() {
        let cube = small_cube();
        let dims = cube.dimensions();
        assert!(Arc::ptr_eq(cube.clone().dimensions(), dims));
        let retained = cube.retain_changes(|c| c.day > day(5));
        assert!(Arc::ptr_eq(retained.dimensions(), dims));
        let rebuilt = cube.with_changes(cube.changes_vec()).unwrap();
        assert!(Arc::ptr_eq(rebuilt.dimensions(), dims));
        // `slice` re-interns into fresh tables.
        let sliced = crate::slice(&cube, DateRange::new(day(0), day(100)));
        assert!(!Arc::ptr_eq(sliced.dimensions(), dims));
    }

    #[test]
    fn retain_rows_keeps_marked_rows_at_exact_length() {
        // More than one 64-row mask word, with a partial last word.
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("Ali", "infobox boxer", "Muhammad Ali");
        let p = b.property("wins");
        for d in 0..150 {
            b.change(day(d), e, p, &d.to_string(), ChangeKind::Update);
        }
        let cube = b.finish();
        let mut visited = Vec::new();
        let kept = cube.retain_rows(|i| {
            visited.push(i);
            i % 3 == 0 || i >= 140
        });
        assert_eq!(visited, (0..150).collect::<Vec<_>>());
        let want: Vec<Change> = cube
            .iter_changes()
            .enumerate()
            .filter(|&(i, _)| i % 3 == 0 || i >= 140)
            .map(|(_, c)| c)
            .collect();
        assert_eq!(kept.changes_vec(), want);
        assert_eq!(kept.change_table_bytes(), want.len() * 18);
        assert_eq!(cube.retain_rows(|_| false).num_changes(), 0);
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

    /// The row path `from_parts` replaced, kept as its reference: a
    /// stable sort by key, a last-wins `dedup_by`, then the rows split
    /// into columns.
    fn row_reference(mut rows: Vec<Change>) -> ChangeColumns {
        rows.sort_by_key(|c| c.sort_key());
        rows.dedup_by(|cur, prev| {
            if cur.sort_key() == prev.sort_key() {
                *prev = *cur;
                true
            } else {
                false
            }
        });
        columns_of(&rows)
    }

    fn columns_of(rows: &[Change]) -> ChangeColumns {
        let mut cols = ChangeColumns::default();
        cols.reserve(rows.len());
        for &c in rows {
            cols.push(c);
        }
        cols
    }

    /// Dimension tables with `n` entities, properties and values.
    fn dims_of(n: usize) -> Arc<Dimensions> {
        let table = |prefix: &str, n: usize| {
            let mut t = Interner::new();
            for i in 0..n {
                t.intern(&format!("{prefix}{i}"));
            }
            t
        };
        let meta = EntityMeta {
            template: TemplateId(0),
            page: PageId(0),
        };
        let dims = Dimensions::new(
            table("e", n),
            table("p", n),
            table("t", 1),
            table("pg", 1),
            table("v", n),
            vec![meta; n],
        );
        Arc::new(dims.unwrap())
    }

    /// `from_parts` on `rows` gives the reference's rows in exact-length
    /// columns.
    fn assert_matches_row_reference(rows: &[Change]) {
        let want = row_reference(rows.to_vec());
        let cube = ChangeCube::from_parts(dims_of(8), columns_of(rows)).unwrap();
        let want_rows: Vec<Change> = (0..want.len()).map(|i| want.get(i)).collect();
        assert_eq!(cube.changes_vec(), want_rows);
        assert_eq!(cube.change_table_bytes(), want.len() * 18);
    }

    fn change(day_n: i32, entity: u32, property: u32, value: u32, kind: u8) -> Change {
        Change {
            day: day(day_n),
            entity: EntityId(entity),
            property: PropertyId(property),
            value: ValueId(value),
            kind: ChangeKind::from_u8(kind).unwrap(),
            flags: ChangeFlags::from_bits(value as u8),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// Random unsorted columns over a small key space, so most cases
        /// hold same-day writes to one slot.
        #[test]
        fn from_parts_matches_row_reference(
            rows in proptest::collection::vec(
                (-3i32..6, 0u32..3, 0u32..3, 0u32..8, 0u8..3),
                0..120,
            ),
        ) {
            let rows: Vec<Change> = rows
                .into_iter()
                .map(|(d, e, p, v, k)| change(d, e, p, v, k))
                .collect();
            assert_matches_row_reference(&rows);
        }
    }

    #[test]
    fn from_parts_matches_row_reference_on_edge_cases() {
        assert_matches_row_reference(&[]);
        // Every row shares one key: the last write alone survives.
        let same: Vec<Change> = (0..7).map(|v| change(2, 1, 1, v, 1)).collect();
        assert_matches_row_reference(&same);
        let cube = ChangeCube::from_parts(dims_of(8), columns_of(&same)).unwrap();
        assert_eq!(cube.changes_vec(), vec![change(2, 1, 1, 6, 1)]);
        // The widest day span: the offset from the first day needs all 32 bits.
        let spread = [
            change(i32::MAX, 0, 0, 0, 0),
            change(i32::MIN, 7, 7, 1, 1),
            change(0, 3, 0, 2, 2),
        ];
        assert_matches_row_reference(&spread);
    }

    #[test]
    fn from_parts_moves_canonical_columns_in_without_copying() {
        let rows: Vec<Change> = (0..50)
            .map(|i| change(i / 5, (i % 5) as u32, 1, (i % 8) as u32, 1))
            .collect();
        let cols = row_reference(rows.clone());
        assert_eq!(cols.len(), rows.len(), "already canonical");
        let days = cols.days().as_ptr();
        let values = cols.values().as_ptr();
        let cube = ChangeCube::from_parts(dims_of(8), cols).unwrap();
        assert_eq!(cube.changes_vec(), rows);
        assert_eq!(cube.columns().days().as_ptr(), days);
        assert_eq!(cube.columns().values().as_ptr(), values);
    }
}
