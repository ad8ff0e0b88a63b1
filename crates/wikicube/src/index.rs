//! Derived access paths over a [`ChangeCube`].
//!
//! The predictors need three views that the canonical time-major change
//! table does not give directly:
//!
//! * **field → change days** (field-correlation vectors, baselines),
//! * **page → fields** (the per-page correlation search of §3.2),
//! * **template → entities / properties** (transaction building of §3.3).
//!
//! The field → days view is the shared [`DayListStore`], whose lists are
//! sorted `&[Date]` slices: when the index's kinds cover every change the
//! cube holds (all kinds, or updates on a paper-filtered cube) it borrows
//! the cube's own canonical store by `Arc` instead of re-deriving it;
//! otherwise the kind-filtered view is built once here. Page and template
//! views are materialized in compressed-sparse-row layout.
//! Fields get a dense index (`usize` position in [`CubeIndex::fields`])
//! so downstream code can use plain vectors keyed by field position.

use crate::change::ChangeKind;
use crate::cube::ChangeCube;
use crate::date::Date;
use crate::daylist::DayListStore;
use crate::ids::{EntityId, FieldId, PageId, PropertyId, TemplateId};
use std::sync::Arc;

/// CSR-layout index over a cube snapshot.
///
/// The index is a *snapshot*: it refers to the change table of the cube it
/// was built from and must be rebuilt after filtering.
#[derive(Debug, Clone)]
pub struct CubeIndex {
    /// Per-field day lists, shared with the cube when the index's kinds
    /// cover every change the cube holds. Also owns the sorted `fields`
    /// vector and the field → position map.
    store: Arc<DayListStore>,
    /// CSR page → field positions.
    page_offsets: Vec<u32>,
    page_fields: Vec<u32>,
    /// CSR template → entities (entities that have ≥ 1 change).
    template_entity_offsets: Vec<u32>,
    template_entities: Vec<EntityId>,
    /// CSR template → distinct changed properties.
    template_property_offsets: Vec<u32>,
    template_properties: Vec<PropertyId>,
}

impl CubeIndex {
    /// Build the index for `cube`, considering only changes of `kinds`
    /// (most callers want updates only — pass
    /// `&[ChangeKind::Update]` — but the dataset statistics want all).
    pub fn build_for_kinds(cube: &ChangeCube, kinds: &[ChangeKind]) -> CubeIndex {
        let covers_cube = cube.columns().kinds().iter().all(|k| kinds.contains(k));
        let store = if covers_cube {
            // Every change of the cube passes the kind filter, so the
            // cube's canonical day lists are exactly this view (always so
            // for a paper-filtered, update-only cube); share that store
            // instead of rebuilding it.
            Arc::clone(cube.day_lists())
        } else {
            Arc::new(DayListStore::build(cube, Some(kinds)))
        };
        CubeIndex::from_store(cube, store)
    }

    /// Assemble the page and template CSR views around a day-list store.
    fn from_store(cube: &ChangeCube, store: Arc<DayListStore>) -> CubeIndex {
        // Page → fields. Fields are already entity-sorted, so pushing in
        // order keeps each page's field list sorted by position.
        let mut page_lists: Vec<Vec<u32>> = vec![Vec::new(); cube.num_pages()];
        for (pos, f) in store.fields().iter().enumerate() {
            page_lists[cube.page_of(f.entity).index()].push(pos as u32);
        }
        let (page_offsets, page_fields) = to_csr(page_lists);

        // Template → entities and → properties.
        let mut template_entity_lists: Vec<Vec<EntityId>> = vec![Vec::new(); cube.num_templates()];
        let mut template_property_lists: Vec<Vec<PropertyId>> =
            vec![Vec::new(); cube.num_templates()];
        let mut last_entity: Option<EntityId> = None;
        for f in store.fields() {
            let t = cube.template_of(f.entity).index();
            if last_entity != Some(f.entity) {
                template_entity_lists[t].push(f.entity);
                last_entity = Some(f.entity);
            }
            template_property_lists[t].push(f.property);
        }
        for props in &mut template_property_lists {
            props.sort_unstable();
            props.dedup();
        }
        let (template_entity_offsets, template_entities) = to_csr(template_entity_lists);
        let (template_property_offsets, template_properties) = to_csr(template_property_lists);

        CubeIndex {
            store,
            page_offsets,
            page_fields,
            template_entity_offsets,
            template_entities,
            template_property_offsets,
            template_properties,
        }
    }

    /// Build the index over update changes only (the predictors' view).
    pub fn build(cube: &ChangeCube) -> CubeIndex {
        CubeIndex::build_for_kinds(cube, &[ChangeKind::Update])
    }

    /// The underlying shared day-list store.
    pub fn day_lists(&self) -> &Arc<DayListStore> {
        &self.store
    }

    /// Number of indexed fields.
    pub fn num_fields(&self) -> usize {
        self.store.num_fields()
    }

    /// All indexed fields, sorted by `(entity, property)`.
    pub fn fields(&self) -> &[FieldId] {
        self.store.fields()
    }

    /// The field at dense position `pos`.
    pub fn field(&self, pos: usize) -> FieldId {
        self.store.field(pos)
    }

    /// Dense position of `field`, if it has any indexed change.
    pub fn position(&self, field: FieldId) -> Option<usize> {
        self.store.position(field)
    }

    /// Sorted change days of the field at `pos`.
    pub fn days(&self, pos: usize) -> &[Date] {
        self.store.list(pos)
    }

    /// Whether the field at `pos` changed on any day in `[start, end)`.
    pub fn changed_in(&self, pos: usize, start: Date, end: Date) -> bool {
        let days = self.days(pos);
        let first = days.partition_point(|&d| d < start);
        days.get(first).is_some_and(|&d| d < end)
    }

    /// Dense positions of all fields on `page`, ascending.
    pub fn fields_on_page(&self, page: PageId) -> &[u32] {
        let lo = self.page_offsets[page.index()] as usize;
        let hi = self.page_offsets[page.index() + 1] as usize;
        &self.page_fields[lo..hi]
    }

    /// Number of pages the index knows about (same as the cube's).
    pub fn num_pages(&self) -> usize {
        self.page_offsets.len() - 1
    }

    /// Entities of `template` that have at least one indexed change.
    pub fn entities_of_template(&self, template: TemplateId) -> &[EntityId] {
        let lo = self.template_entity_offsets[template.index()] as usize;
        let hi = self.template_entity_offsets[template.index() + 1] as usize;
        &self.template_entities[lo..hi]
    }

    /// Distinct changed properties of `template`, sorted.
    pub fn properties_of_template(&self, template: TemplateId) -> &[PropertyId] {
        let lo = self.template_property_offsets[template.index()] as usize;
        let hi = self.template_property_offsets[template.index() + 1] as usize;
        &self.template_properties[lo..hi]
    }

    /// Number of templates the index knows about (same as the cube's).
    pub fn num_templates(&self) -> usize {
        self.template_entity_offsets.len() - 1
    }

    /// Total number of indexed change days across all fields.
    pub fn total_days(&self) -> usize {
        self.store.total_days()
    }
}

/// Convert per-row lists into CSR `(offsets, data)`.
fn to_csr<T>(lists: Vec<Vec<T>>) -> (Vec<u32>, Vec<T>) {
    let mut offsets = Vec::with_capacity(lists.len() + 1);
    let mut data = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    offsets.push(0u32);
    for list in lists {
        data.extend(list);
        offsets.push(data.len() as u32);
    }
    (offsets, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::ChangeCubeBuilder;

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    fn cube() -> ChangeCube {
        let mut b = ChangeCubeBuilder::new();
        let ali = b.entity("Ali", "infobox boxer", "Muhammad Ali");
        let tyson = b.entity("Tyson", "infobox boxer", "Mike Tyson");
        let london = b.entity("London", "infobox settlement", "London");
        let wins = b.property("wins");
        let ko = b.property("ko");
        let pop = b.property("population_est");
        for d in [3, 1, 2] {
            b.change(day(d), ali, wins, "w", ChangeKind::Update);
        }
        b.change(day(1), ali, ko, "k", ChangeKind::Update);
        b.change(day(9), tyson, wins, "w", ChangeKind::Update);
        b.change(day(0), london, pop, "p", ChangeKind::Create);
        b.change(day(4), london, pop, "p2", ChangeKind::Update);
        b.change(day(8), london, pop, "", ChangeKind::Delete);
        b.finish()
    }

    #[test]
    fn fields_are_update_only_by_default() {
        let cube = cube();
        let idx = CubeIndex::build(&cube);
        // Fields: Ali/wins, Ali/ko, Tyson/wins, London/pop → 4 fields.
        assert_eq!(idx.num_fields(), 4);
        let london = cube.entity_id("London").unwrap();
        let pop = cube.property_id("population_est").unwrap();
        let pos = idx.position(FieldId::new(london, pop)).unwrap();
        // Only the update on day 4 is indexed; create/delete are not.
        assert_eq!(idx.days(pos), [day(4)]);
    }

    #[test]
    fn all_kinds_index_sees_creates_and_deletes() {
        let cube = cube();
        let idx = CubeIndex::build_for_kinds(
            &cube,
            &[ChangeKind::Create, ChangeKind::Update, ChangeKind::Delete],
        );
        let london = cube.entity_id("London").unwrap();
        let pop = cube.property_id("population_est").unwrap();
        let pos = idx.position(FieldId::new(london, pop)).unwrap();
        assert_eq!(idx.days(pos), [day(0), day(4), day(8)]);
    }

    #[test]
    fn all_kinds_index_shares_the_cube_store() {
        let cube = cube();
        let idx = CubeIndex::build_for_kinds(
            &cube,
            &[ChangeKind::Create, ChangeKind::Update, ChangeKind::Delete],
        );
        assert!(Arc::ptr_eq(idx.day_lists(), cube.day_lists()));
        // The kind-filtered view is a distinct, smaller store.
        let update_only = CubeIndex::build(&cube);
        assert!(!Arc::ptr_eq(update_only.day_lists(), cube.day_lists()));
        assert!(update_only.total_days() < idx.total_days());
    }

    #[test]
    fn days_are_sorted_per_field() {
        let cube = cube();
        let idx = CubeIndex::build(&cube);
        let ali = cube.entity_id("Ali").unwrap();
        let wins = cube.property_id("wins").unwrap();
        let pos = idx.position(FieldId::new(ali, wins)).unwrap();
        assert_eq!(idx.days(pos), [day(1), day(2), day(3)]);
    }

    #[test]
    fn changed_in_half_open_window() {
        let cube = cube();
        let idx = CubeIndex::build(&cube);
        let ali = cube.entity_id("Ali").unwrap();
        let wins = cube.property_id("wins").unwrap();
        let pos = idx.position(FieldId::new(ali, wins)).unwrap();
        assert!(idx.changed_in(pos, day(1), day(2)));
        assert!(idx.changed_in(pos, day(3), day(10)));
        assert!(!idx.changed_in(pos, day(4), day(10)));
        assert!(!idx.changed_in(pos, day(0), day(1)));
    }

    #[test]
    fn page_field_lists() {
        let cube = cube();
        let idx = CubeIndex::build(&cube);
        let ali_page = cube.page_id("Muhammad Ali").unwrap();
        let on_page = idx.fields_on_page(ali_page);
        assert_eq!(on_page.len(), 2);
        for &pos in on_page {
            assert_eq!(
                idx.field(pos as usize).entity,
                cube.entity_id("Ali").unwrap()
            );
        }
        assert_eq!(idx.num_pages(), 3);
    }

    #[test]
    fn template_views() {
        let cube = cube();
        let idx = CubeIndex::build(&cube);
        let boxer = cube.template_id("infobox boxer").unwrap();
        let entities = idx.entities_of_template(boxer);
        assert_eq!(entities.len(), 2);
        let props = idx.properties_of_template(boxer);
        assert_eq!(props.len(), 2); // wins, ko (deduplicated across entities)
        let settlement = cube.template_id("infobox settlement").unwrap();
        assert_eq!(idx.properties_of_template(settlement).len(), 1);
        assert_eq!(idx.num_templates(), 2);
    }

    #[test]
    fn unknown_field_has_no_position() {
        let cube = cube();
        let idx = CubeIndex::build(&cube);
        let ali = cube.entity_id("Ali").unwrap();
        let pop = cube.property_id("population_est").unwrap();
        assert_eq!(idx.position(FieldId::new(ali, pop)), None);
    }

    #[test]
    fn empty_cube_yields_empty_index() {
        let cube = ChangeCubeBuilder::new().finish();
        let idx = CubeIndex::build(&cube);
        assert_eq!(idx.num_fields(), 0);
        assert_eq!(idx.total_days(), 0);
        assert_eq!(idx.num_pages(), 0);
        assert_eq!(idx.num_templates(), 0);
    }
}
