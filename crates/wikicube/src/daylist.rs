//! Shared per-field day lists.
//!
//! Every stage of the pipeline needs "the sorted change days of field X":
//! the per-day index, the correlation pair search, the baselines, the
//! Apriori transaction builder and the ground truth. [`DayListStore`]
//! materializes them **once**, as one compressed-sparse-row arena of
//! plain days, and is shared by reference (`Arc`) between the cube, the
//! index and the predictors.
//!
//! A field's days are strictly increasing (the cube is canonical: at most
//! one change per `(entity, property, day)`), so every list is a sorted
//! `&[Date]`: callers binary-search it, slice a window out of it with
//! [`in_range`], or walk it forward with a plain index.

use crate::change::ChangeKind;
use crate::cube::ChangeCube;
use crate::date::{Date, DateRange};
use crate::ids::{EntityId, FieldId, PropertyId};

/// One sorted day list per field, stored in a shared CSR arena.
///
/// Fields are sorted by `(entity, property)` and addressed by dense
/// position, exactly like [`crate::CubeIndex`] positions.
#[derive(Debug, Clone, Default)]
pub struct DayListStore {
    /// All fields with at least one stored day, sorted.
    fields: Vec<FieldId>,
    /// CSR offsets into `days` (`fields.len() + 1` entries).
    offsets: Vec<u32>,
    /// Every field's days, concatenated in field order.
    days: Vec<Date>,
    /// Entity id → position of its first field (`num_entities + 1`
    /// entries), so an entity's fields are one contiguous run.
    entity_fields: Vec<u32>,
}

impl DayListStore {
    /// Build the store over `cube`'s changes of `kinds` (`None` keeps
    /// every kind), serially, from the day-major columns:
    ///
    /// 1. a counting sort by entity, which keeps each entity's days
    ///    ascending;
    /// 2. a sort of each entity's rows by `(property, day)`, which groups
    ///    its fields and keeps their days ascending;
    /// 3. one walk that emits the fields and their offsets.
    pub(crate) fn build(cube: &ChangeCube, kinds: Option<&[ChangeKind]>) -> DayListStore {
        let cols = cube.columns();
        let kept =
            || (0..cols.len()).filter(|&i| kinds.is_none_or(|ks| ks.contains(&cols.kinds()[i])));

        // `bounds[e]` counts entity `e`'s rows, then (inclusive prefix
        // sum) marks their end. Scattering rows backwards, each one taking
        // the slot before its entity's mark, leaves `bounds[e]` at the
        // entity's first row and its days ascending.
        let num_entities = cube.num_entities();
        let mut bounds = vec![0u32; num_entities + 1];
        for i in kept() {
            bounds[cols.entities()[i].index()] += 1;
        }
        let mut total = 0u32;
        for b in &mut bounds[..num_entities] {
            total += *b;
            *b = total;
        }
        bounds[num_entities] = total;
        let mut days = vec![Date::EPOCH; total as usize];
        let mut props = vec![PropertyId(0); total as usize];
        for i in kept().rev() {
            let slot = &mut bounds[cols.entities()[i].index()];
            *slot -= 1;
            days[*slot as usize] = cols.days()[i];
            props[*slot as usize] = cols.properties()[i];
        }

        // A `(property, day)` pair occurs once per entity, so the
        // unstable sort orders each entity's rows as a stable sort by
        // property would.
        let mut pairs: Vec<(PropertyId, Date)> = Vec::new();
        let mut num_fields = 0;
        for w in bounds.windows(2) {
            let rows = w[0] as usize..w[1] as usize;
            if !props[rows.clone()].is_sorted() {
                pairs.clear();
                pairs.extend(rows.clone().map(|i| (props[i], days[i])));
                pairs.sort_unstable();
                for (i, &(p, d)) in rows.clone().zip(&pairs) {
                    props[i] = p;
                    days[i] = d;
                }
            }
            num_fields += props[rows].chunk_by(PartialEq::eq).count();
        }
        drop(pairs);

        // Emit each entity's fields. `bounds[e]` is read as the entity's
        // first row, then overwritten with its first field.
        let mut fields = Vec::with_capacity(num_fields);
        let mut offsets = Vec::with_capacity(num_fields + 1);
        for e in 0..num_entities {
            let (mut row, end) = (bounds[e], bounds[e + 1]);
            bounds[e] = fields.len() as u32;
            for run in props[row as usize..end as usize].chunk_by(PartialEq::eq) {
                fields.push(FieldId::new(EntityId::from_index(e), run[0]));
                offsets.push(row);
                row += run.len() as u32;
            }
        }
        bounds[num_entities] = fields.len() as u32;
        offsets.push(total);
        DayListStore {
            fields,
            offsets,
            days,
            entity_fields: bounds,
        }
    }

    /// Number of fields with at least one stored day.
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// All fields, sorted by `(entity, property)`.
    pub fn fields(&self) -> &[FieldId] {
        &self.fields
    }

    /// The field at dense position `pos`.
    pub fn field(&self, pos: usize) -> FieldId {
        self.fields[pos]
    }

    /// Dense position of `field`, if present: a binary search over its
    /// entity's fields.
    pub fn position(&self, field: FieldId) -> Option<usize> {
        let e = field.entity.index();
        let lo = *self.entity_fields.get(e)? as usize;
        let hi = *self.entity_fields.get(e + 1)? as usize;
        let i = self.fields[lo..hi]
            .binary_search_by_key(&field.property, |f| f.property)
            .ok()?;
        Some(lo + i)
    }

    /// The sorted days of the field at dense position `pos`.
    pub fn list(&self, pos: usize) -> &[Date] {
        &self.days[self.offsets[pos] as usize..self.offsets[pos + 1] as usize]
    }

    /// The sorted days of `field`, if present.
    pub fn get(&self, field: FieldId) -> Option<&[Date]> {
        self.position(field).map(|pos| self.list(pos))
    }

    /// Iterate `(position, field, days)` in field order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, FieldId, &[Date])> {
        (0..self.fields.len()).map(move |pos| (pos, self.fields[pos], self.list(pos)))
    }

    /// Total number of stored days across all fields.
    pub fn total_days(&self) -> usize {
        self.days.len()
    }

    /// Heap bytes held by the store's vectors, counted by capacity.
    pub fn heap_bytes(&self) -> usize {
        self.fields.capacity() * std::mem::size_of::<FieldId>()
            + (self.offsets.capacity() + self.entity_fields.capacity()) * 4
            + self.days.capacity() * std::mem::size_of::<Date>()
    }
}

/// The days of the sorted `days` that fall inside the half-open `range`.
pub fn in_range(days: &[Date], range: DateRange) -> &[Date] {
    let lo = days.partition_point(|&d| d < range.start());
    let hi = lo + days[lo..].partition_point(|&d| d < range.end());
    &days[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::ChangeCubeBuilder;
    use crate::index::CubeIndex;
    use proptest::prelude::*;

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    fn field(e: u32, p: u32) -> FieldId {
        FieldId::new(EntityId(e), PropertyId(p))
    }

    fn dates(days: &[i32]) -> Vec<Date> {
        days.iter().map(|&n| day(n)).collect()
    }

    /// A cube whose update changes are exactly `lists`; entity `e` and
    /// property `p` are registered in id order, so `field(e, p)` names
    /// the cube's field.
    fn cube_of(lists: &[(FieldId, Vec<i32>)]) -> ChangeCube {
        let mut b = ChangeCubeBuilder::new();
        let max_e = lists.iter().map(|(f, _)| f.entity.0).max().unwrap_or(0);
        let max_p = lists.iter().map(|(f, _)| f.property.0).max().unwrap_or(0);
        for e in 0..=max_e {
            b.entity(&format!("e{e}"), "t", &format!("page {e}"));
        }
        for p in 0..=max_p {
            b.property(&format!("p{p}"));
        }
        for (f, days) in lists {
            for &d in days {
                b.change(day(d), f.entity, f.property, "v", ChangeKind::Update);
            }
        }
        b.finish()
    }

    fn store_of(lists: &[(FieldId, Vec<i32>)]) -> DayListStore {
        DayListStore::build(&cube_of(lists), None)
    }

    #[test]
    fn empty_store() {
        for store in [DayListStore::default(), store_of(&[])] {
            assert_eq!(store.num_fields(), 0);
            assert_eq!(store.total_days(), 0);
            assert!(store.get(field(0, 0)).is_none());
        }
    }

    #[test]
    fn round_trips_simple_lists() {
        let store = store_of(&[
            (field(0, 0), vec![1, 2, 3, 10, 11, 40]),
            (field(0, 1), vec![5]),
            (field(1, 0), vec![0, 100, 200]),
        ]);
        assert_eq!(store.num_fields(), 3);
        assert_eq!(store.total_days(), 10);
        assert_eq!(
            store.get(field(0, 0)).unwrap(),
            dates(&[1, 2, 3, 10, 11, 40])
        );
        assert_eq!(store.get(field(0, 1)).unwrap(), [day(5)]);
        assert_eq!(store.get(field(1, 0)).unwrap(), dates(&[0, 100, 200]));
        assert!(store.heap_bytes() >= store.total_days() * 4);
    }

    #[test]
    fn fields_are_sorted_and_positioned() {
        let store = store_of(&[
            (field(2, 0), vec![3]),
            (field(0, 5), vec![1]),
            (field(0, 1), vec![2]),
        ]);
        assert_eq!(store.fields(), &[field(0, 1), field(0, 5), field(2, 0)]);
        assert_eq!(store.position(field(0, 5)), Some(1));
        assert_eq!(store.field(2), field(2, 0));
        // A property absent on an entity, an entity with no field, and
        // entities past the last one.
        assert_eq!(store.position(field(0, 3)), None);
        assert_eq!(store.position(field(1, 0)), None);
        assert_eq!(store.position(field(3, 0)), None);
        assert_eq!(store.position(field(9, 9)), None);
        let collected: Vec<FieldId> = store.iter().map(|(_, f, _)| f).collect();
        assert_eq!(collected, store.fields());
    }

    #[test]
    fn kind_filter_keeps_only_those_kinds() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("e", "t", "page");
        let (p, q) = (b.property("p"), b.property("q"));
        b.change(day(0), e, p, "v", ChangeKind::Create);
        b.change(day(2), e, p, "w", ChangeKind::Update);
        b.change(day(1), e, q, "v", ChangeKind::Create);
        b.change(day(5), e, p, "", ChangeKind::Delete);
        let cube = b.finish();
        let updates = DayListStore::build(&cube, Some(&[ChangeKind::Update]));
        assert_eq!(updates.fields(), &[FieldId::new(e, p)]);
        assert_eq!(updates.list(0), [day(2)]);
        assert_eq!(updates.position(FieldId::new(e, q)), None);
        let all = DayListStore::build(&cube, None);
        assert_eq!(all.get(FieldId::new(e, p)).unwrap(), dates(&[0, 2, 5]));
        assert_eq!(all.get(FieldId::new(e, q)).unwrap(), [day(1)]);
    }

    #[test]
    fn first_last_and_counts() {
        let store = store_of(&[
            (field(0, 0), vec![2, 3, 4, 9, 20, 21]),
            (field(1, 1), vec![7]),
        ]);
        let (a, b) = (store.list(0), store.list(1));
        assert_eq!(
            (a.first(), a.last(), a.len()),
            (Some(&day(2)), Some(&day(21)), 6)
        );
        assert_eq!(
            (b.first(), b.last(), b.len()),
            (Some(&day(7)), Some(&day(7)), 1)
        );
        assert_eq!(store.total_days(), 7);
        assert_eq!(store.get(field(1, 0)), None);
    }

    #[test]
    fn changed_in_windows() {
        let cube = cube_of(&[(field(0, 0), vec![5, 6, 7, 30])]);
        let index = CubeIndex::build(&cube);
        let changed = |a: i32, b: i32| index.changed_in(0, day(a), day(b));
        assert!(changed(5, 6));
        assert!(changed(7, 8));
        assert!(changed(0, 100));
        assert!(changed(30, 31));
        assert!(!changed(8, 30));
        assert!(!changed(31, 100));
        assert!(!changed(6, 6));
        assert!(!changed(31, 5));
    }

    #[test]
    fn in_range_slices_windows() {
        let store = store_of(&[(field(0, 0), vec![1, 2, 3, 10, 11, 40])]);
        let days = store.list(0);
        let window = |a: i32, b: i32| in_range(days, DateRange::new(day(a), day(b)));
        assert_eq!(window(0, 100), days);
        assert_eq!(window(2, 100), dates(&[2, 3, 10, 11, 40]));
        assert_eq!(window(2, 11), dates(&[2, 3, 10]));
        assert_eq!(window(4, 10), []);
        assert_eq!(window(41, 50), []);
        assert_eq!(window(3, 3), []);
    }

    /// A 1000-day run: the longest run case of an earlier run-word
    /// encoding, kept as a plain input.
    #[test]
    fn long_runs_split_into_continuation_words() {
        let run: Vec<i32> = (0..1000).collect();
        let store = store_of(&[(field(0, 0), run.clone())]);
        assert_eq!(store.list(0), dates(&run));
        let tail = in_range(store.list(0), DateRange::new(day(998), day(5000)));
        assert_eq!(tail, dates(&[998, 999]));
    }

    /// A 20,000,000-day gap: the escape case of an earlier run-word
    /// encoding, kept as a plain input.
    #[test]
    fn huge_gaps_use_the_escape() {
        let cube = cube_of(&[(field(0, 0), vec![0, 20_000_000])]);
        let index = CubeIndex::build(&cube);
        assert_eq!(index.days(0), dates(&[0, 20_000_000]));
        let far = DateRange::new(day(19_999_999), day(20_000_001));
        assert_eq!(in_range(index.days(0), far), [day(20_000_000)]);
        assert!(index.changed_in(0, day(19_999_999), day(20_000_001)));
        assert!(!index.changed_in(0, day(1), day(20_000_000)));
    }

    #[test]
    fn negative_days_round_trip() {
        let store = store_of(&[
            (field(0, 0), vec![-400, -399, -1]),
            (field(0, 1), vec![-5, 10]),
        ]);
        assert_eq!(store.list(0), dates(&[-400, -399, -1]));
        assert_eq!(store.list(1), dates(&[-5, 10]));
    }

    mod props {
        use super::*;

        /// Strictly increasing day lists with adversarial gaps: dense
        /// runs, small gaps, medium jumps and jumps of about 16.7 million
        /// days. Each step is a (kind, raw) pair mapped to one of four gap
        /// classes.
        fn day_list_strategy() -> impl Strategy<Value = Vec<i32>> {
            (
                -50_000i32..50_000,
                proptest::collection::vec((0u8..4, 0i64..64), 0..40),
            )
                .prop_map(|(start, steps)| {
                    let mut d = start as i64;
                    let mut out = vec![start];
                    for (kind, raw) in steps {
                        let step = match kind {
                            0 => 1,                      // extend a run
                            1 => 1 + raw % 3,            // small gaps
                            2 => 250 + raw % 50,         // medium jumps
                            _ => 0xFF_FFF0 + raw % 0x20, // huge jumps
                        };
                        d += step;
                        if d > i32::MAX as i64 / 2 {
                            break;
                        }
                        out.push(d as i32);
                    }
                    out
                })
        }

        proptest! {
            /// Building a store is the identity on any sorted day sets.
            #[test]
            fn prop_round_trip(lists in proptest::collection::vec(day_list_strategy(), 1..8)) {
                let named: Vec<(FieldId, Vec<i32>)> = lists
                    .into_iter()
                    .enumerate()
                    .map(|(i, l)| (field(i as u32 / 2, i as u32 % 3), l))
                    .collect();
                let store = store_of(&named);
                prop_assert_eq!(store.num_fields(), named.len());
                for (f, days) in &named {
                    prop_assert_eq!(store.get(*f).unwrap(), dates(days));
                }
            }

            /// The window slice and `changed_in` agree with a filter over
            /// the days.
            #[test]
            fn prop_navigation_matches_decoded(days in day_list_strategy(), probe in -60_000i32..60_000) {
                let cube = cube_of(&[(field(0, 0), days.clone())]);
                let index = CubeIndex::build(&cube);
                let (p, end) = (day(probe), day(probe) + 30);
                let range = DateRange::new(p, end);
                let inside: Vec<Date> =
                    dates(&days).into_iter().filter(|&d| range.contains(d)).collect();
                prop_assert_eq!(in_range(index.days(0), range), inside.as_slice());
                prop_assert_eq!(index.changed_in(0, p, end), !inside.is_empty());
            }
        }
    }
}
