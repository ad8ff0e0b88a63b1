//! Shared, delta-encoded per-field day lists.
//!
//! Every stage of the pipeline needs "the sorted change days of field X":
//! the per-day index, the correlation pair search, the baselines and the
//! Apriori transaction builder. Before the columnar refactor each stage
//! re-derived those lists from the row table and kept them as one
//! `Vec<Date>` per field — 4 bytes per day plus a vector header per
//! field. [`DayListStore`] materializes them **once**, in a single CSR
//! arena of delta-encoded `u32` run words, and is shared by reference
//! (`Arc`) between the cube, the index and the predictors.
//!
//! # Encoding
//!
//! A field's days are strictly increasing (the cube is canonical: at most
//! one change per `(entity, property, day)`), so they decompose into
//! maximal runs of consecutive days. Each run is stored as one `u32`
//! word:
//!
//! ```text
//! w = gap << 8 | (len - 1)      gap < 0x00FF_FFFF, 1 <= len <= 256
//! ```
//!
//! `gap` is the distance from the *anchor* — the store-wide base day for
//! a field's first run, `previous run end + 1` afterwards — and `len` is
//! the number of consecutive days. Runs longer than 256 days continue
//! with `gap = 0` words; a gap too large for 24 bits (≈ 46 000 years)
//! escapes to the sentinel `ESCAPE` (`0xFFFF_FFFF`) followed by raw `gap` and `len`
//! words. One day therefore costs at most one word (4 bytes, same as the
//! old `Vec<Date>` element) and a K-day consecutive run costs 4/K bytes
//! per day, with no per-field vector header either way.
//!
//! # Navigation
//!
//! Runs are delta-encoded, so positioning at a day means decoding every
//! run before it. Two access patterns follow:
//!
//! * **Sweeps walk forward.** A caller that asks about many days of one
//!   field in ascending order (every window of an evaluation range) uses
//!   one [`DayCursor`] from [`DayList::cursor`]. `advance_to` only ever
//!   moves forward and decodes each run at most once, so a sweep of `P`
//!   probes costs O(runs + P) per field instead of O(runs × P).
//! * **Single probes seek.** One-off questions ([`DayList::changed_in`],
//!   [`DayList::iter_from`]) decode from the first run and stop at the
//!   probe, O(runs) each.

use crate::change::ChangeKind;
use crate::cube::ChangeCube;
use crate::date::{Date, DateRange};
use crate::fxhash::FxHashMap;
use crate::ids::FieldId;
use std::sync::Arc;

/// Sentinel run word: the next two words are a raw `gap` and `len`.
const ESCAPE: u32 = 0xFFFF_FFFF;
/// Largest gap representable in a packed word.
const MAX_PACKED_GAP: u32 = 0x00FF_FFFE;
/// Largest run length representable in a packed word.
const MAX_PACKED_LEN: u32 = 256;

/// One delta-encoded day list per field, stored in a shared CSR arena.
///
/// Fields are sorted by `(entity, property)` and addressed by dense
/// position, exactly like [`crate::CubeIndex`] positions.
#[derive(Debug, Clone, Default)]
pub struct DayListStore {
    /// All fields with at least one stored day, sorted.
    fields: Vec<FieldId>,
    /// Field id → dense position in `fields`.
    field_pos: FxHashMap<FieldId, u32>,
    /// CSR offsets into `runs` (`fields.len() + 1` entries).
    run_offsets: Vec<u32>,
    /// Packed run words for all fields, concatenated.
    runs: Vec<u32>,
    /// Cumulative day counts (`fields.len() + 1` entries); gives O(1)
    /// per-list length and total.
    count_offsets: Vec<u32>,
    /// Store-wide base day: anchor of every field's first run.
    base: i32,
}

impl DayListStore {
    /// Build a store from per-field day lists. Each list must be strictly
    /// increasing; field order in the map does not matter.
    pub fn from_field_days(per_field: FxHashMap<FieldId, Vec<Date>>) -> DayListStore {
        let mut per_field = per_field;
        let mut fields: Vec<FieldId> = per_field.keys().copied().collect();
        fields.sort_unstable();
        let base = per_field
            .values()
            .filter_map(|d| d.first())
            .map(|d| d.day_number())
            .min()
            .unwrap_or(0);

        let mut field_pos = FxHashMap::default();
        field_pos.reserve(fields.len());
        let mut run_offsets = Vec::with_capacity(fields.len() + 1);
        let mut count_offsets = Vec::with_capacity(fields.len() + 1);
        let mut runs = Vec::new();
        run_offsets.push(0u32);
        count_offsets.push(0u32);
        let mut total = 0u32;
        for (pos, f) in fields.iter().enumerate() {
            field_pos.insert(*f, pos as u32);
            let days = per_field.remove(f).unwrap_or_default();
            encode_days(&mut runs, base, &days);
            total += days.len() as u32;
            run_offsets.push(runs.len() as u32);
            count_offsets.push(total);
        }
        runs.shrink_to_fit();
        DayListStore {
            fields,
            field_pos,
            run_offsets,
            runs,
            count_offsets,
            base,
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

    /// Dense position of `field`, if present.
    pub fn position(&self, field: FieldId) -> Option<usize> {
        self.field_pos.get(&field).map(|&p| p as usize)
    }

    /// The day list at dense position `pos`.
    pub fn list(&self, pos: usize) -> DayList<'_> {
        let lo = self.run_offsets[pos] as usize;
        let hi = self.run_offsets[pos + 1] as usize;
        DayList {
            runs: &self.runs[lo..hi],
            base: self.base,
            count: self.count_offsets[pos + 1] - self.count_offsets[pos],
        }
    }

    /// The day list of `field`, if present.
    pub fn get(&self, field: FieldId) -> Option<DayList<'_>> {
        self.position(field).map(|pos| self.list(pos))
    }

    /// Iterate `(position, field, day list)` in field order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, FieldId, DayList<'_>)> {
        (0..self.fields.len()).map(move |pos| (pos, self.fields[pos], self.list(pos)))
    }

    /// Total number of stored days across all fields.
    pub fn total_days(&self) -> usize {
        self.count_offsets.last().copied().unwrap_or(0) as usize
    }

    /// Heap bytes held by the encoded store (arena vectors plus an
    /// estimate of the position map's table).
    pub fn heap_bytes(&self) -> usize {
        self.fields.len() * std::mem::size_of::<FieldId>()
            + self.runs.capacity() * 4
            + self.run_offsets.capacity() * 4
            + self.count_offsets.capacity() * 4
            + self.field_pos.capacity() * (std::mem::size_of::<FieldId>() + 4)
    }
}

/// Build the per-field day-list map for `cube`, keeping only changes of
/// `kinds` (`None` keeps every kind). Chunks of the day-major change
/// table are scanned in parallel and merged in chunk order, so each
/// field's list stays day-sorted and the result is independent of the
/// thread count.
pub(crate) fn collect_field_days(
    cube: &ChangeCube,
    kinds: Option<&[ChangeKind]>,
) -> FxHashMap<FieldId, Vec<Date>> {
    let cols = cube.columns();
    let chunk_maps: Vec<FxHashMap<FieldId, Vec<Date>>> =
        wikistale_exec::par_ranges("day_lists", cols.len(), 16_384, |range| {
            let mut local: FxHashMap<FieldId, Vec<Date>> = FxHashMap::default();
            for i in range {
                if kinds.is_none_or(|ks| ks.contains(&cols.kinds()[i])) {
                    let field = FieldId::new(cols.entities()[i], cols.properties()[i]);
                    local.entry(field).or_default().push(cols.days()[i]);
                }
            }
            local
        });
    let mut per_field: FxHashMap<FieldId, Vec<Date>> = FxHashMap::default();
    for local in chunk_maps {
        for (field, mut field_days) in local {
            per_field.entry(field).or_default().append(&mut field_days);
        }
    }
    per_field
}

/// Build a store over `cube` restricted to changes of `kinds`.
pub(crate) fn store_for_kinds(cube: &ChangeCube, kinds: &[ChangeKind]) -> Arc<DayListStore> {
    Arc::new(DayListStore::from_field_days(collect_field_days(
        cube,
        Some(kinds),
    )))
}

/// Append the encoded runs of one strictly-increasing day list.
fn encode_days(runs: &mut Vec<u32>, base: i32, days: &[Date]) {
    let mut anchor = base as i64;
    let mut i = 0usize;
    while i < days.len() {
        let start = days[i].day_number() as i64;
        let mut end = i + 1;
        while end < days.len() && days[end].day_number() as i64 == start + (end - i) as i64 {
            end += 1;
        }
        let mut gap = (start - anchor) as u64 as u32;
        let mut len = (end - i) as u32;
        while len > 0 {
            let chunk = len.min(MAX_PACKED_LEN);
            if gap <= MAX_PACKED_GAP {
                runs.push((gap << 8) | (chunk - 1));
            } else {
                runs.push(ESCAPE);
                runs.push(gap);
                runs.push(chunk);
            }
            gap = 0;
            len -= chunk;
        }
        anchor = start + (end - i) as i64;
        i = end;
    }
}

/// Read one `(gap, len)` run starting at `runs[*idx]`, advancing `idx`.
#[inline]
fn read_run(runs: &[u32], idx: &mut usize) -> (u32, u32) {
    let w = runs[*idx];
    if w == ESCAPE {
        let gap = runs[*idx + 1];
        let len = runs[*idx + 2];
        *idx += 3;
        (gap, len)
    } else {
        *idx += 1;
        (w >> 8, (w & 0xFF) + 1)
    }
}

/// A borrowed view of one field's encoded day list.
#[derive(Debug, Clone, Copy)]
pub struct DayList<'a> {
    runs: &'a [u32],
    base: i32,
    count: u32,
}

impl<'a> DayList<'a> {
    /// An empty list (useful as a default when a field is absent).
    pub const EMPTY: DayList<'static> = DayList {
        runs: &[],
        base: 0,
        count: 0,
    };

    /// Number of days in the list.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the list has no days.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterate `(start_day_number, len)` decoded runs.
    fn walk(&self) -> RunWalk<'a> {
        RunWalk {
            runs: self.runs,
            idx: 0,
            anchor: self.base as i64,
        }
    }

    /// Iterate the days in ascending order.
    pub fn iter(&self) -> DayIter<'a> {
        DayIter {
            walk: self.walk(),
            cur: 0,
            cur_left: 0,
            remaining: self.count,
        }
    }

    /// The earliest day, if any.
    pub fn first(&self) -> Option<Date> {
        self.walk()
            .next()
            .map(|(start, _)| Date::from_day_number(start as i32))
    }

    /// The latest day, if any.
    pub fn last(&self) -> Option<Date> {
        self.walk()
            .last()
            .map(|(start, len)| Date::from_day_number((start + len as i64 - 1) as i32))
    }

    /// A forward-only cursor over this list, positioned before its first
    /// day (see [`DayCursor`]).
    pub fn cursor(&self) -> DayCursor<'a> {
        let mut walk = self.walk();
        let run = walk.next();
        DayCursor {
            walk,
            run,
            done: 0,
            prev_last: None,
            probe: i64::MIN,
        }
    }

    /// Whether any day falls in the half-open window `[start, end)`.
    pub fn changed_in(&self, start: Date, end: Date) -> bool {
        let (s, e) = (start.day_number() as i64, end.day_number() as i64);
        if s >= e {
            return false;
        }
        for (run_start, len) in self.walk() {
            if run_start >= e {
                return false;
            }
            if run_start + len as i64 > s {
                return true;
            }
        }
        false
    }

    /// Iterate the days at or after `from`, ascending. Skips whole runs,
    /// so positioning costs O(runs), not O(days).
    pub fn iter_from(&self, from: Date) -> DayIter<'a> {
        let f = from.day_number() as i64;
        let mut walk = self.walk();
        let mut skipped = 0u32;
        loop {
            let before_idx = walk.idx;
            let before_anchor = walk.anchor;
            match walk.next() {
                None => {
                    return DayIter {
                        walk,
                        cur: 0,
                        cur_left: 0,
                        remaining: 0,
                    }
                }
                Some((start, len)) => {
                    if start + len as i64 <= f {
                        skipped += len;
                        continue;
                    }
                    // Re-enter this run, clipped to days >= from.
                    let clip = (f - start).max(0) as u32;
                    let rewound = RunWalk {
                        runs: walk.runs,
                        idx: before_idx,
                        anchor: before_anchor,
                    };
                    let mut it = DayIter {
                        walk: rewound,
                        cur: 0,
                        cur_left: 0,
                        remaining: self.count - skipped,
                    };
                    // Load the run and drop its clipped prefix.
                    it.load_next_run();
                    it.cur += clip as i64;
                    it.cur_left -= clip;
                    it.remaining -= clip;
                    return it;
                }
            }
        }
    }

    /// Iterate the days inside the half-open `range`, ascending.
    pub fn iter_in(&self, range: DateRange) -> impl Iterator<Item = Date> + use<'a> {
        let end = range.end();
        self.iter_from(range.start()).take_while(move |&d| d < end)
    }

    /// Decode the whole list into `buf` (cleared first) and return it as
    /// a slice — the bridge for kernels that need contiguous days.
    pub fn decode_into<'b>(&self, buf: &'b mut Vec<Date>) -> &'b [Date] {
        buf.clear();
        buf.reserve(self.len());
        buf.extend(self.iter());
        buf.as_slice()
    }

    /// Decode into a fresh vector.
    pub fn to_vec(&self) -> Vec<Date> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for DayList<'a> {
    type Item = Date;
    type IntoIter = DayIter<'a>;
    fn into_iter(self) -> DayIter<'a> {
        self.iter()
    }
}

/// Decoded-run iterator: yields `(start_day_number, len)`.
#[derive(Debug, Clone)]
struct RunWalk<'a> {
    runs: &'a [u32],
    idx: usize,
    /// Day number gaps are measured from.
    anchor: i64,
}

impl Iterator for RunWalk<'_> {
    type Item = (i64, u32);
    fn next(&mut self) -> Option<(i64, u32)> {
        if self.idx >= self.runs.len() {
            return None;
        }
        let (gap, len) = read_run(self.runs, &mut self.idx);
        let start = self.anchor + gap as i64;
        self.anchor = start + len as i64;
        Some((start, len))
    }
}

/// A forward-only position in a [`DayList`], for sweeps that probe one
/// field at ascending days.
///
/// [`DayCursor::advance_to`] moves the probe forward; the accessors then
/// answer for the current probe `p`: [`DayCursor::count_before`] (days
/// `< p`), [`DayCursor::last_before`] (latest day `< p`) and
/// [`DayCursor::first_from`] (earliest day `>= p`). Over any
/// non-decreasing probe sequence each run is decoded at most once, so a
/// sweep costs O(runs + probes) and allocates nothing.
///
/// A fresh cursor answers as if probed before every day: no days before,
/// the first day of the list from. A probe earlier than the current one
/// is clamped to it: the cursor never moves backward and keeps
/// answering for the latest probe it reached. It never panics.
#[derive(Debug, Clone)]
pub struct DayCursor<'a> {
    walk: RunWalk<'a>,
    /// The first run not wholly before the probe (`start + len > probe`),
    /// or `None` once every run lies before it.
    run: Option<(i64, u32)>,
    /// Days in the runs wholly before the probe.
    done: u32,
    /// Last day of the latest run wholly before the probe.
    prev_last: Option<i64>,
    /// The current probe day number.
    probe: i64,
}

impl DayCursor<'_> {
    /// Move the probe forward to `day`. A `day` before the current probe
    /// leaves the cursor where it is.
    pub fn advance_to(&mut self, day: Date) {
        let p = day.day_number() as i64;
        if p <= self.probe {
            return;
        }
        self.probe = p;
        while let Some((start, len)) = self.run {
            let end = start + len as i64;
            if end > p {
                break;
            }
            self.done += len;
            self.prev_last = Some(end - 1);
            self.run = self.walk.next();
        }
    }

    /// Number of days strictly before the probe.
    pub fn count_before(&self) -> usize {
        let clipped = match self.run {
            Some((start, _)) if start < self.probe => (self.probe - start) as u32,
            _ => 0,
        };
        (self.done + clipped) as usize
    }

    /// The latest day strictly before the probe, if any.
    pub fn last_before(&self) -> Option<Date> {
        match self.run {
            Some((start, _)) if start < self.probe => Some(self.probe - 1),
            _ => self.prev_last,
        }
        .map(|d| Date::from_day_number(d as i32))
    }

    /// The earliest day at or after the probe, if any.
    pub fn first_from(&self) -> Option<Date> {
        self.run
            .map(|(start, _)| Date::from_day_number(start.max(self.probe) as i32))
    }
}

/// Iterator over the days of a [`DayList`].
#[derive(Debug, Clone)]
pub struct DayIter<'a> {
    walk: RunWalk<'a>,
    cur: i64,
    cur_left: u32,
    remaining: u32,
}

impl DayIter<'_> {
    fn load_next_run(&mut self) -> bool {
        match self.walk.next() {
            Some((start, len)) => {
                self.cur = start;
                self.cur_left = len;
                true
            }
            None => false,
        }
    }
}

impl Iterator for DayIter<'_> {
    type Item = Date;

    fn next(&mut self) -> Option<Date> {
        if self.remaining == 0 {
            return None;
        }
        if self.cur_left == 0 && !self.load_next_run() {
            self.remaining = 0;
            return None;
        }
        let day = Date::from_day_number(self.cur as i32);
        self.cur += 1;
        self.cur_left -= 1;
        self.remaining -= 1;
        Some(day)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for DayIter<'_> {}
impl std::iter::FusedIterator for DayIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    fn field(e: u32, p: u32) -> FieldId {
        FieldId::new(crate::ids::EntityId(e), crate::ids::PropertyId(p))
    }

    /// `(count_before, last_before, first_from)` of a fresh cursor
    /// advanced to `d`.
    fn probe(l: &DayList<'_>, d: Date) -> (usize, Option<Date>, Option<Date>) {
        let mut c = l.cursor();
        c.advance_to(d);
        (c.count_before(), c.last_before(), c.first_from())
    }

    fn store_of(lists: &[(FieldId, Vec<i32>)]) -> DayListStore {
        let mut map = FxHashMap::default();
        for (f, days) in lists {
            map.insert(*f, days.iter().map(|&n| day(n)).collect());
        }
        DayListStore::from_field_days(map)
    }

    #[test]
    fn empty_store() {
        let store = DayListStore::from_field_days(FxHashMap::default());
        assert_eq!(store.num_fields(), 0);
        assert_eq!(store.total_days(), 0);
        assert!(store.get(field(0, 0)).is_none());
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
        let l = store.get(field(0, 0)).unwrap();
        assert_eq!(l.len(), 6);
        assert_eq!(
            l.to_vec(),
            vec![day(1), day(2), day(3), day(10), day(11), day(40)]
        );
        assert_eq!(store.get(field(0, 1)).unwrap().to_vec(), vec![day(5)]);
        assert_eq!(
            store.get(field(1, 0)).unwrap().to_vec(),
            vec![day(0), day(100), day(200)]
        );
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
        assert_eq!(store.position(field(9, 9)), None);
        let collected: Vec<FieldId> = store.iter().map(|(_, f, _)| f).collect();
        assert_eq!(collected, store.fields());
    }

    #[test]
    fn first_last_and_counts() {
        let store = store_of(&[(field(0, 0), vec![2, 3, 4, 9, 20, 21])]);
        let l = store.list(0);
        assert_eq!(l.first(), Some(day(2)));
        assert_eq!(l.last(), Some(day(21)));
        assert_eq!(probe(&l, day(2)), (0, None, Some(day(2))));
        assert_eq!(probe(&l, day(4)), (2, Some(day(3)), Some(day(4))));
        assert_eq!(probe(&l, day(9)), (3, Some(day(4)), Some(day(9))));
        assert_eq!(probe(&l, day(10)), (4, Some(day(9)), Some(day(20))));
        assert_eq!(probe(&l, day(21)), (5, Some(day(20)), Some(day(21))));
        assert_eq!(probe(&l, day(100)), (6, Some(day(21)), None));
        assert_eq!(DayList::EMPTY.first(), None);
        assert_eq!(DayList::EMPTY.last(), None);
        assert!(DayList::EMPTY.is_empty());
        assert_eq!(probe(&DayList::EMPTY, day(0)), (0, None, None));
    }

    #[test]
    fn cursor_sweeps_forward_and_clamps_backward_probes() {
        let store = store_of(&[(field(0, 0), vec![2, 3, 4, 9, 20, 21])]);
        let mut c = store.list(0).cursor();
        // Fresh: probed before every day.
        assert_eq!((c.count_before(), c.last_before()), (0, None));
        assert_eq!(c.first_from(), Some(day(2)));
        c.advance_to(day(3));
        assert_eq!((c.count_before(), c.last_before()), (1, Some(day(2))));
        c.advance_to(day(3));
        assert_eq!((c.count_before(), c.last_before()), (1, Some(day(2))));
        c.advance_to(day(15));
        assert_eq!((c.count_before(), c.last_before()), (4, Some(day(9))));
        assert_eq!(c.first_from(), Some(day(20)));
        // A backward probe is clamped: the answers stay those of day 15.
        c.advance_to(day(0));
        assert_eq!((c.count_before(), c.last_before()), (4, Some(day(9))));
        assert_eq!(c.first_from(), Some(day(20)));
        c.advance_to(day(22));
        assert_eq!((c.count_before(), c.last_before()), (6, Some(day(21))));
        assert_eq!(c.first_from(), None);
    }

    #[test]
    fn changed_in_windows() {
        let store = store_of(&[(field(0, 0), vec![5, 6, 7, 30])]);
        let l = store.list(0);
        assert!(l.changed_in(day(5), day(6)));
        assert!(l.changed_in(day(7), day(8)));
        assert!(l.changed_in(day(0), day(100)));
        assert!(l.changed_in(day(30), day(31)));
        assert!(!l.changed_in(day(8), day(30)));
        assert!(!l.changed_in(day(31), day(100)));
        assert!(!l.changed_in(day(6), day(6)));
    }

    #[test]
    fn iter_from_and_iter_in() {
        let store = store_of(&[(field(0, 0), vec![1, 2, 3, 10, 11, 40])]);
        let l = store.list(0);
        let from = |d: i32| l.iter_from(day(d)).collect::<Vec<_>>();
        assert_eq!(from(0), l.to_vec());
        assert_eq!(from(2), vec![day(2), day(3), day(10), day(11), day(40)]);
        assert_eq!(from(4), vec![day(10), day(11), day(40)]);
        assert_eq!(from(41), Vec::<Date>::new());
        let win: Vec<Date> = l.iter_in(DateRange::new(day(2), day(11))).collect();
        assert_eq!(win, vec![day(2), day(3), day(10)]);
        assert!(l.iter_in(DateRange::new(day(4), day(10))).next().is_none());
    }

    #[test]
    fn exact_size_iteration() {
        let store = store_of(&[(field(0, 0), vec![1, 2, 3, 50, 51])]);
        let l = store.list(0);
        let mut it = l.iter();
        assert_eq!(it.len(), 5);
        it.next();
        assert_eq!(it.len(), 4);
        let rest: Vec<Date> = it.collect();
        assert_eq!(rest, vec![day(2), day(3), day(50), day(51)]);
        let mut from = l.iter_from(day(3));
        assert_eq!(from.len(), 3);
        from.next();
        assert_eq!(from.len(), 2);
    }

    #[test]
    fn decode_into_reuses_buffer() {
        let store = store_of(&[(field(0, 0), vec![7, 9]), (field(0, 1), vec![1, 2, 3])]);
        let mut buf = Vec::new();
        assert_eq!(store.list(0).decode_into(&mut buf), &[day(7), day(9)]);
        assert_eq!(
            store.list(1).decode_into(&mut buf),
            &[day(1), day(2), day(3)]
        );
    }

    #[test]
    fn long_runs_split_into_continuation_words() {
        // 1000 consecutive days: needs ceil(1000/256) = 4 packed words.
        let days: Vec<i32> = (0..1000).collect();
        let store = store_of(&[(field(0, 0), days.clone())]);
        assert_eq!(store.runs.len(), 4);
        let l = store.list(0);
        assert_eq!(l.len(), 1000);
        let expected: Vec<Date> = days.iter().map(|&n| day(n)).collect();
        assert_eq!(l.to_vec(), expected);
        assert_eq!(probe(&l, day(500)), (500, Some(day(499)), Some(day(500))));
        assert_eq!(
            l.iter_from(day(998)).collect::<Vec<_>>(),
            vec![day(998), day(999)]
        );
    }

    #[test]
    fn huge_gaps_use_the_escape() {
        // A gap beyond the 24-bit packed limit forces the escape form.
        let days = vec![0, 20_000_000];
        let store = store_of(&[(field(0, 0), days)]);
        assert!(store.runs.contains(&ESCAPE));
        let l = store.list(0);
        assert_eq!(l.to_vec(), vec![day(0), day(20_000_000)]);
        assert_eq!(
            probe(&l, day(20_000_000)),
            (1, Some(day(0)), Some(day(20_000_000)))
        );
        assert_eq!(probe(&l, day(20_000_001)), (2, Some(day(20_000_000)), None));
        assert!(l.changed_in(day(19_999_999), day(20_000_001)));
        assert!(!l.changed_in(day(1), day(20_000_000)));
    }

    #[test]
    fn negative_days_round_trip() {
        let store = store_of(&[
            (field(0, 0), vec![-400, -399, -1]),
            (field(0, 1), vec![-5, 10]),
        ]);
        assert_eq!(store.list(0).to_vec(), vec![day(-400), day(-399), day(-1)]);
        assert_eq!(store.list(1).to_vec(), vec![day(-5), day(10)]);
    }

    #[test]
    fn memory_never_exceeds_decoded_baseline() {
        // Random-ish sparse lists: one packed word per isolated day is
        // the worst case, which matches the decoded 4 bytes/day without
        // the per-field vector headers.
        let lists: Vec<(FieldId, Vec<i32>)> = (0..50)
            .map(|i| {
                let days: Vec<i32> = (0..40).map(|k| k * (i + 2)).collect();
                (field(i as u32, 0), days)
            })
            .collect();
        let store = store_of(&lists);
        assert!(store.runs.len() * 4 <= store.total_days() * 4);
        assert!(store.heap_bytes() > 0);
        // Decoded, as one `Vec<Date>` per field: 4 bytes per day plus a
        // vector header per field.
        let decoded =
            store.total_days() * 4 + store.num_fields() * std::mem::size_of::<Vec<Date>>();
        assert!(store.runs.len() * 4 < decoded);
    }

    mod props {
        use super::*;

        /// Strictly increasing day lists with adversarial gaps: dense
        /// runs, isolated days, and jumps beyond the 24-bit packed-gap
        /// and 256-day run-length boundaries. Each step is a (kind, raw)
        /// pair mapped to one of four gap classes.
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
                            2 => 250 + raw % 50,         // straddle run-length chunking
                            _ => 0xFF_FFF0 + raw % 0x20, // straddle the packed-gap limit
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
            /// encode → decode is the identity for any sorted day set.
            #[test]
            fn prop_round_trip(lists in proptest::collection::vec(day_list_strategy(), 1..8)) {
                let named: Vec<(FieldId, Vec<i32>)> = lists
                    .into_iter()
                    .enumerate()
                    .map(|(i, l)| (field(i as u32, i as u32 % 3), l))
                    .collect();
                let store = store_of(&named);
                for (f, days) in &named {
                    let expected: Vec<Date> = days.iter().map(|&n| day(n)).collect();
                    let l = store.get(*f).unwrap();
                    prop_assert_eq!(l.len(), expected.len());
                    prop_assert_eq!(l.to_vec(), expected.clone());
                    prop_assert_eq!(l.first(), expected.first().copied());
                    prop_assert_eq!(l.last(), expected.last().copied());
                }
            }

            /// Every navigation helper agrees with the decoded slice.
            #[test]
            fn prop_navigation_matches_decoded(days in day_list_strategy(), probe in -60_000i32..60_000) {
                let store = store_of(&[(field(0, 0), days.clone())]);
                let l = store.list(0);
                let decoded: Vec<i32> = days;
                let p = day(probe);
                let after: Vec<Date> =
                    decoded.iter().copied().filter(|&d| d >= probe).map(day).collect();
                prop_assert_eq!(l.iter_from(p).collect::<Vec<_>>(), after);
                let end = p + 30;
                let range = DateRange::new(p, end);
                let inside: Vec<Date> = decoded
                    .iter()
                    .copied()
                    .map(day)
                    .filter(|&d| range.contains(d))
                    .collect();
                prop_assert_eq!(l.changed_in(p, end), !inside.is_empty());
                prop_assert_eq!(l.iter_in(range).collect::<Vec<_>>(), inside);
            }

            /// One cursor driven through a non-decreasing probe sequence
            /// (repeats included) answers like the decoded slice at every
            /// step.
            #[test]
            fn prop_cursor_sweep_matches_decoded(
                days in day_list_strategy(),
                start in -60_000i32..60_000,
                steps in proptest::collection::vec((0u8..5, 0i32..64), 0..60),
            ) {
                let store = store_of(&[(field(0, 0), days.clone())]);
                let l = store.list(0);
                let mut cursor = l.cursor();
                let mut probe = start;
                for (kind, raw) in std::iter::once((0, 0)).chain(steps) {
                    probe = probe.saturating_add(match kind {
                        0 => 0,                   // repeat the probe
                        1 => 1 + raw % 3,         // small steps
                        2 => 250 + raw,           // straddle 256-day continuations
                        3 => 0xFF_FFF0 + raw % 0x20, // straddle the escape gap
                        // Land on, or next to, the next day of the list.
                        _ => days
                            .iter()
                            .find(|&&d| d > probe)
                            .map_or(0, |&d| d - probe + raw % 3 - 1),
                    });
                    cursor.advance_to(day(probe));
                    let n = days.partition_point(|&d| d < probe);
                    prop_assert_eq!(cursor.count_before(), n);
                    prop_assert_eq!(cursor.last_before(), n.checked_sub(1).map(|i| day(days[i])));
                    prop_assert_eq!(cursor.first_from(), days.get(n).map(|&d| day(d)));
                }
            }
        }
    }
}
