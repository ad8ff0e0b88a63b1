//! String interning for cube dimensions.
//!
//! The change cube stores one [`Interner`] per string-valued dimension
//! (entity names, property names, template names, page titles, values), so
//! the 100k–100M-row change table itself holds only dense `u32` ids.

use crate::fxhash::FxHashMap;
use std::collections::hash_map::Entry;

/// A bijective map between strings and dense `u32` ids.
///
/// Ids are assigned in first-seen order starting at 0, so they double as
/// indices into any side table sized with [`Interner::len`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Interner {
    strings: Vec<Box<str>>,
    ids: FxHashMap<Box<str>, u32>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Create an interner with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Interner {
        Interner {
            strings: Vec::with_capacity(cap),
            ids: FxHashMap::with_capacity_and_hasher(cap, Default::default()),
        }
    }

    /// Intern `s`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.ids.insert(boxed, id);
        id
    }

    /// Look up the id of `s` without interning it.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.ids.get(s).copied()
    }

    /// Resolve an id back to its string. Panics if the id was not issued by
    /// this interner.
    pub fn resolve(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// Resolve an id, returning `None` for ids this interner never issued.
    pub fn try_resolve(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(|s| &**s)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate over `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, &**s))
    }

    /// Rebuild an interner from an id-ordered list of strings, as read back
    /// from persistent storage. Duplicate strings are rejected because they
    /// would break bijectivity. Each string is moved in and hashed once.
    pub fn from_ordered(strings: Vec<String>) -> Result<Interner, String> {
        let mut interner = Interner::with_capacity(strings.len());
        for s in strings {
            let id = interner.strings.len() as u32;
            match interner.ids.entry(s.into_boxed_str()) {
                Entry::Occupied(dup) => {
                    return Err(format!("duplicate interned string {:?}", dup.key()));
                }
                Entry::Vacant(slot) => {
                    interner.strings.push(slot.key().clone());
                    slot.insert(id);
                }
            }
        }
        Ok(interner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("matches");
        let b = i.intern("goals");
        assert_eq!(i.intern("matches"), a);
        assert_eq!(i.intern("goals"), b);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut i = Interner::new();
        for (expected, s) in ["a", "b", "c"].iter().enumerate() {
            assert_eq!(i.intern(s) as usize, expected);
        }
    }

    #[test]
    fn resolve_round_trip() {
        let mut i = Interner::new();
        let id = i.intern("infobox settlement");
        assert_eq!(i.resolve(id), "infobox settlement");
        assert_eq!(i.get("infobox settlement"), Some(id));
        assert_eq!(i.get("missing"), None);
        assert_eq!(i.try_resolve(id), Some("infobox settlement"));
        assert_eq!(i.try_resolve(id + 1), None);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut i = Interner::new();
        i.intern("x");
        i.intern("y");
        let pairs: Vec<(u32, String)> = i.iter().map(|(id, s)| (id, s.to_owned())).collect();
        assert_eq!(pairs, vec![(0, "x".to_owned()), (1, "y".to_owned())]);
    }

    #[test]
    fn from_ordered_rejects_duplicates() {
        assert!(Interner::from_ordered(vec!["a".into(), "a".into()]).is_err());
        let ok = Interner::from_ordered(vec!["a".into(), "b".into()]).unwrap();
        assert_eq!(ok.get("b"), Some(1));
    }

    proptest! {
        #[test]
        fn prop_bijective(strings in proptest::collection::vec(".*", 0..50)) {
            let mut interner = Interner::new();
            let ids: Vec<u32> = strings.iter().map(|s| interner.intern(s)).collect();
            for (s, &id) in strings.iter().zip(&ids) {
                prop_assert_eq!(interner.resolve(id), s.as_str());
                prop_assert_eq!(interner.get(s), Some(id));
            }
            // Dense: ids cover 0..len.
            let mut sorted: Vec<u32> = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), interner.len());
            prop_assert!(sorted.iter().enumerate().all(|(i, &id)| id as usize == i));
        }

        #[test]
        fn prop_from_ordered_round_trip(strings in proptest::collection::hash_set(".*", 0..30)) {
            let ordered: Vec<String> = strings.into_iter().collect();
            let interner = Interner::from_ordered(ordered.clone()).unwrap();
            let back: Vec<String> = interner.iter().map(|(_, s)| s.to_owned()).collect();
            prop_assert_eq!(back, ordered);
        }
    }
}
