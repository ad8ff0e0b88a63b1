//! The change record: one edit to one infobox field on one day.

use crate::date::Date;
use crate::ids::{EntityId, FieldId, PropertyId, ValueId};
use std::fmt;

/// What kind of edit a change represents.
///
/// The paper's filter pipeline (§4) removes creations (50.6 % of raw
/// changes) and deletions (20.3 %) before training, because the predictors
/// only model *updates* to existing fields.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
#[repr(u8)]
pub enum ChangeKind {
    /// The property was added (or its infobox was created).
    Create = 0,
    /// The value of an existing property changed.
    Update = 1,
    /// The property was removed (or its infobox was deleted).
    Delete = 2,
}

impl ChangeKind {
    /// Decode from the wire representation used by [`crate::binio`].
    pub fn from_u8(v: u8) -> Option<ChangeKind> {
        match v {
            0 => Some(ChangeKind::Create),
            1 => Some(ChangeKind::Update),
            2 => Some(ChangeKind::Delete),
            _ => None,
        }
    }
}

impl fmt::Display for ChangeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ChangeKind::Create => "create",
            ChangeKind::Update => "update",
            ChangeKind::Delete => "delete",
        })
    }
}

/// Per-change flag bits.
///
/// Only one flag exists today: `BOT_REVERTED` marks changes that a Wikipedia
/// bot reverted shortly after they were made (0.008 % of the raw corpus,
/// §4); the filter pipeline drops them because they carry no update signal.
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct ChangeFlags(u8);

impl ChangeFlags {
    /// No flags set.
    pub const NONE: ChangeFlags = ChangeFlags(0);
    /// The change was reverted by a bot (vandalism or accident).
    pub const BOT_REVERTED: ChangeFlags = ChangeFlags(1);

    /// Raw bits (for serialization).
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Rebuild from raw bits, masking out unknown flags.
    pub const fn from_bits(bits: u8) -> ChangeFlags {
        ChangeFlags(bits & 0b1)
    }

    /// Whether the bot-reverted flag is set.
    pub const fn is_bot_reverted(self) -> bool {
        self.0 & Self::BOT_REVERTED.0 != 0
    }

    /// Union of two flag sets.
    pub const fn union(self, other: ChangeFlags) -> ChangeFlags {
        ChangeFlags(self.0 | other.0)
    }
}

impl fmt::Debug for ChangeFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_bot_reverted() {
            f.write_str("BOT_REVERTED")
        } else {
            f.write_str("NONE")
        }
    }
}

/// One change-cube tuple: on `day`, `entity`'s `property` was assigned
/// `value` by an edit of kind `kind`.
///
/// The struct is 20 bytes and `Copy`. The cube stores no rows: it keeps
/// one column per field ([`crate::ChangeColumns`]), sorted by `(day,
/// entity, property)`, and materializes a `Change` on demand.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Change {
    /// Day of the edit (the cube's time resolution is one day).
    pub day: Date,
    /// The infobox that was edited.
    pub entity: EntityId,
    /// The attribute that was edited.
    pub property: PropertyId,
    /// The newly assigned value (interned).
    pub value: ValueId,
    /// Create / update / delete.
    pub kind: ChangeKind,
    /// Flag bits.
    pub flags: ChangeFlags,
}

impl Change {
    /// The field this change belongs to.
    #[inline]
    pub fn field(&self) -> FieldId {
        FieldId::new(self.entity, self.property)
    }

    /// Sort key used for the cube's canonical ordering.
    #[inline]
    pub fn sort_key(&self) -> (Date, EntityId, PropertyId) {
        (self.day, self.entity, self.property)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Change {
        Change {
            day: Date::from_ymd(2019, 5, 12).unwrap(),
            entity: EntityId(3),
            property: PropertyId(7),
            value: ValueId(11),
            kind: ChangeKind::Update,
            flags: ChangeFlags::NONE,
        }
    }

    #[test]
    fn field_combines_entity_and_property() {
        let c = sample();
        assert_eq!(c.field(), FieldId::new(EntityId(3), PropertyId(7)));
    }

    #[test]
    fn kind_round_trip() {
        for kind in [ChangeKind::Create, ChangeKind::Update, ChangeKind::Delete] {
            assert_eq!(ChangeKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(ChangeKind::from_u8(3), None);
        assert_eq!(ChangeKind::Update.to_string(), "update");
    }

    #[test]
    fn flags_round_trip() {
        assert!(!ChangeFlags::NONE.is_bot_reverted());
        assert!(ChangeFlags::BOT_REVERTED.is_bot_reverted());
        assert_eq!(
            ChangeFlags::from_bits(ChangeFlags::BOT_REVERTED.bits()),
            ChangeFlags::BOT_REVERTED
        );
        // Unknown bits are masked off.
        assert_eq!(ChangeFlags::from_bits(0xFE), ChangeFlags::NONE);
        assert_eq!(
            ChangeFlags::NONE.union(ChangeFlags::BOT_REVERTED),
            ChangeFlags::BOT_REVERTED
        );
    }

    #[test]
    fn change_struct_stays_compact() {
        // Sorting and scanning 10^8 of these is the hot path; keep it small.
        assert!(std::mem::size_of::<Change>() <= 20);
    }

    #[test]
    fn sort_key_orders_by_time_first() {
        let mut a = sample();
        let mut b = sample();
        a.day = Date::EPOCH;
        b.day = Date::EPOCH + 1;
        b.entity = EntityId(0);
        assert!(a.sort_key() < b.sort_key());
    }
}
