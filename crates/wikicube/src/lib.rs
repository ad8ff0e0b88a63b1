//! # wikistale-wikicube
//!
//! The *change-cube* substrate used by the `wikistale` system, modelled after
//! Bleifuß et al., "Exploring Change: A New Dimension of Data Analytics"
//! (PVLDB 2018), as employed by Barth et al., "Detecting Stale Data in
//! Wikipedia Infoboxes" (EDBT 2023).
//!
//! A change cube records every change to every Wikipedia infobox as a tuple
//! of four dimensions:
//!
//! * **time** — the civil day the change happened ([`Date`]),
//! * **entity** — the infobox the change belongs to ([`EntityId`]),
//! * **property** — the infobox attribute that changed ([`PropertyId`]),
//! * **value** — the newly assigned value ([`ValueId`]).
//!
//! In addition each entity belongs to exactly one *template*
//! ([`TemplateId`]), which defines the shared property schema of a group of
//! infoboxes, and lives on exactly one *page* ([`PageId`]). The combination
//! of entity and property is called a *field* ([`FieldId`]); fields are the
//! unit on which staleness predictions are made.
//!
//! The crate provides:
//!
//! * [`date`] — allocation-free proleptic-Gregorian day arithmetic,
//! * [`ids`] — dense `u32` newtype identifiers for every dimension,
//! * [`intern`] — string interning so the cube stores ids, not strings,
//! * [`fxhash`] — a fast non-cryptographic hasher for hot id-keyed maps,
//! * [`change`] — the [`Change`] record and its [`ChangeKind`],
//! * [`cube`] — the [`ChangeCube`] container (columnar, struct-of-arrays
//!   change table) and its builder,
//! * [`daylist`] — shared per-field day lists as sorted slices
//!   ([`DayListStore`]), built once and reused by every stage,
//! * [`index`] — derived access paths (field → change days, page → fields,
//!   template → entities/properties) in compressed-sparse-row layout,
//! * [`binio`] — a versioned, checksummed binary persistence format
//!   with atomic writes,
//! * [`crc32`] — the CRC-32 implementation backing those checksums,
//! * [`stats`] — corpus statistics used by the dataset experiments.
//!
//! ## Example
//!
//! ```
//! use wikistale_wikicube::{ChangeCubeBuilder, ChangeKind, Date};
//!
//! let mut b = ChangeCubeBuilder::new();
//! let infobox = b.entity("Premier League", "infobox football league", "Premier League");
//! let champions = b.property("current_champions");
//! b.change(
//!     Date::from_ymd(2019, 5, 12).unwrap(),
//!     infobox,
//!     champions,
//!     "Manchester City",
//!     ChangeKind::Update,
//! );
//! let cube = b.finish();
//! assert_eq!(cube.num_changes(), 1);
//! assert_eq!(cube.num_entities(), 1);
//! ```

pub mod binio;
pub mod change;
pub mod crc32;
pub mod cube;
pub mod date;
pub mod daylist;
pub mod error;
pub mod fxhash;
pub mod ids;
pub mod index;
pub mod intern;
pub mod olap;
pub mod ops;
pub mod stats;

pub use change::{Change, ChangeFlags, ChangeKind};
pub use cube::{ChangeColumns, ChangeCube, ChangeCubeBuilder, Changes, Dimensions, EntityMeta};
pub use date::{Date, DateRange, Weekday};
pub use daylist::DayListStore;
pub use error::CubeError;
pub use fxhash::{FxHashMap, FxHashSet};
pub use ids::{EntityId, FieldId, PageId, PropertyId, TemplateId, ValueId};
pub use index::CubeIndex;
pub use intern::Interner;
pub use ops::{merge, slice};
pub use stats::CorpusStats;
