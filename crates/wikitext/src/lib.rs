//! # wikistale-wikitext
//!
//! Ingestion path from raw Wikipedia data to the change cube: a wikitext
//! infobox parser, a MediaWiki XML export reader/writer, and a revision
//! differ that turns page histories into change-cube tuples.
//!
//! The EDBT 2023 paper consumes a pre-extracted infobox history (Bleifuß
//! et al., ICDE 2021). That extraction pipeline is not public, so this
//! crate provides the equivalent: feed it a MediaWiki XML export (the
//! format of `dumps.wikimedia.org`) and it produces the
//! [`wikistale_wikicube::ChangeCube`] the predictors train on.
//!
//! * [`infobox`] — parse `{{Infobox …}}` templates out of wikitext as
//!   slices of it (balanced-brace aware, linear also on unbalanced
//!   braces) and render them back,
//! * [`xml`] — a minimal, dependency-free reader/writer for the
//!   `<mediawiki><page><revision>` export schema; its one page parser
//!   serves batch parsing and both stream modes,
//! * [`diff`] — snapshot differencing: consecutive revisions of a page
//!   become create/update/delete changes per infobox field, matched by
//!   property id without copying keys or values,
//! * [`stream`] / [`quarantine`] — incremental dump reading with an
//!   optional recovery mode that quarantines malformed pages under a
//!   configurable error budget instead of aborting.
//!
//! ## Example
//!
//! ```
//! use wikistale_wikitext::{diff::build_cube, xml::parse_export};
//!
//! let dump = r#"<mediawiki>
//!   <page><title>Premier League</title>
//!     <revision><timestamp>2019-05-11T10:00:00Z</timestamp>
//!       <text>{{Infobox football league | champions = Chelsea }}</text>
//!     </revision>
//!     <revision><timestamp>2019-05-12T18:00:00Z</timestamp>
//!       <text>{{Infobox football league | champions = Manchester City }}</text>
//!     </revision>
//!   </page>
//! </mediawiki>"#;
//! let pages = parse_export(dump).unwrap();
//! let cube = build_cube(&pages);
//! // One creation (first sighting) and one update.
//! assert_eq!(cube.num_changes(), 2);
//! ```

pub mod diff;
pub mod export;
pub mod infobox;
pub mod quarantine;
pub mod stream;
pub mod xml;

pub use diff::build_cube;
pub use export::cube_to_dump;
pub use infobox::{extract_infoboxes, render_infobox, Infobox};
pub use quarantine::{ErrorBudget, QuarantineEntry, QuarantineReport};
pub use stream::{PageStream, StreamError};
pub use xml::{parse_export, render_export, PageDump, Revision, XmlError};
