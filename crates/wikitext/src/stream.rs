//! Streaming access to large MediaWiki exports.
//!
//! Full-history dumps of the English Wikipedia run to terabytes; loading
//! them into one string is not an option. [`PageStream`] reads a dump
//! incrementally from any [`BufRead`], yielding one parsed [`PageDump`] at
//! a time with memory bounded by the largest single page element.
//!
//! ```no_run
//! use std::io::BufReader;
//! use wikistale_wikitext::stream::PageStream;
//!
//! let file = std::fs::File::open("pages-meta-history.xml").unwrap();
//! for page in PageStream::new(BufReader::new(file)) {
//!     let page = page.unwrap();
//!     println!("{}: {} revisions", page.title, page.revisions.len());
//! }
//! ```
//!
//! # Recovery mode
//!
//! Real dumps are messy: truncated downloads, malformed markup,
//! adversarially broken revisions. [`PageStream::lossy`] keeps going
//! where the strict stream would abort — a malformed page or revision is
//! *quarantined* (recorded with its title, byte offset, span, and error
//! in a [`QuarantineReport`]) and the stream moves on to the next page.
//! An optional [`ErrorBudget`] bounds the loss: once the quarantined
//! fraction exceeds the budget the stream yields
//! [`StreamError::BudgetExceeded`] and stops, so a catastrophically
//! corrupt input cannot silently degrade into an empty cube.
//!
//! Both modes run the same page parser; they differ only in the policy
//! applied to the errors it records.

use crate::quarantine::{ErrorBudget, QuarantineEntry, QuarantineReport};
use crate::xml::{parse_page, take_element, title_of, PageDump, XmlError};
use std::io::BufRead;

/// Errors from streaming: transport, markup, or an exhausted error
/// budget.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// A page element could not be parsed (strict mode only — recovery
    /// mode quarantines instead).
    Xml(XmlError),
    /// Recovery mode quarantined more pages than the budget tolerates.
    BudgetExceeded {
        /// Pages quarantined so far.
        quarantined: usize,
        /// Pages seen so far.
        seen: usize,
        /// The configured maximum quarantined fraction.
        max_fraction: f64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "i/o error: {e}"),
            StreamError::Xml(e) => write!(f, "xml error: {e}"),
            StreamError::BudgetExceeded {
                quarantined,
                seen,
                max_fraction,
            } => write!(
                f,
                "error budget exceeded: {quarantined} of {seen} pages quarantined \
                 ({:.3} % > {:.3} % budget)",
                100.0 * *quarantined as f64 / (*seen).max(1) as f64,
                100.0 * max_fraction,
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// Strict vs. recovering behavior of a [`PageStream`].
#[derive(Debug)]
enum Mode {
    /// First malformed page aborts the stream (the historical default).
    Strict,
    /// Malformed pages are quarantined and skipped, bounded by an
    /// optional error budget.
    Lossy { budget: Option<ErrorBudget> },
}

/// What [`PageStream::next_page_text`] found.
enum Scan {
    /// A complete `<page>…</page>` element and its stream byte offset.
    Page { offset: u64, text: String },
    /// End of input, possibly with an incomplete trailing page element.
    Eof { partial: Option<(u64, usize)> },
}

/// An iterator of pages read incrementally from a dump.
pub struct PageStream<R: BufRead> {
    reader: R,
    buffer: String,
    done: bool,
    /// Bytes drained from the front of `buffer` since the start of the
    /// input — the stream offset of `buffer[0]`.
    stream_pos: u64,
    mode: Mode,
    report: QuarantineReport,
}

impl<R: BufRead> PageStream<R> {
    /// Stream pages from `reader`, aborting on the first malformed page.
    pub fn new(reader: R) -> PageStream<R> {
        PageStream::with_mode(reader, Mode::Strict)
    }

    /// Stream pages in recovery mode with no error budget: every
    /// malformed page is quarantined and skipped.
    pub fn lossy(reader: R) -> PageStream<R> {
        PageStream::with_mode(reader, Mode::Lossy { budget: None })
    }

    /// Recovery mode bounded by `budget`: the stream aborts with
    /// [`StreamError::BudgetExceeded`] once the quarantined fraction of
    /// pages exceeds it.
    pub fn lossy_with_budget(reader: R, budget: ErrorBudget) -> PageStream<R> {
        PageStream::with_mode(
            reader,
            Mode::Lossy {
                budget: Some(budget),
            },
        )
    }

    fn with_mode(reader: R, mode: Mode) -> PageStream<R> {
        PageStream {
            reader,
            buffer: String::new(),
            done: false,
            stream_pos: 0,
            mode,
            report: QuarantineReport::new(),
        }
    }

    /// The quarantine report accumulated so far (complete once the
    /// iterator is exhausted). Strict streams keep an empty report.
    pub fn quarantine(&self) -> &QuarantineReport {
        &self.report
    }

    /// Consume the stream, returning the final quarantine report.
    pub fn into_quarantine(self) -> QuarantineReport {
        self.report
    }

    /// Read lines until the buffer holds at least one complete
    /// `<page>…</page>` element; returns the element's body (including
    /// its tags) and stream offset, or end-of-input (noting an
    /// incomplete trailing page element — the signature of a truncated
    /// dump).
    fn next_page_text(&mut self) -> Result<Scan, StreamError> {
        loop {
            if let Some(start) = self.buffer.find("<page") {
                if let Some(end_rel) = self.buffer[start..].find("</page>") {
                    let end = start + end_rel + "</page>".len();
                    let offset = self.stream_pos + start as u64;
                    let page_text = self.buffer[start..end].to_owned();
                    self.buffer.drain(..end);
                    self.stream_pos += end as u64;
                    return Ok(Scan::Page {
                        offset,
                        text: page_text,
                    });
                }
            } else {
                // No page start in the buffer: only keep a tail that could
                // hold a split "<page" token, discard the rest. The cut
                // moves back to a char boundary so multi-byte text between
                // pages cannot split a character.
                let mut keep_from = self.buffer.len().saturating_sub(8);
                while !self.buffer.is_char_boundary(keep_from) {
                    keep_from -= 1;
                }
                self.buffer.drain(..keep_from);
                self.stream_pos += keep_from as u64;
            }
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).map_err(StreamError::Io)?;
            if n == 0 {
                // An opened-but-never-closed <page> at EOF is a truncated
                // dump, not a clean end.
                let partial = self
                    .buffer
                    .find("<page")
                    .map(|start| (self.stream_pos + start as u64, self.buffer.len() - start));
                return Ok(Scan::Eof { partial });
            }
            self.buffer.push_str(&line);
        }
    }

    /// Record a whole-page quarantine and check the budget; returns the
    /// terminal budget error if it is now exceeded.
    fn quarantine_page(&mut self, entry: QuarantineEntry) -> Option<StreamError> {
        self.report.record_page_quarantined(entry);
        wikistale_obs::MetricsRegistry::global()
            .counter("ingest/pages_quarantined")
            .incr();
        if let Mode::Lossy {
            budget: Some(budget),
        } = &self.mode
        {
            if budget.exceeded(&self.report) {
                return Some(StreamError::BudgetExceeded {
                    quarantined: self.report.pages_quarantined,
                    seen: self.report.pages_seen(),
                    max_fraction: budget.max_fraction,
                });
            }
        }
        None
    }

    /// Terminal budget check at end of input, where the `min_pages`
    /// floor no longer applies (the population is complete).
    fn final_budget_error(&self) -> Option<StreamError> {
        if let Mode::Lossy {
            budget: Some(budget),
        } = &self.mode
        {
            if budget.exceeded_at_end(&self.report) {
                return Some(StreamError::BudgetExceeded {
                    quarantined: self.report.pages_quarantined,
                    seen: self.report.pages_seen(),
                    max_fraction: budget.max_fraction,
                });
            }
        }
        None
    }
}

impl<R: BufRead> Iterator for PageStream<R> {
    type Item = Result<PageDump, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let obs = wikistale_obs::MetricsRegistry::global();
        loop {
            let scan = match self.next_page_text() {
                Err(e) => {
                    // Transport failures are never recoverable: without a
                    // working reader there is no next page to skip to.
                    self.done = true;
                    return Some(Err(e));
                }
                Ok(scan) => scan,
            };
            let (offset, text) = match scan {
                Scan::Eof { partial } => {
                    self.done = true;
                    match (partial, &self.mode) {
                        (None, _) => return self.final_budget_error().map(Err),
                        (Some(_), Mode::Strict) => {
                            return Some(Err(StreamError::Xml(XmlError::UnclosedElement("page"))));
                        }
                        (Some((offset, len)), Mode::Lossy { .. }) => {
                            let err = self.quarantine_page(QuarantineEntry {
                                title: title_of(&self.buffer),
                                byte_offset: offset,
                                byte_len: len,
                                error: "truncated dump: <page> element unclosed at end of input"
                                    .to_owned(),
                            });
                            return err.or_else(|| self.final_budget_error()).map(Err);
                        }
                    }
                }
                Scan::Page { offset, text } => (offset, text),
            };

            // One parse for both modes; they differ only in the policy
            // applied to its errors.
            let mut errors = Vec::new();
            let page = match take_element(&text, "page") {
                Ok(Some((body, _))) => parse_page(body, &mut errors),
                Ok(None) => None,
                Err(e) => {
                    errors.push(e);
                    None
                }
            };
            if matches!(self.mode, Mode::Strict) && (page.is_none() || !errors.is_empty()) {
                self.done = true;
                let e = errors
                    .into_iter()
                    .next()
                    .unwrap_or(XmlError::UnclosedElement("page"));
                return Some(Err(StreamError::Xml(e)));
            }
            match page {
                Some(page) => {
                    for e in &errors {
                        self.report.record_revision_skipped(QuarantineEntry {
                            title: Some(page.title.clone()),
                            byte_offset: offset,
                            byte_len: text.len(),
                            error: e.to_string(),
                        });
                        obs.counter("ingest/revisions_skipped").incr();
                    }
                    self.report.record_page_ok();
                    obs.counter("ingest/pages_ok").incr();
                    return Some(Ok(page));
                }
                None => {
                    // No page survived: quarantine the whole span and
                    // move on (or stop, if the budget just ran out).
                    let error = errors
                        .first()
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "page yielded no parseable content".to_owned());
                    if let Some(err) = self.quarantine_page(QuarantineEntry {
                        title: None,
                        byte_offset: offset,
                        byte_len: text.len(),
                        error,
                    }) {
                        self.done = true;
                        return Some(Err(err));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xml::render_export;
    use crate::xml::Revision;
    use proptest::prelude::*;
    use std::io::BufReader;
    use wikistale_wikicube::Date;

    fn dump(n_pages: usize) -> String {
        let pages: Vec<PageDump> = (0..n_pages)
            .map(|i| PageDump {
                title: format!("Page {i}"),
                revisions: vec![Revision {
                    date: Date::EPOCH + i as i32,
                    text: format!("{{{{Infobox x | field = {i}}}}}"),
                }],
            })
            .collect();
        render_export(&pages)
    }

    #[test]
    fn streams_every_page_in_order() {
        let xml = dump(25);
        let pages: Result<Vec<PageDump>, _> =
            PageStream::new(BufReader::new(xml.as_bytes())).collect();
        let pages = pages.unwrap();
        assert_eq!(pages.len(), 25);
        for (i, p) in pages.iter().enumerate() {
            assert_eq!(p.title, format!("Page {i}"));
            assert_eq!(p.revisions.len(), 1);
        }
    }

    #[test]
    fn streaming_matches_batch_parsing() {
        let xml = dump(7);
        let batch = crate::xml::parse_export(&xml).unwrap();
        let streamed: Vec<PageDump> = PageStream::new(BufReader::new(xml.as_bytes()))
            .map(|p| p.unwrap())
            .collect();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn tiny_read_chunks_still_work() {
        // A 1-byte BufReader capacity forces the tail-keeping logic.
        let xml = dump(3);
        let reader = BufReader::with_capacity(1, xml.as_bytes());
        let pages: Vec<PageDump> = PageStream::new(reader).map(|p| p.unwrap()).collect();
        assert_eq!(pages.len(), 3);
    }

    #[test]
    fn empty_and_pageless_inputs() {
        assert_eq!(PageStream::new(BufReader::new(&b""[..])).count(), 0);
        let no_pages = b"<mediawiki></mediawiki>";
        assert_eq!(PageStream::new(BufReader::new(&no_pages[..])).count(), 0);
    }

    #[test]
    fn malformed_page_surfaces_an_error() {
        let bad = "<page><revision><timestamp>2019-01-01T00:00:00Z</timestamp></revision></page>";
        let results: Vec<_> = PageStream::new(BufReader::new(bad.as_bytes())).collect();
        assert_eq!(results.len(), 1);
        assert!(matches!(
            results[0],
            Err(StreamError::Xml(XmlError::MissingTitle))
        ));
    }

    #[test]
    fn stops_after_error() {
        let bad = "<page><revision></revision></page><page><title>T</title></page>";
        let mut stream = PageStream::new(BufReader::new(bad.as_bytes()));
        assert!(stream.next().unwrap().is_err());
        assert!(stream.next().is_none());
    }

    #[test]
    fn strict_reports_truncated_trailing_page() {
        let truncated = "<page><title>A</title><revision>\
            <timestamp>2019-01-01T00:00:00Z</timestamp><text>x</text></revision></page>\
            <page><title>B</title><revision>";
        let results: Vec<_> = PageStream::new(BufReader::new(truncated.as_bytes())).collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(StreamError::Xml(XmlError::UnclosedElement("page")))
        ));
    }

    #[test]
    fn lossy_skips_malformed_pages_and_reports_them() {
        let xml = "<page><title>Good 1</title><revision>\
            <timestamp>2019-01-01T00:00:00Z</timestamp><text>a</text></revision></page>\
            <page><revision><timestamp>2019-01-01T00:00:00Z</timestamp></revision></page>\
            <page><title>Good 2</title><revision>\
            <timestamp>2019-01-02T00:00:00Z</timestamp><text>b</text></revision></page>";
        let mut stream = PageStream::lossy(BufReader::new(xml.as_bytes()));
        let pages: Vec<PageDump> = (&mut stream).map(|p| p.unwrap()).collect();
        assert_eq!(pages.len(), 2);
        assert_eq!(pages[0].title, "Good 1");
        assert_eq!(pages[1].title, "Good 2");
        let report = stream.into_quarantine();
        assert_eq!(report.pages_ok, 2);
        assert_eq!(report.pages_quarantined, 1);
        assert_eq!(report.entries().len(), 1);
        assert!(report.entries()[0].error.contains("title"));
        assert!(report.entries()[0].byte_offset > 0);
    }

    #[test]
    fn lossy_drops_bad_revisions_but_keeps_page() {
        let xml = "<page><title>T</title>\
            <revision><timestamp>garbage</timestamp><text>skip</text></revision>\
            <revision><timestamp>2019-01-02T00:00:00Z</timestamp><text>keep</text></revision>\
            <revision></revision>\
            </page>";
        let mut stream = PageStream::lossy(BufReader::new(xml.as_bytes()));
        let pages: Vec<PageDump> = (&mut stream).map(|p| p.unwrap()).collect();
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].revisions.len(), 1);
        assert_eq!(pages[0].revisions[0].text, "keep");
        let report = stream.into_quarantine();
        assert_eq!(report.pages_ok, 1);
        assert_eq!(report.pages_quarantined, 0);
        assert_eq!(report.revisions_skipped, 2);
        let entries = report.entries();
        assert!(entries.iter().all(|e| e.title.as_deref() == Some("T")));
        assert_eq!(
            entries[0].error,
            XmlError::BadTimestamp("garbage".to_owned()).to_string()
        );
        assert_eq!(entries[1].error, XmlError::MissingTimestamp.to_string());
    }

    #[test]
    fn non_ascii_text_between_pages_is_skipped_cleanly() {
        // The siteinfo block holds no <page>, so the stream trims it down
        // to a short tail; the cut must not split a multi-byte character.
        let xml = "<mediawiki>\n  <siteinfo>\n    <sitename>\n      Википедия\n    </sitename>\n  \
            </siteinfo>\n  <page>\n    <title>Москва</title>\n    <revision>\n      \
            <timestamp>2019-01-01T00:00:00Z</timestamp>\n      <text>x</text>\n    \
            </revision>\n  </page>\n</mediawiki>\n";
        let strict: Vec<PageDump> = PageStream::new(BufReader::new(xml.as_bytes()))
            .map(|p| p.unwrap())
            .collect();
        let lossy: Vec<PageDump> = PageStream::lossy(BufReader::new(xml.as_bytes()))
            .map(|p| p.unwrap())
            .collect();
        assert_eq!(strict.len(), 1);
        assert_eq!(strict[0].title, "Москва");
        assert_eq!(strict, lossy);
    }

    #[test]
    fn lossy_names_the_error_of_an_unreadable_title() {
        let xml = "<page><title>T<revision>\
            <timestamp>2019-01-01T00:00:00Z</timestamp></revision></page>";
        let mut stream = PageStream::lossy(BufReader::new(xml.as_bytes()));
        assert_eq!(stream.by_ref().count(), 0);
        let report = stream.into_quarantine();
        assert_eq!(report.pages_quarantined, 1);
        assert_eq!(
            report.entries()[0].error,
            XmlError::UnclosedElement("title").to_string()
        );
    }

    #[test]
    fn lossy_quarantines_truncated_trailing_page() {
        let truncated = "<page><title>A</title><revision>\
            <timestamp>2019-01-01T00:00:00Z</timestamp><text>x</text></revision></page>\
            <page><title>B</title><revision>";
        let mut stream = PageStream::lossy(BufReader::new(truncated.as_bytes()));
        let pages: Vec<PageDump> = (&mut stream).map(|p| p.unwrap()).collect();
        assert_eq!(pages.len(), 1);
        let report = stream.into_quarantine();
        assert_eq!(report.pages_quarantined, 1);
        assert!(report.entries()[0].error.contains("truncated"));
        assert_eq!(report.entries()[0].title.as_deref(), Some("B"));
    }

    #[test]
    fn lossy_on_clean_input_matches_strict() {
        let xml = dump(10);
        let strict: Vec<PageDump> = PageStream::new(BufReader::new(xml.as_bytes()))
            .map(|p| p.unwrap())
            .collect();
        let mut stream = PageStream::lossy(BufReader::new(xml.as_bytes()));
        let lossy: Vec<PageDump> = (&mut stream).map(|p| p.unwrap()).collect();
        assert_eq!(strict, lossy);
        assert!(stream.quarantine().is_clean());
        assert_eq!(stream.quarantine().pages_ok, 10);
    }

    #[test]
    fn error_budget_aborts_catastrophic_input() {
        // 30 pages, every one malformed: a 5 % budget with the default
        // 20-page threshold must abort as soon as enforcement kicks in.
        let mut xml = String::new();
        for i in 0..30 {
            xml.push_str(&format!(
                "<page><revision><timestamp>2019-01-01T00:00:00Z</timestamp>\
                 <text>missing title {i}</text></revision></page>"
            ));
        }
        let mut stream = PageStream::lossy_with_budget(
            BufReader::new(xml.as_bytes()),
            ErrorBudget::fraction(0.05),
        );
        let mut outcomes = Vec::new();
        for item in &mut stream {
            outcomes.push(item);
        }
        assert_eq!(outcomes.len(), 1, "only the terminal budget error");
        match &outcomes[0] {
            Err(StreamError::BudgetExceeded {
                quarantined, seen, ..
            }) => {
                assert_eq!(*quarantined, 20);
                assert_eq!(*seen, 20);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // The report is still available for the post-mortem summary.
        assert_eq!(stream.quarantine().pages_quarantined, 20);
    }

    #[test]
    fn budget_is_enforced_at_end_of_input_despite_the_floor() {
        // Both bad pages fall below the 20-page enforcement floor, so
        // the stream never trips mid-flight — but 2/25 = 8 % > 0 %, and
        // at end of input the floor no longer applies.
        let mut xml = String::new();
        for i in 0..25 {
            if i == 3 || i == 9 {
                xml.push_str("<page><revision></revision></page>");
            } else {
                xml.push_str(&format!(
                    "<page><title>P{i}</title><revision>\
                     <timestamp>2019-01-01T00:00:00Z</timestamp><text>v</text></revision></page>"
                ));
            }
        }
        let mut stream = PageStream::lossy_with_budget(
            BufReader::new(xml.as_bytes()),
            ErrorBudget::fraction(0.0),
        );
        let outcomes: Vec<_> = (&mut stream).collect();
        assert_eq!(outcomes.len(), 24, "23 pages then the terminal error");
        assert!(outcomes[..23].iter().all(|o| o.is_ok()));
        match outcomes.last().unwrap() {
            Err(StreamError::BudgetExceeded {
                quarantined, seen, ..
            }) => {
                assert_eq!(*quarantined, 2);
                assert_eq!(*seen, 25);
            }
            other => panic!("expected terminal BudgetExceeded, got {other:?}"),
        }
        assert!(stream.next().is_none(), "the error is terminal");
    }

    #[test]
    fn generous_budget_survives_sparse_corruption() {
        let mut xml = String::new();
        for i in 0..40 {
            if i % 10 == 3 {
                xml.push_str("<page><revision></revision></page>");
            } else {
                xml.push_str(&format!(
                    "<page><title>P{i}</title><revision>\
                     <timestamp>2019-01-01T00:00:00Z</timestamp><text>v</text></revision></page>"
                ));
            }
        }
        let mut stream = PageStream::lossy_with_budget(
            BufReader::new(xml.as_bytes()),
            ErrorBudget::fraction(0.25),
        );
        let pages: Vec<PageDump> = (&mut stream).map(|p| p.unwrap()).collect();
        assert_eq!(pages.len(), 36);
        assert_eq!(stream.quarantine().pages_quarantined, 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_lossy_never_panics_and_matches_strict_when_clean(xml in ".{0,200}") {
            let strict: Result<Vec<PageDump>, _> =
                PageStream::new(BufReader::new(xml.as_bytes())).collect();
            let mut stream = PageStream::lossy(BufReader::new(xml.as_bytes()));
            let lossy: Result<Vec<PageDump>, _> = (&mut stream).collect();
            if let Ok(strict) = strict {
                if stream.quarantine().is_clean() {
                    prop_assert_eq!(lossy.ok(), Some(strict));
                }
            }
        }
    }
}
