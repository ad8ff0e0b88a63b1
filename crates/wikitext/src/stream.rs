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
//! # The page scanner
//!
//! This is the one place that cuts `<page>` elements out of a dump;
//! [`crate::xml::parse_export`] is a strict stream over its string. The
//! scanner works on the reader's own buffer through
//! [`BufRead::fill_buf`] and [`BufRead::consume`]:
//!
//! * It keeps a resumable search cursor, so each input byte is searched
//!   once however many reads a page takes: the cost is linear in the
//!   input.
//! * `<page` matches only as a whole tag name, by the rule of the page
//!   parser's own tag search, and `<page/>` is a complete empty element.
//! * A page that lies inside the reader's buffer is handed to the page
//!   parser as a `&str` borrowed from that buffer, with no copy; for a
//!   `&[u8]` reader that is every page. A page that straddles reads is
//!   collected in a carry buffer, at most one block of 64 KiB per read, so memory stays bounded by the largest page plus one
//!   block.
//! * Each page element is checked to be UTF-8 on its own; bytes between
//!   pages are skipped unread.
//!
//! # Recovery mode
//!
//! Real dumps are messy: truncated downloads, malformed markup,
//! adversarially broken revisions. [`PageStream::lossy`] keeps going
//! where the strict stream would abort — a malformed page or revision is
//! *quarantined* (recorded with its title, byte offset, span, and error
//! in a [`QuarantineReport`]) and the stream moves on to the next page.
//! A page that is not valid UTF-8 is quarantined the same way, where the
//! strict stream stops with an [`std::io::ErrorKind::InvalidData`] error.
//! An optional [`ErrorBudget`] bounds the loss: once the quarantined
//! fraction exceeds the budget the stream yields
//! [`StreamError::BudgetExceeded`] and stops, so a catastrophically
//! corrupt input cannot silently degrade into an empty cube.
//!
//! Both modes run the same page parser; they differ only in the policy
//! applied to the errors it records.

use crate::quarantine::{ErrorBudget, QuarantineEntry, QuarantineReport};
use crate::xml::{
    find_byte, find_close_tag, find_open_tag, is_self_closing, parse_page, title_of, PageDump,
    XmlError,
};
use std::io::BufRead;
use std::ops::Range;

/// Most bytes the scanner copies out of the reader per read while a page
/// straddles reads.
const BLOCK: usize = 64 * 1024;

/// The tag name the scanner cuts elements at.
const PAGE: &[u8] = b"page";

/// Errors from streaming: transport, markup, or an exhausted error
/// budget.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying reader failed, or (strict mode only) a page element
    /// was not valid UTF-8.
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

/// How far the search for the next page element has got, as offsets
/// into the bytes searched.
#[derive(Debug, Clone, Copy)]
enum Cursor {
    /// Looking for a `<page` start tag from `from`.
    Open { from: usize },
    /// A start tag opens at `start`; looking for its `>` from `from`.
    Tag { start: usize, from: usize },
    /// The start tag ends before `body`; looking for `</page>` from
    /// `from`.
    Close {
        start: usize,
        body: usize,
        from: usize,
    },
}

/// A complete page element within the bytes searched.
#[derive(Debug, Clone)]
struct Span {
    /// The `<` of the start tag.
    start: usize,
    /// The element's content, between its tags.
    body: Range<usize>,
    /// One past the element's last byte.
    end: usize,
}

impl Cursor {
    const START: Cursor = Cursor::Open { from: 0 };

    /// Search `data` from the cursor for the end of a page element.
    /// `Err` holds the cursor to resume from once more bytes follow
    /// `data`: every byte before its `from` has been searched.
    fn advance(self, data: &[u8]) -> Result<Span, Cursor> {
        let mut cursor = self;
        loop {
            cursor = match cursor {
                Cursor::Open { from } => match find_open_tag(data, from, PAGE) {
                    Ok(start) => Cursor::Tag {
                        start,
                        from: start + 1 + PAGE.len(),
                    },
                    Err(from) => return Err(Cursor::Open { from }),
                },
                Cursor::Tag { start, from } => match find_byte(&data[from..], b'>') {
                    Some(i) if is_self_closing(data, start + 1 + PAGE.len(), from + i) => {
                        let end = from + i + 1;
                        return Ok(Span {
                            start,
                            body: end..end,
                            end,
                        });
                    }
                    Some(i) => Cursor::Close {
                        start,
                        body: from + i + 1,
                        from: from + i + 1,
                    },
                    None => {
                        return Err(Cursor::Tag {
                            start,
                            from: data.len(),
                        })
                    }
                },
                Cursor::Close { start, body, from } => match find_close_tag(data, from, PAGE) {
                    Ok(close) => {
                        return Ok(Span {
                            start,
                            body: body..close,
                            end: close + PAGE.len() + 3,
                        })
                    }
                    Err(from) => return Err(Cursor::Close { start, body, from }),
                },
            }
        }
    }

    /// The first byte that may still belong to a page element: the start
    /// tag once one is open, otherwise where the search resumes.
    fn keep_from(self) -> usize {
        match self {
            Cursor::Open { from } => from,
            Cursor::Tag { start, .. } | Cursor::Close { start, .. } => start,
        }
    }

    /// The same cursor over bytes with the first `n` removed, where at
    /// most `len` remain searched; later bytes are searched again.
    fn rebase(self, n: usize, len: usize) -> Cursor {
        let at = |i: usize| (i - n).min(len);
        match self {
            Cursor::Open { from } => Cursor::Open { from: at(from) },
            Cursor::Tag { start, from } => Cursor::Tag {
                start: at(start),
                from: at(from),
            },
            Cursor::Close { start, body, from } => Cursor::Close {
                start: at(start),
                body: at(body),
                from: at(from),
            },
        }
    }
}

/// What the page parser made of one page element.
enum Parsed {
    /// The element is UTF-8: the page, if one survived, and the errors
    /// recorded on the way, in input order.
    Text {
        page: Option<PageDump>,
        errors: Vec<XmlError>,
    },
    /// The element is not valid UTF-8; its title, if a lossy reading
    /// finds one.
    InvalidUtf8 { title: Option<String> },
}

impl Parsed {
    /// Check `data[span]` is UTF-8 and run the page parser on its body.
    fn of(data: &[u8], span: &Span) -> Parsed {
        let element = &data[span.start..span.end];
        match std::str::from_utf8(element) {
            Ok(element) => {
                // The body lies between ASCII tag bytes, on char
                // boundaries of the validated element.
                let body = &element[span.body.start - span.start..span.body.end - span.start];
                let mut errors = Vec::new();
                let page = parse_page(body, &mut errors);
                Parsed::Text { page, errors }
            }
            Err(_) => Parsed::InvalidUtf8 {
                title: title_of(&String::from_utf8_lossy(element)),
            },
        }
    }
}

/// What [`PageStream::scan`] found.
enum Scan {
    /// A complete page element: its stream byte offset and length, and
    /// what the page parser made of it.
    Page {
        offset: u64,
        len: usize,
        parsed: Parsed,
    },
    /// End of input inside a page element that never closed — the
    /// signature of a truncated dump — as a lossy stream records it.
    Truncated(QuarantineEntry),
    /// End of input.
    Eof,
}

/// An iterator of pages read incrementally from a dump.
pub struct PageStream<R: BufRead> {
    reader: R,
    /// Bytes taken out of the reader that a page may still need: a page
    /// element that straddles reads, or the start of a `<page` tag split
    /// across them. Empty while the scanner works in the reader's buffer.
    carry: Vec<u8>,
    /// Search position in `carry`, or in the reader's buffer when
    /// `carry` is empty.
    cursor: Cursor,
    /// Stream offset of `carry[0]`, or of the reader's next byte when
    /// `carry` is empty.
    pos: u64,
    done: bool,
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
            carry: Vec::new(),
            cursor: Cursor::START,
            pos: 0,
            done: false,
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

    /// Read until one complete page element has been found and parsed,
    /// or to the end of input.
    fn scan(&mut self) -> Result<Scan, StreamError> {
        loop {
            let buf = self.reader.fill_buf().map_err(StreamError::Io)?;
            if buf.is_empty() {
                // Inside a page, the carry holds it from its start tag on.
                return Ok(match self.cursor {
                    Cursor::Open { .. } => Scan::Eof,
                    _ => Scan::Truncated(QuarantineEntry {
                        title: title_of(&String::from_utf8_lossy(&self.carry)),
                        byte_offset: self.pos,
                        byte_len: self.carry.len(),
                        error: "truncated dump: <page> element unclosed at end of input".to_owned(),
                    }),
                });
            }
            if self.carry.is_empty() {
                // Search the reader's buffer in place; a page that lies
                // inside it is parsed straight from there.
                match self.cursor.advance(buf) {
                    Ok(span) => {
                        let parsed = Parsed::of(buf, &span);
                        let offset = self.pos + span.start as u64;
                        self.reader.consume(span.end);
                        self.pos += span.end as u64;
                        self.cursor = Cursor::START;
                        return Ok(Scan::Page {
                            offset,
                            len: span.end - span.start,
                            parsed,
                        });
                    }
                    Err(cursor) => {
                        // Drop what no page can need and carry at most
                        // one block of the rest over to the next read.
                        let keep = cursor.keep_from();
                        let take = buf.len().min(keep + BLOCK);
                        self.carry.extend_from_slice(&buf[keep..take]);
                        self.reader.consume(take);
                        self.pos += keep as u64;
                        self.cursor = cursor.rebase(keep, take - keep);
                    }
                }
            } else {
                // Append one block and search on from the cursor. Bytes
                // past the end of the page stay in the reader.
                let searched = self.carry.len();
                let n = buf.len().min(BLOCK);
                self.carry.extend_from_slice(&buf[..n]);
                match self.cursor.advance(&self.carry) {
                    Ok(span) => {
                        // The carry held no complete page before this
                        // block, so the page ends inside it.
                        self.reader.consume(span.end - searched);
                        let parsed = Parsed::of(&self.carry, &span);
                        let offset = self.pos + span.start as u64;
                        self.pos += span.end as u64;
                        self.carry.clear();
                        self.cursor = Cursor::START;
                        return Ok(Scan::Page {
                            offset,
                            len: span.end - span.start,
                            parsed,
                        });
                    }
                    Err(cursor) => {
                        self.reader.consume(n);
                        // Keep the page from its start tag on, or outside a
                        // page only a start tag split by the read.
                        let keep = cursor.keep_from();
                        if keep > 0 {
                            self.carry.drain(..keep);
                            self.pos += keep as u64;
                        }
                        self.cursor = cursor.rebase(keep, self.carry.len());
                    }
                }
            }
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
            let scan = match self.scan() {
                Err(e) => {
                    // Transport failures are never recoverable: without a
                    // working reader there is no next page to skip to.
                    self.done = true;
                    return Some(Err(e));
                }
                Ok(scan) => scan,
            };
            let (offset, len, parsed) = match scan {
                Scan::Eof => {
                    self.done = true;
                    return self.final_budget_error().map(Err);
                }
                Scan::Truncated(entry) => {
                    self.done = true;
                    if let Mode::Strict = self.mode {
                        return Some(Err(StreamError::Xml(XmlError::UnclosedElement("page"))));
                    }
                    let err = self.quarantine_page(entry);
                    return err.or_else(|| self.final_budget_error()).map(Err);
                }
                Scan::Page {
                    offset,
                    len,
                    parsed,
                } => (offset, len, parsed),
            };
            let (page, errors) = match (parsed, &self.mode) {
                (Parsed::Text { page, errors }, _) => (page, errors),
                (Parsed::InvalidUtf8 { .. }, Mode::Strict) => {
                    self.done = true;
                    return Some(Err(StreamError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "stream did not contain valid UTF-8",
                    ))));
                }
                (Parsed::InvalidUtf8 { title }, Mode::Lossy { .. }) => {
                    if let Some(err) = self.quarantine_page(QuarantineEntry {
                        title,
                        byte_offset: offset,
                        byte_len: len,
                        error: "invalid UTF-8 in page element".to_owned(),
                    }) {
                        self.done = true;
                        return Some(Err(err));
                    }
                    continue;
                }
            };

            // One parse for both modes; they differ only in the policy
            // applied to its errors.
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
                            byte_len: len,
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
                        byte_len: len,
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

    /// One page of `n` revisions, each a multi-line infobox of a few
    /// fields: the shape of a long edit history.
    fn long_history(n: usize) -> String {
        let revisions = (0..n)
            .map(|i| Revision {
                date: Date::EPOCH + i as i32,
                text: format!("{{{{Infobox x\n| a = {i}\n| b = {}\n}}}}", i / 7),
            })
            .collect();
        render_export(&[PageDump {
            title: "Long".to_owned(),
            revisions,
        }])
    }

    #[test]
    fn long_page_streams_in_linear_time() {
        // 5,000 revisions in one <page> element: 35k lines, 0.78 MB, read
        // about a line at a time. A scanner that searches its buffer
        // again after every read is quadratic in the page length and
        // takes seconds here.
        let xml = long_history(5_000);
        assert!(xml.len() > 500_000, "{} bytes", xml.len());
        let batch = crate::xml::parse_export(&xml).unwrap();
        assert_eq!(batch[0].revisions.len(), 5_000);
        let started = std::time::Instant::now();
        let strict: Vec<PageDump> = PageStream::new(BufReader::with_capacity(32, xml.as_bytes()))
            .map(|p| p.unwrap())
            .collect();
        let lossy: Vec<PageDump> = PageStream::lossy(BufReader::with_capacity(32, xml.as_bytes()))
            .map(|p| p.unwrap())
            .collect();
        let elapsed = started.elapsed();
        assert_eq!(strict, batch);
        assert_eq!(lossy, batch);
        assert!(elapsed.as_secs_f64() < 2.0, "took {elapsed:?}");
    }

    #[test]
    fn invalid_utf8_page_is_quarantined_in_lossy_mode() {
        let a = "<page><title>A</title><revision>\
            <timestamp>2019-01-01T00:00:00Z</timestamp><text>x\u{fffd}y</text></revision></page>";
        let b = "<page><title>B</title><revision>\
            <timestamp>2019-01-02T00:00:00Z</timestamp><text>z</text></revision></page>";
        let mut xml = format!("<mediawiki>\n{a}\n{b}\n</mediawiki>").into_bytes();
        // Replace the UTF-8 encoding of U+FFFD in page A by one bad byte.
        let at = xml
            .windows(3)
            .position(|w| w == "\u{fffd}".as_bytes())
            .unwrap();
        xml.splice(at..at + 3, [0xff]);
        let a_len = a.len() - 2;

        for capacity in [1, 7, 8192] {
            let mut stream = PageStream::lossy(BufReader::with_capacity(capacity, &xml[..]));
            let pages: Vec<PageDump> = (&mut stream).map(|p| p.unwrap()).collect();
            assert_eq!(pages.len(), 1, "capacity {capacity}");
            assert_eq!(pages[0].title, "B");
            let report = stream.into_quarantine();
            assert_eq!(report.pages_quarantined, 1);
            let entry = &report.entries()[0];
            assert_eq!(entry.byte_offset, "<mediawiki>\n".len() as u64);
            assert_eq!(entry.byte_len, a_len);
            assert_eq!(entry.title.as_deref(), Some("A"));
            assert!(entry.error.contains("invalid UTF-8"), "{}", entry.error);

            let results: Vec<_> =
                PageStream::new(BufReader::with_capacity(capacity, &xml[..])).collect();
            assert_eq!(results.len(), 1, "strict stops at the bad page");
            match &results[0] {
                Err(StreamError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                    assert_eq!(e.to_string(), "stream did not contain valid UTF-8");
                }
                other => panic!("expected an InvalidData error, got {other:?}"),
            }
        }
    }

    #[test]
    fn self_closing_page_is_an_empty_element() {
        let xml = "<mediawiki><page/>\n<page><title>B</title><revision>\
            <timestamp>2019-01-01T00:00:00Z</timestamp><text>b</text></revision></page></mediawiki>";
        let mut stream = PageStream::lossy(BufReader::new(xml.as_bytes()));
        let pages: Vec<PageDump> = (&mut stream).map(|p| p.unwrap()).collect();
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].title, "B");
        let report = stream.into_quarantine();
        assert_eq!(report.pages_quarantined, 1);
        let entry = &report.entries()[0];
        assert_eq!(entry.byte_offset, "<mediawiki>".len() as u64);
        assert_eq!(entry.byte_len, "<page/>".len());
        assert_eq!(entry.error, XmlError::MissingTitle.to_string());
        // The strict stream and the batch parser agree on its error.
        assert_eq!(crate::xml::parse_export(xml), Err(XmlError::MissingTitle));
    }

    #[test]
    fn page_matches_only_as_a_whole_tag_name() {
        let xml = "<pages><pagex>junk</page>\
            <page><title>T</title><revision>\
            <timestamp>2019-01-01T00:00:00Z</timestamp><text>t</text></revision></page></pages>";
        let mut stream = PageStream::lossy(BufReader::with_capacity(3, xml.as_bytes()));
        let pages: Vec<PageDump> = (&mut stream).map(|p| p.unwrap()).collect();
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].title, "T");
        assert!(stream.quarantine().is_clean());
        assert_eq!(crate::xml::parse_export(xml).unwrap(), pages);
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

    /// Everything a stream yields and reports, in comparable form.
    fn outcome<R: BufRead>(mut stream: PageStream<R>) -> (Vec<String>, String) {
        let items = (&mut stream).map(|item| format!("{item:?}")).collect();
        (items, format!("{:?}", stream.into_quarantine()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_read_size_never_changes_the_outcome(
            parts in proptest::collection::vec(0usize..8, 0..12),
            capacity in 1usize..40,
        ) {
            // Pages straddle reads at every offset: the carried bytes must
            // give what the in-buffer path gives, errors and offsets too.
            const PARTS: [&str; 8] = [
                "<page><title>P</title><revision>\
                 <timestamp>2019-01-01T00:00:00Z</timestamp><text>v</text></revision></page>",
                "<page>\n<title>Q</title></page>",
                "<page/>",
                "<page><revision></revision></page>",
                "<pagex>",
                "</page>",
                "текст <",
                "<page><title>T</title><revision><timestamp>bad</timestamp></revision>",
            ];
            let xml: String = parts.iter().map(|&i| PARTS[i]).collect();
            let whole = xml.as_bytes();
            prop_assert_eq!(
                outcome(PageStream::new(BufReader::with_capacity(capacity, whole))),
                outcome(PageStream::new(whole))
            );
            prop_assert_eq!(
                outcome(PageStream::lossy(BufReader::with_capacity(capacity, whole))),
                outcome(PageStream::lossy(whole))
            );
        }

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
