//! Minimal reader/writer for the MediaWiki XML export schema.
//!
//! Wikipedia dumps (`dumps.wikimedia.org`) are `<mediawiki>` documents
//! containing `<page>` elements with `<title>` and a series of
//! `<revision>` elements, each carrying a `<timestamp>` (ISO 8601) and the
//! full page `<text>`. This module parses exactly that structure — it is
//! not a general XML parser, but it handles the entity escaping and the
//! attribute-carrying `<text …>` tags found in real dumps, and it never
//! panics on malformed input.
//!
//! Page elements are cut from the input by the byte scanner in
//! [`crate::stream`]; [`parse_export`] is a strict [`PageStream`] over the
//! string. This module parses one page body at a time (`parse_page`)
//! with allocation-free tag searches that skip from one `<` to the next.

use crate::stream::{PageStream, StreamError};
use std::fmt;
use wikistale_wikicube::Date;

/// One revision of a page: the day it was saved and its full wikitext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Revision {
    /// Day of the revision (the change cube's time resolution).
    pub date: Date,
    /// Full page wikitext at this revision.
    pub text: String,
}

/// One page with its revision history in chronological order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageDump {
    /// Page title.
    pub title: String,
    /// Revisions sorted by date (the parser sorts them).
    pub revisions: Vec<Revision>,
}

/// Errors from [`parse_export`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// A `<page>` had no `<title>`.
    MissingTitle,
    /// A `<revision>` had no `<timestamp>`.
    MissingTimestamp,
    /// A timestamp was not ISO 8601 (`YYYY-MM-DDThh:mm:ssZ`).
    BadTimestamp(String),
    /// An opened element was never closed.
    UnclosedElement(&'static str),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::MissingTitle => f.write_str("page without <title>"),
            XmlError::MissingTimestamp => f.write_str("revision without <timestamp>"),
            XmlError::BadTimestamp(t) => write!(f, "unparseable timestamp {t:?}"),
            XmlError::UnclosedElement(e) => write!(f, "unclosed <{e}> element"),
        }
    }
}

impl std::error::Error for XmlError {}

/// Parse a MediaWiki XML export into page histories. Revisions of each
/// page are sorted by date. The first malformed page or revision fails
/// the whole parse.
pub fn parse_export(xml: &str) -> Result<Vec<PageDump>, XmlError> {
    PageStream::new(xml.as_bytes())
        .map(|page| match page {
            Ok(page) => Ok(page),
            Err(StreamError::Xml(e)) => Err(e),
            // A byte slice cannot fail to read, a `&str` is UTF-8, and a
            // strict stream has no error budget.
            Err(e) => unreachable!("strict stream over a string failed: {e}"),
        })
        .collect()
}

/// Parse the body of one `<page>` element — the only page parser, shared
/// by [`parse_export`] and both modes of [`crate::stream::PageStream`].
///
/// A malformed revision is dropped and its error appended to `errors`,
/// in input order; an unclosed `<revision>` ends the revision scan. A
/// page without a readable `<title>` yields `None` (its error recorded).
/// Surviving revisions are sorted by date. Never panics.
pub(crate) fn parse_page(page_body: &str, errors: &mut Vec<XmlError>) -> Option<PageDump> {
    let title = match take_element(page_body, "title") {
        Ok(Some((t, _))) => unescape(t.trim()),
        Ok(None) => {
            errors.push(XmlError::MissingTitle);
            return None;
        }
        Err(e) => {
            errors.push(e);
            return None;
        }
    };
    let mut revisions = Vec::new();
    let mut rev_rest = page_body;
    loop {
        match take_element(rev_rest, "revision") {
            Ok(None) => break,
            Ok(Some((rev_body, after_rev))) => {
                rev_rest = after_rev;
                match parse_revision(rev_body) {
                    Ok(rev) => revisions.push(rev),
                    Err(e) => errors.push(e),
                }
            }
            Err(e) => {
                // Unclosed <revision>: the rest of the page body has no
                // revision boundary; keep what parsed so far.
                errors.push(e);
                break;
            }
        }
    }
    revisions.sort_by_key(|r| r.date);
    Some(PageDump { title, revisions })
}

fn parse_revision(rev_body: &str) -> Result<Revision, XmlError> {
    let ts = match take_element(rev_body, "timestamp")? {
        Some((t, _)) => t.trim().to_owned(),
        None => return Err(XmlError::MissingTimestamp),
    };
    let date = parse_timestamp(&ts)?;
    let text = match take_element(rev_body, "text")? {
        Some((t, _)) => unescape(t),
        None => String::new(),
    };
    Ok(Revision { date, text })
}

/// Best-effort title extraction from a (possibly malformed) page body.
pub(crate) fn title_of(body: &str) -> Option<String> {
    match take_element(body, "title") {
        Ok(Some((t, _))) => Some(unescape(t.trim())),
        _ => None,
    }
}

/// Render page histories back into a MediaWiki XML export.
///
/// `parse_export(&render_export(&pages))` reproduces `pages` (modulo
/// revision ordering, which the parser normalizes).
pub fn render_export(pages: &[PageDump]) -> String {
    let mut out = String::with_capacity(256 * pages.len());
    out.push_str("<mediawiki xmlns=\"http://www.mediawiki.org/xml/export-0.11/\">\n");
    for page in pages {
        out.push_str("  <page>\n    <title>");
        out.push_str(&escape(&page.title));
        out.push_str("</title>\n");
        for rev in &page.revisions {
            out.push_str("    <revision>\n      <timestamp>");
            out.push_str(&rev.date.to_string());
            out.push_str("T00:00:00Z</timestamp>\n      <text xml:space=\"preserve\">");
            out.push_str(&escape(&rev.text));
            out.push_str("</text>\n    </revision>\n");
        }
        out.push_str("  </page>\n");
    }
    out.push_str("</mediawiki>\n");
    out
}

/// Find the next `<name …>…</name>` element in `input`; returns the inner
/// body and the remainder after the close tag. Self-closing elements
/// (`<name/>`) yield an empty body.
pub(crate) fn take_element<'a>(
    input: &'a str,
    name: &'static str,
) -> Result<Option<(&'a str, &'a str)>, XmlError> {
    let bytes = input.as_bytes();
    let Ok(start) = find_open_tag(bytes, 0, name.as_bytes()) else {
        return Ok(None);
    };
    let after_name = start + 1 + name.len();
    let tag_close =
        find_byte(&bytes[after_name..], b'>').ok_or(XmlError::UnclosedElement(name))? + after_name;
    // Every index below sits on an ASCII `<` or `>`, so on a char boundary.
    if is_self_closing(bytes, after_name, tag_close) {
        let rest = &input[tag_close + 1..];
        return Ok(Some((&rest[..0], rest)));
    }
    let body_start = tag_close + 1;
    let end = find_close_tag(bytes, body_start, name.as_bytes())
        .map_err(|_| XmlError::UnclosedElement(name))?;
    Ok(Some((
        &input[body_start..end],
        &input[end + name.len() + 3..],
    )))
}

/// Whether the start tag whose name ends at `after_name` and whose `>`
/// is at `tag_close` closes itself (`<name/>`, `<name a="b"/>`).
pub(crate) fn is_self_closing(bytes: &[u8], after_name: usize, tag_close: usize) -> bool {
    tag_close > after_name && bytes[tag_close - 1] == b'/'
}

/// Find the first `<name` start tag at or after `from`. The name must be
/// whole — followed by `>`, `/` or whitespace — so `<text` does not match
/// `<textarea>`.
///
/// `Err` carries the offset a search over a longer input must resume
/// from: the start of a tag cut off by the end of `hay`, or `hay.len()`.
pub(crate) fn find_open_tag(hay: &[u8], mut from: usize, name: &[u8]) -> Result<usize, usize> {
    while let Some(i) = find_byte(&hay[from..], b'<') {
        let i = from + i;
        match match_parts(&hay[i..], &[b"<", name]) {
            Some(true) => match hay.get(i + 1 + name.len()) {
                Some(b'>' | b' ' | b'\t' | b'\n' | b'/') => return Ok(i),
                None => return Err(i),
                Some(_) => {}
            },
            None => return Err(i),
            Some(false) => {}
        }
        from = i + 1;
    }
    Err(hay.len())
}

/// Find the first `</name>` close tag at or after `from`; `Err` as in
/// [`find_open_tag`].
pub(crate) fn find_close_tag(hay: &[u8], mut from: usize, name: &[u8]) -> Result<usize, usize> {
    while let Some(i) = find_byte(&hay[from..], b'<') {
        let i = from + i;
        match match_parts(&hay[i..], &[b"</", name, b">"]) {
            Some(true) => return Ok(i),
            None => return Err(i),
            Some(false) => from = i + 1,
        }
    }
    Err(hay.len())
}

/// Match the concatenation of `parts` at the start of `hay`: `Some(true)`
/// on a full match, `Some(false)` on a mismatch, `None` when `hay` ends
/// before the match is decided.
fn match_parts(mut hay: &[u8], parts: &[&[u8]]) -> Option<bool> {
    for part in parts {
        let n = part.len().min(hay.len());
        if hay[..n] != part[..n] {
            return Some(false);
        }
        if n < part.len() {
            return None;
        }
        hay = &hay[n..];
    }
    Some(true)
}

/// Index of the first `needle` in `hay`, tested eight bytes at a time.
///
/// Markup is sparse in a dump — revision text is escaped, so a `<` only
/// ever starts a tag — and tag searches spend their time here.
pub(crate) fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let pattern = LO * u64::from(needle);
    let mut words = hay.chunks_exact(8);
    let mut base = 0;
    for word in &mut words {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(word);
        // A zero byte of `x` marks a match; the lowest flagged byte is
        // exact (borrows only flag bytes above a true zero).
        let x = u64::from_le_bytes(bytes) ^ pattern;
        let zeros = x.wrapping_sub(LO) & !x & HI;
        if zeros != 0 {
            return Some(base + zeros.trailing_zeros() as usize / 8);
        }
        base += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|i| base + i)
}

fn parse_timestamp(ts: &str) -> Result<Date, XmlError> {
    ts.get(..10)
        .and_then(|day| day.parse::<Date>().ok())
        .ok_or_else(|| XmlError::BadTimestamp(ts.to_owned()))
}

/// Decode the five XML entities MediaWiki exports use.
fn unescape(s: &str) -> String {
    if !s.contains('&') {
        return s.to_owned();
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let replaced = [
            ("&lt;", "<"),
            ("&gt;", ">"),
            ("&quot;", "\""),
            ("&apos;", "'"),
            ("&#039;", "'"),
            ("&amp;", "&"),
        ]
        .iter()
        .find(|(entity, _)| rest.starts_with(entity));
        match replaced {
            Some((entity, ch)) => {
                out.push_str(ch);
                rest = &rest[entity.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}

/// Encode the XML-significant characters.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SAMPLE: &str = r#"<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.11/">
  <page>
    <title>London</title>
    <ns>0</ns>
    <revision>
      <id>2</id>
      <timestamp>2019-03-02T08:00:00Z</timestamp>
      <text bytes="52" xml:space="preserve">{{Infobox settlement | population_est = 9,000,000}}</text>
    </revision>
    <revision>
      <id>1</id>
      <timestamp>2018-01-01T12:30:00Z</timestamp>
      <text xml:space="preserve">{{Infobox settlement | population_est = 8,900,000}}</text>
    </revision>
  </page>
  <page>
    <title>A &amp; B</title>
    <revision>
      <timestamp>2019-01-01T00:00:00Z</timestamp>
      <text>no box &lt;here&gt;</text>
    </revision>
  </page>
</mediawiki>"#;

    #[test]
    fn parses_pages_revisions_and_sorts_by_date() {
        let pages = parse_export(SAMPLE).unwrap();
        assert_eq!(pages.len(), 2);
        let london = &pages[0];
        assert_eq!(london.title, "London");
        assert_eq!(london.revisions.len(), 2);
        // Sorted by date despite reversed input order.
        assert_eq!(london.revisions[0].date.to_string(), "2018-01-01");
        assert_eq!(london.revisions[1].date.to_string(), "2019-03-02");
        assert!(london.revisions[1].text.contains("9,000,000"));
    }

    #[test]
    fn unescapes_entities() {
        let pages = parse_export(SAMPLE).unwrap();
        assert_eq!(pages[1].title, "A & B");
        assert_eq!(pages[1].revisions[0].text, "no box <here>");
    }

    #[test]
    fn text_attributes_are_tolerated() {
        // <text bytes=… xml:space=…> must not confuse the parser.
        let pages = parse_export(SAMPLE).unwrap();
        assert!(pages[0].revisions[1].text.starts_with("{{Infobox"));
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            parse_export("<page><revision><timestamp>x</timestamp></revision></page>"),
            Err(XmlError::MissingTitle)
        );
        assert_eq!(
            parse_export("<page><title>T</title><revision></revision></page>"),
            Err(XmlError::MissingTimestamp)
        );
        assert!(matches!(
            parse_export(
                "<page><title>T</title><revision><timestamp>junk</timestamp></revision></page>"
            ),
            Err(XmlError::BadTimestamp(_))
        ));
        assert_eq!(
            parse_export("<page><title>T</title>"),
            Err(XmlError::UnclosedElement("page"))
        );
        assert_eq!(parse_export(""), Ok(vec![]));
    }

    #[test]
    fn self_closing_text() {
        let pages = parse_export(
            "<page><title>T</title><revision><timestamp>2019-01-01T00:00:00Z</timestamp><text/></revision></page>",
        )
        .unwrap();
        assert_eq!(pages[0].revisions[0].text, "");
    }

    #[test]
    fn render_parse_round_trip() {
        let pages = vec![
            PageDump {
                title: "Foo & <Bar>".to_owned(),
                revisions: vec![
                    Revision {
                        date: Date::from_ymd(2018, 1, 1).unwrap(),
                        text: "{{Infobox x | a = \"1\" & <b>}}".to_owned(),
                    },
                    Revision {
                        date: Date::from_ymd(2018, 5, 1).unwrap(),
                        text: "{{Infobox x | a = 2}}".to_owned(),
                    },
                ],
            },
            PageDump {
                title: "Empty".to_owned(),
                revisions: vec![],
            },
        ];
        let xml = render_export(&pages);
        let parsed = parse_export(&xml).unwrap();
        assert_eq!(parsed, pages);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_round_trip(
            pages in proptest::collection::vec(
                ("[a-zA-Z0-9 &<>\"']{1,20}",
                 proptest::collection::vec((0i32..20000, ".{0,50}"), 0..4)),
                0..4),
        ) {
            let pages: Vec<PageDump> = pages
                .into_iter()
                .map(|(title, revs)| {
                    let mut revisions: Vec<Revision> = revs
                        .into_iter()
                        .map(|(d, text)| Revision {
                            date: Date::EPOCH + d,
                            text,
                        })
                        .collect();
                    revisions.sort_by_key(|r| r.date);
                    PageDump { title: title.trim().to_owned(), revisions }
                })
                .filter(|p| !p.title.is_empty())
                .collect();
            let parsed = parse_export(&render_export(&pages)).unwrap();
            prop_assert_eq!(parsed, pages);
        }

        #[test]
        fn prop_never_panics(xml in ".{0,200}") {
            let _ = parse_export(&xml);
        }

        #[test]
        fn prop_find_byte_matches_position(hay in "[ab<]{0,40}", from in 0usize..40) {
            let hay = &hay.as_bytes()[from.min(hay.len())..];
            prop_assert_eq!(find_byte(hay, b'<'), hay.iter().position(|&b| b == b'<'));
        }
    }
}
