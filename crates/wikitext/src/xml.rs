//! Minimal reader/writer for the MediaWiki XML export schema.
//!
//! Wikipedia dumps (`dumps.wikimedia.org`) are `<mediawiki>` documents
//! containing `<page>` elements with `<title>` and a series of
//! `<revision>` elements, each carrying a `<timestamp>` (ISO 8601) and the
//! full page `<text>`. This module parses exactly that structure — it is
//! not a general XML parser, but it handles the entity escaping and the
//! attribute-carrying `<text …>` tags found in real dumps, and it never
//! panics on malformed input.

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
    let mut pages = Vec::new();
    let mut rest = xml;
    while let Some((page_body, after)) = take_element(rest, "page")? {
        rest = after;
        let mut errors = Vec::new();
        let page = parse_page(page_body, &mut errors);
        if let Some(e) = errors.into_iter().next() {
            return Err(e);
        }
        pages.extend(page);
    }
    Ok(pages)
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
    let open = format!("<{name}");
    let mut search = input;
    loop {
        let Some(start) = search.find(&open) else {
            return Ok(None);
        };
        // The match must be a whole tag name: `<text` must not match
        // `<textarea>`.
        let after_name = &search[start + open.len()..];
        match after_name.as_bytes().first() {
            Some(b'>') | Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'/') => {
                let tag_close = after_name
                    .find('>')
                    .ok_or(XmlError::UnclosedElement(name))?;
                if after_name.as_bytes()[..tag_close].ends_with(b"/") {
                    // Self-closing.
                    let rest = &after_name[tag_close + 1..];
                    return Ok(Some((&rest[..0], rest)));
                }
                let body_start = start + open.len() + tag_close + 1;
                let close = format!("</{name}>");
                let body = &search[body_start..];
                let end = body.find(&close).ok_or(XmlError::UnclosedElement(name))?;
                let rest = &body[end + close.len()..];
                return Ok(Some((&body[..end], rest)));
            }
            _ => {
                search = &search[start + open.len()..];
            }
        }
    }
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
    }
}
