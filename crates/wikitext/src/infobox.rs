//! Parsing and rendering of `{{Infobox …}}` templates in wikitext.
//!
//! The parser is deliberately pragmatic: it understands what it needs to
//! extract key–value pairs reliably from real pages — balanced template
//! braces (values may contain nested `{{cite …}}` templates), wiki links
//! (`[[target|label]]`, whose pipes must not split parameters), and HTML
//! comments — without attempting full wikitext semantics (no template
//! expansion, no parser functions).
//!
//! There is one parser and it copies nothing. `strip_comments` cuts the
//! comments out of a revision (borrowing it when it has none), and
//! `infoboxes` walks the result, yielding each infobox as an `InfoboxRef`
//! of slices of that text: its name, then its `(key, value)` pairs from
//! `InfoboxRef::params`. A key is borrowed unless its whitespace has to
//! be normalized; a value is a trimmed slice. One pass over each
//! parameter finds both its closing top-level `|` and its first
//! top-level `=`. The revision differ consumes these slices directly;
//! [`extract_infoboxes`] copies them into owned [`Infobox`]es.
//!
//! Scanning is linear in the text, also on hostile input: a `{{` that
//! never closes is rejected in O(1) once one failed scan has measured the
//! text's brace depths (see `BraceRuns`), instead of each such start
//! rescanning to the end of the text.

use std::borrow::Cow;

/// One infobox instance: its template name and its parameters in source
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Infobox {
    /// Template name as written, whitespace-normalized (e.g.
    /// `Infobox settlement`).
    pub template: String,
    /// Named parameters `(key, value)` in source order; values keep their
    /// inner wikitext verbatim (trimmed).
    pub params: Vec<(String, String)>,
}

impl Infobox {
    /// The value of parameter `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Extract every infobox template from `text`, in document order.
///
/// A template counts as an infobox when its name starts with `infobox`
/// (ASCII case-insensitive), matching Wikipedia's naming convention.
pub fn extract_infoboxes(text: &str) -> Vec<Infobox> {
    let text = strip_comments(text);
    infoboxes(&text).map(InfoboxRef::into_owned).collect()
}

/// Render an infobox back to wikitext in the multi-line style common on
/// Wikipedia. `extract_infoboxes(&render_infobox(b))[0] == *b` for any
/// parseable box.
pub fn render_infobox(infobox: &Infobox) -> String {
    let mut out = String::with_capacity(64 + infobox.params.len() * 24);
    out.push_str("{{");
    out.push_str(&infobox.template);
    for (k, v) in &infobox.params {
        out.push_str("\n| ");
        out.push_str(k);
        out.push_str(" = ");
        out.push_str(v);
    }
    out.push_str("\n}}");
    out
}

/// Remove `<!-- … -->` comments (unterminated comments run to the end, as
/// in MediaWiki). Text without comments is returned as is.
pub(crate) fn strip_comments(text: &str) -> Cow<'_, str> {
    if !text.contains("<!--") {
        return Cow::Borrowed(text);
    }
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(start) = rest.find("<!--") {
        out.push_str(&rest[..start]);
        match rest[start + 4..].find("-->") {
            Some(end) => rest = &rest[start + 4 + end + 3..],
            None => return Cow::Owned(out),
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// The infoboxes of `text`, which must already be comment-stripped (see
/// [`strip_comments`]), in document order. Nested infoboxes are not
/// yielded separately: they belong to the outer template's values.
pub(crate) fn infoboxes(text: &str) -> Infoboxes<'_> {
    Infoboxes {
        text,
        pos: 0,
        runs: None,
    }
}

/// Iterator returned by [`infoboxes`].
#[derive(Debug)]
pub(crate) struct Infoboxes<'a> {
    text: &'a str,
    /// Where the search for the next `{{` resumes.
    pos: usize,
    /// Brace depths of the whole text, measured on the first `{{` whose
    /// template never closes.
    runs: Option<BraceRuns>,
}

impl<'a> Iterator for Infoboxes<'a> {
    type Item = InfoboxRef<'a>;

    fn next(&mut self) -> Option<InfoboxRef<'a>> {
        let text = self.text;
        let bytes = text.as_bytes();
        while self.pos + 1 < bytes.len() {
            let i = self.pos;
            if bytes[i] == b'{' && bytes[i + 1] == b'{' {
                if let Some(end) = self.template_end(i) {
                    // Skip the whole template, infobox or not.
                    self.pos = end;
                    match InfoboxRef::parse(&text[i + 2..end - 2]) {
                        Some(infobox) => return Some(infobox),
                        None => continue,
                    }
                }
            }
            self.pos += 1;
        }
        None
    }
}

impl Infoboxes<'_> {
    /// One past the `}}` closing the template opened at `start`, if any.
    /// The first start that fails pays one scan to the end of the text
    /// and one pass measuring its brace depths; every later start that
    /// fails is rejected from those depths without scanning.
    fn template_end(&mut self, start: usize) -> Option<usize> {
        let bytes = self.text.as_bytes();
        match &mut self.runs {
            Some(runs) => runs
                .closes(start)
                .then(|| find_template_end(bytes, start))
                .flatten(),
            None => {
                let end = find_template_end(bytes, start);
                if end.is_none() {
                    self.runs = Some(BraceRuns::measure(bytes));
                }
                end
            }
        }
    }
}

/// Given `bytes[start..]` beginning with `{{`, find the index one past the
/// matching `}}`, honoring nesting.
fn find_template_end(bytes: &[u8], start: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = start;
    while i + 1 < bytes.len() {
        if bytes[i] == b'{' && bytes[i + 1] == b'{' {
            depth += 1;
            i += 2;
        } else if bytes[i] == b'}' && bytes[i + 1] == b'}' {
            depth -= 1;
            i += 2;
            if depth == 0 {
                return Some(i);
            }
        } else {
            i += 1;
        }
    }
    None
}

/// Whether [`find_template_end`] succeeds from a given `{{`, answered in
/// O(1) from one pass over the text.
///
/// The scan pairs `{` bytes greedily from where it starts, so a scan from
/// any `{{` inside a run of `{` leaves the run at the run's end, `c` opens
/// deep, and from there tokenizes exactly like one canonical scan of the
/// whole text from its first byte. Run the canonical scan once with a
/// signed depth; the scan from the start closes exactly when the
/// canonical depth later falls `c` below its value at the run's end, that
/// is, when the minimum depth after the run is at most the depth at its
/// end minus `c`.
#[derive(Debug)]
struct BraceRuns {
    /// Every run of two or more `{`, in text order.
    runs: Vec<BraceRun>,
    /// First run that may still hold a start; starts arrive in text order.
    next: usize,
}

#[derive(Debug)]
struct BraceRun {
    /// One past the run's last `{`.
    end: usize,
    /// Canonical depth at `end`.
    depth: isize,
    /// Lowest canonical depth after a `}}` past `end`; `isize::MAX` when
    /// none follows.
    min_after: isize,
}

impl BraceRuns {
    fn measure(bytes: &[u8]) -> BraceRuns {
        let mut runs: Vec<BraceRun> = Vec::new();
        let mut depth = 0isize;
        let mut i = 0;
        while i + 1 < bytes.len() {
            if bytes[i] == b'{' && bytes[i + 1] == b'{' {
                // The canonical scan only enters a run at its first byte.
                let end = i + bytes[i..].iter().take_while(|&&b| b == b'{').count();
                depth += ((end - i) / 2) as isize;
                runs.push(BraceRun {
                    end,
                    depth,
                    min_after: isize::MAX,
                });
                i = end;
            } else if bytes[i] == b'}' && bytes[i + 1] == b'}' {
                depth -= 1;
                i += 2;
                if let Some(run) = runs.last_mut() {
                    run.min_after = run.min_after.min(depth);
                }
            } else {
                i += 1;
            }
        }
        // Each run has the minimum up to the next run; carry the minima
        // of later runs backwards.
        for k in (1..runs.len()).rev() {
            let later = runs[k].min_after;
            let run = &mut runs[k - 1];
            run.min_after = run.min_after.min(later);
        }
        BraceRuns { runs, next: 0 }
    }

    /// Whether the template opened by the `{{` at `start` closes. Starts
    /// must be asked about in increasing order.
    fn closes(&mut self, start: usize) -> bool {
        while self.runs.get(self.next).is_some_and(|run| run.end <= start) {
            self.next += 1;
        }
        match self.runs.get(self.next) {
            Some(run) => {
                let opens = ((run.end - start) / 2) as isize;
                run.min_after <= run.depth - opens
            }
            None => false,
        }
    }
}

/// One infobox as slices of the comment-stripped text it was found in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InfoboxRef<'a> {
    /// The template's inside, between `{{` and `}}`.
    inner: &'a str,
    /// Where the name ends: the first top-level `|`, or `inner.len()`.
    name_end: usize,
}

impl<'a> InfoboxRef<'a> {
    /// `inner` as an infobox, `None` when the template is not one.
    fn parse(inner: &'a str) -> Option<InfoboxRef<'a>> {
        let (name_end, _) = scan_part(inner.as_bytes(), 0);
        // "infobox" holds no whitespace, so testing the raw name's first
        // word equals testing the normalized name.
        let is_infobox = inner[..name_end]
            .trim_start()
            .as_bytes()
            .get(..7)
            .is_some_and(|prefix| prefix.eq_ignore_ascii_case(b"infobox"));
        is_infobox.then_some(InfoboxRef { inner, name_end })
    }

    /// The template name, whitespace-normalized (e.g. `Infobox
    /// settlement`).
    pub(crate) fn name(&self) -> Cow<'a, str> {
        normalize_ws(&self.inner[..self.name_end])
    }

    /// The named parameters in source order: whitespace-normalized keys
    /// and trimmed values. Positional parameters (no top-level `=`) are
    /// not used by infoboxes and are skipped rather than given invented
    /// keys; so are parameters whose key is empty.
    pub(crate) fn params(&self) -> Params<'a> {
        Params {
            inner: self.inner,
            pos: self.name_end + 1,
        }
    }

    /// The box as an owned [`Infobox`].
    fn into_owned(self) -> Infobox {
        Infobox {
            template: self.name().into_owned(),
            params: self
                .params()
                .map(|(k, v)| (k.into_owned(), v.to_owned()))
                .collect(),
        }
    }
}

/// Iterator returned by [`InfoboxRef::params`].
#[derive(Debug, Clone)]
pub(crate) struct Params<'a> {
    inner: &'a str,
    /// Start of the next parameter; past the end once the last one is
    /// read.
    pos: usize,
}

impl<'a> Iterator for Params<'a> {
    type Item = (Cow<'a, str>, &'a str);

    fn next(&mut self) -> Option<(Cow<'a, str>, &'a str)> {
        while self.pos <= self.inner.len() {
            let start = self.pos;
            let (end, eq) = scan_part(self.inner.as_bytes(), start);
            self.pos = end + 1;
            if let Some(eq) = eq {
                let key = normalize_ws(&self.inner[start..eq]);
                if !key.is_empty() {
                    return Some((key, self.inner[eq + 1..end].trim()));
                }
            }
        }
        None
    }
}

/// Scan the template part starting at `from` for the `|` that ends it at
/// nesting depth zero with respect to `{{ }}` and `[[ ]]`, and for its
/// first `=` at depth zero. Returns the part's end (`bytes.len()` for the
/// last part) and that `=`, if any. Closing brackets never take a depth
/// below zero.
fn scan_part(bytes: &[u8], from: usize) -> (usize, Option<usize>) {
    let mut template_depth = 0usize;
    let mut link_depth = 0usize;
    let mut eq = None;
    let mut i = from;
    while i < bytes.len() {
        let pair = bytes.get(i + 1) == Some(&bytes[i]);
        match bytes[i] {
            b'{' if pair => {
                template_depth += 1;
                i += 2;
            }
            b'}' if pair => {
                template_depth = template_depth.saturating_sub(1);
                i += 2;
            }
            b'[' if pair => {
                link_depth += 1;
                i += 2;
            }
            b']' if pair => {
                link_depth = link_depth.saturating_sub(1);
                i += 2;
            }
            b'|' if template_depth == 0 && link_depth == 0 => return (i, eq),
            b'=' if eq.is_none() && template_depth == 0 && link_depth == 0 => {
                eq = Some(i);
                i += 1;
            }
            _ => i += 1,
        }
    }
    (bytes.len(), eq)
}

/// Collapse internal whitespace runs to single spaces and trim; borrowed
/// when `s` is already in that form.
fn normalize_ws(s: &str) -> Cow<'_, str> {
    let trimmed = s.trim();
    let mut prev_space = false;
    let normal = trimmed.chars().all(|c| {
        let ok = !c.is_whitespace() || (c == ' ' && !prev_space);
        prev_space = c == ' ';
        ok
    });
    if normal {
        return Cow::Borrowed(trimmed);
    }
    Cow::Owned(trimmed.split_whitespace().collect::<Vec<_>>().join(" "))
}

/// Canonical identity of a template name: lower-cased, with underscores
/// (MediaWiki's title-internal spaces) folded to spaces and whitespace
/// runs collapsed. `Infobox_Settlement`, `infobox settlement` and
/// `Infobox  settlement` all denote the same template; the revision
/// differ keys infobox identity on this form so renames of pure casing or
/// spelling do not fragment change histories.
pub fn canonical_template_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for word in name
        .split(|c: char| c.is_whitespace() || c == '_')
        .filter(|w| !w.is_empty())
    {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(word);
    }
    out.make_ascii_lowercase();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_simple_infobox() {
        let text = r#"
Some article text.
{{Infobox settlement
| name = London
| population_est = 8,961,989
| pop_est_as_of = mid-2018
}}
More text."#;
        let boxes = extract_infoboxes(text);
        assert_eq!(boxes.len(), 1);
        let b = &boxes[0];
        assert_eq!(b.template, "Infobox settlement");
        assert_eq!(b.get("name"), Some("London"));
        assert_eq!(b.get("population_est"), Some("8,961,989"));
        assert_eq!(b.get("pop_est_as_of"), Some("mid-2018"));
        assert_eq!(b.get("missing"), None);
    }

    #[test]
    fn ignores_non_infobox_templates() {
        let boxes = extract_infoboxes("{{cite web | url = x}} {{Navbox | a = b}}");
        assert!(boxes.is_empty());
    }

    #[test]
    fn nested_templates_stay_inside_values() {
        let text =
            "{{Infobox person | birth_date = {{birth date|1961|8|4}} | name = Barack Obama}}";
        let boxes = extract_infoboxes(text);
        assert_eq!(boxes.len(), 1);
        assert_eq!(boxes[0].get("birth_date"), Some("{{birth date|1961|8|4}}"));
        assert_eq!(boxes[0].get("name"), Some("Barack Obama"));
    }

    #[test]
    fn links_with_pipes_do_not_split_params() {
        let text = "{{Infobox club | ground = [[Wembley Stadium|Wembley]] | capacity = 90,000}}";
        let boxes = extract_infoboxes(text);
        assert_eq!(boxes[0].get("ground"), Some("[[Wembley Stadium|Wembley]]"));
        assert_eq!(boxes[0].get("capacity"), Some("90,000"));
    }

    #[test]
    fn equals_inside_nested_structures_is_not_a_separator() {
        let text = "{{Infobox x | url = {{URL|https://e.org?a=1}} | next = [[A=B|label]] }}";
        let boxes = extract_infoboxes(text);
        assert_eq!(boxes[0].get("url"), Some("{{URL|https://e.org?a=1}}"));
        assert_eq!(boxes[0].get("next"), Some("[[A=B|label]]"));
    }

    #[test]
    fn value_with_equals_keeps_remainder() {
        let text = "{{Infobox x | formula = E = mc^2}}";
        let boxes = extract_infoboxes(text);
        assert_eq!(boxes[0].get("formula"), Some("E = mc^2"));
    }

    #[test]
    fn multiple_infoboxes_in_document_order() {
        let text = "{{Infobox a | k = 1}} text {{Infobox b | k = 2}}";
        let boxes = extract_infoboxes(text);
        assert_eq!(boxes.len(), 2);
        assert_eq!(boxes[0].template, "Infobox a");
        assert_eq!(boxes[1].template, "Infobox b");
    }

    #[test]
    fn comments_are_stripped() {
        let text = "{{Infobox x | a = 1 <!-- needs update --> | b <!-- ignore me --> = 2}}";
        let boxes = extract_infoboxes(text);
        assert_eq!(boxes[0].get("a"), Some("1"));
        assert_eq!(boxes[0].get("b"), Some("2"));
        // Unterminated comment swallows the rest (MediaWiki behaviour).
        assert!(extract_infoboxes("<!-- {{Infobox x | a = 1}}").is_empty());
    }

    #[test]
    fn unbalanced_braces_do_not_panic() {
        assert!(extract_infoboxes("{{Infobox broken | a = 1").is_empty());
        assert!(extract_infoboxes("}} {{").is_empty());
        assert!(extract_infoboxes("{{}}").is_empty());
    }

    #[test]
    fn positional_params_are_skipped() {
        let text = "{{Infobox x | positional | named = 1}}";
        let boxes = extract_infoboxes(text);
        assert_eq!(boxes[0].params, vec![("named".to_owned(), "1".to_owned())]);
    }

    #[test]
    fn case_insensitive_template_match() {
        let boxes = extract_infoboxes("{{infobox lowercase | a = 1}}");
        assert_eq!(boxes.len(), 1);
        assert_eq!(boxes[0].template, "infobox lowercase");
    }

    #[test]
    fn canonical_template_names() {
        assert_eq!(
            canonical_template_name("Infobox_Settlement"),
            "infobox settlement"
        );
        assert_eq!(
            canonical_template_name("infobox  settlement"),
            "infobox settlement"
        );
        assert_eq!(
            canonical_template_name(" Infobox settlement "),
            "infobox settlement"
        );
        assert_eq!(canonical_template_name("Infobox boxer"), "infobox boxer");
    }

    #[test]
    fn render_round_trip() {
        let infobox = Infobox {
            template: "Infobox football club".to_owned(),
            params: vec![
                ("clubname".to_owned(), "FC Example".to_owned()),
                ("ground".to_owned(), "[[Big Arena|Arena]]".to_owned()),
                ("founded".to_owned(), "{{start date|1901}}".to_owned()),
            ],
        };
        let rendered = render_infobox(&infobox);
        let parsed = extract_infoboxes(&rendered);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0], infobox);
    }

    proptest! {
        #[test]
        fn prop_render_parse_round_trip(
            template_suffix in "[a-z ]{1,12}",
            params in proptest::collection::vec(
                ("[a-z_]{1,10}", "[a-zA-Z0-9 ,.']{0,20}"), 0..8),
        ) {
            // Deduplicate keys (get() returns the first match only) and
            // drop values that would trim differently.
            let mut seen = std::collections::HashSet::new();
            let params: Vec<(String, String)> = params
                .into_iter()
                .filter(|(k, _)| seen.insert(k.clone()))
                .map(|(k, v)| (k, v.trim().to_owned()))
                .collect();
            let infobox = Infobox {
                template: format!("Infobox {}", template_suffix.trim()),
                params,
            };
            let parsed = extract_infoboxes(&render_infobox(&infobox));
            prop_assert_eq!(parsed.len(), 1);
            prop_assert_eq!(&parsed[0].params, &infobox.params);
        }

        #[test]
        fn prop_never_panics_on_garbage(text in ".{0,300}") {
            let _ = extract_infoboxes(&text);
        }

        #[test]
        fn prop_names_normalize_like_split_whitespace(
            name in "[ \t\u{a0}]{0,2}[iI][nN][fF][oO][bB]?[oO][xX][ _a\t\n\u{a0}\u{3000}é]{0,8}",
        ) {
            let reference = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
            prop_assert_eq!(normalize_ws(&name), reference(&name));
            let canonical = reference(&name.replace('_', " ")).to_ascii_lowercase();
            prop_assert_eq!(canonical_template_name(&name), canonical.clone());
            let boxes = extract_infoboxes(&format!("{{{{{name} | a = 1}}}}"));
            prop_assert_eq!(
                boxes.len(),
                usize::from(reference(&name).to_ascii_lowercase().starts_with("infobox"))
            );
        }

        #[test]
        fn prop_matches_reference_scanner_on_brace_heavy_text(
            tokens in proptest::collection::vec(0usize..BRACE_HEAVY.len(), 0..80),
        ) {
            let text: String = tokens.iter().map(|&t| BRACE_HEAVY[t]).collect();
            prop_assert_eq!(extract_infoboxes(&text), reference::extract_infoboxes(&text));
        }

        #[test]
        fn prop_brace_runs_agree_with_the_scan_at_every_start(
            tokens in proptest::collection::vec(0usize..BRACE_HEAVY.len(), 0..80),
        ) {
            let text: String = tokens.iter().map(|&t| BRACE_HEAVY[t]).collect();
            let bytes = text.as_bytes();
            let mut runs = BraceRuns::measure(bytes);
            for start in 0..bytes.len().saturating_sub(1) {
                if bytes[start] == b'{' && bytes[start + 1] == b'{' {
                    prop_assert_eq!(
                        runs.closes(start),
                        find_template_end(bytes, start).is_some(),
                        "start {} of {:?}",
                        start,
                        text
                    );
                }
            }
        }
    }

    /// Tokens for brace-heavy text: unbalanced and nested braces and
    /// links, separators, comment markers and names, some infoboxes.
    const BRACE_HEAVY: [&str; 19] = [
        "{",
        "}",
        "{{",
        "}}",
        "[",
        "]",
        "[[",
        "]]",
        "|",
        "=",
        "<!--",
        "-->",
        "a",
        "b",
        " ",
        "\t",
        "Infobox ",
        "{{infobox_x",
        "x",
    ];

    #[test]
    fn keys_are_borrowed_unless_whitespace_is_rewritten() {
        let text = "{{Infobox x | plain key = 1 |  spaced\tkey  = 2}}";
        let boxes: Vec<InfoboxRef<'_>> = infoboxes(text).collect();
        assert_eq!(boxes.len(), 1);
        assert!(matches!(boxes[0].name(), Cow::Borrowed("Infobox x")));
        let params: Vec<_> = boxes[0].params().collect();
        assert!(matches!(params[0], (Cow::Borrowed("plain key"), "1")));
        assert!(matches!(&params[1], (Cow::Owned(k), "2") if k == "spaced key"));
    }

    #[test]
    fn unclosed_templates_extract_in_linear_time() {
        // Each shape is 1 MB of starts that never close, or mostly not;
        // a rescan to the end of the text per start would take hours.
        let shapes = ["{{", "{{a|", "{{{{}}", "{{x}}{{"];
        for shape in shapes {
            let text = shape.repeat((1 << 20) / shape.len());
            let started = std::time::Instant::now();
            let boxes = extract_infoboxes(&text);
            let elapsed = started.elapsed();
            assert!(boxes.is_empty(), "{shape:?}");
            assert!(
                elapsed < std::time::Duration::from_secs(1),
                "1 MB of {shape:?} took {elapsed:?}"
            );
        }
        // The same verdicts as the reference scanner on a short text.
        for shape in shapes {
            let text = format!("{}{{{{Infobox y | a = 1}}}}", shape.repeat(300));
            assert_eq!(
                extract_infoboxes(&text),
                reference::extract_infoboxes(&text),
                "{shape:?}"
            );
        }
    }

    /// The extractor as it was before parameters were borrowed: a rescan
    /// to the end of the text from every `{{` that does not close, and
    /// separate passes for a template's `|` splits and each part's `=`.
    pub(crate) mod reference {
        use super::super::{find_template_end, strip_comments, Infobox};

        pub(crate) fn extract_infoboxes(text: &str) -> Vec<Infobox> {
            let text = strip_comments(text);
            let bytes = text.as_bytes();
            let mut out = Vec::new();
            let mut i = 0;
            while i + 1 < bytes.len() {
                if bytes[i] == b'{' && bytes[i + 1] == b'{' {
                    if let Some(end) = find_template_end(bytes, i) {
                        let inner = &text[i + 2..end - 2];
                        if let Some(infobox) = parse_template(inner) {
                            out.push(infobox);
                        }
                        i = end;
                        continue;
                    }
                }
                i += 1;
            }
            out
        }

        fn parse_template(inner: &str) -> Option<Infobox> {
            let parts = split_top_level(inner);
            let mut parts = parts.into_iter();
            let name = parts.next()?;
            let is_infobox = name
                .trim_start()
                .as_bytes()
                .get(..7)
                .is_some_and(|prefix| prefix.eq_ignore_ascii_case(b"infobox"));
            if !is_infobox {
                return None;
            }
            let name = normalize_ws(name);
            let mut params = Vec::new();
            for part in parts {
                if let Some(eq) = find_top_level_eq(part) {
                    let key = normalize_ws(&part[..eq]);
                    let value = part[eq + 1..].trim().to_owned();
                    if !key.is_empty() {
                        params.push((key, value));
                    }
                }
            }
            Some(Infobox {
                template: name,
                params,
            })
        }

        fn split_top_level(inner: &str) -> Vec<&str> {
            let bytes = inner.as_bytes();
            let mut parts = Vec::new();
            let mut template_depth = 0usize;
            let mut link_depth = 0usize;
            let mut last = 0usize;
            let mut i = 0usize;
            while i < bytes.len() {
                match bytes[i] {
                    b'{' if i + 1 < bytes.len() && bytes[i + 1] == b'{' => {
                        template_depth += 1;
                        i += 2;
                    }
                    b'}' if i + 1 < bytes.len() && bytes[i + 1] == b'}' => {
                        template_depth = template_depth.saturating_sub(1);
                        i += 2;
                    }
                    b'[' if i + 1 < bytes.len() && bytes[i + 1] == b'[' => {
                        link_depth += 1;
                        i += 2;
                    }
                    b']' if i + 1 < bytes.len() && bytes[i + 1] == b']' => {
                        link_depth = link_depth.saturating_sub(1);
                        i += 2;
                    }
                    b'|' if template_depth == 0 && link_depth == 0 => {
                        parts.push(&inner[last..i]);
                        i += 1;
                        last = i;
                    }
                    _ => i += 1,
                }
            }
            parts.push(&inner[last..]);
            parts
        }

        fn find_top_level_eq(part: &str) -> Option<usize> {
            let bytes = part.as_bytes();
            let mut template_depth = 0usize;
            let mut link_depth = 0usize;
            let mut i = 0usize;
            while i < bytes.len() {
                match bytes[i] {
                    b'{' if i + 1 < bytes.len() && bytes[i + 1] == b'{' => {
                        template_depth += 1;
                        i += 2;
                    }
                    b'}' if i + 1 < bytes.len() && bytes[i + 1] == b'}' => {
                        template_depth = template_depth.saturating_sub(1);
                        i += 2;
                    }
                    b'[' if i + 1 < bytes.len() && bytes[i + 1] == b'[' => {
                        link_depth += 1;
                        i += 2;
                    }
                    b']' if i + 1 < bytes.len() && bytes[i + 1] == b']' => {
                        link_depth = link_depth.saturating_sub(1);
                        i += 2;
                    }
                    b'=' if template_depth == 0 && link_depth == 0 => return Some(i),
                    _ => i += 1,
                }
            }
            None
        }

        fn normalize_ws(s: &str) -> String {
            s.split_whitespace().collect::<Vec<_>>().join(" ")
        }
    }
}
