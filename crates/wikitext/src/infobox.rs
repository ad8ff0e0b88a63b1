//! Parsing and rendering of `{{Infobox …}}` templates in wikitext.
//!
//! The parser is deliberately pragmatic: it understands what it needs to
//! extract key–value pairs reliably from real pages — balanced template
//! braces (values may contain nested `{{cite …}}` templates), wiki links
//! (`[[target|label]]`, whose pipes must not split parameters), and HTML
//! comments — without attempting full wikitext semantics (no template
//! expansion, no parser functions).

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
                // Skip the whole template: nested infoboxes are not
                // extracted separately (they belong to the outer box).
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
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
fn strip_comments(text: &str) -> Cow<'_, str> {
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

/// Parse the inside of a `{{ … }}` template; `None` when it is not an
/// infobox.
fn parse_template(inner: &str) -> Option<Infobox> {
    let parts = split_top_level(inner);
    let mut parts = parts.into_iter();
    let name = parts.next()?;
    // "infobox" holds no whitespace, so testing the raw name's first word
    // equals testing the normalized name.
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
        // Positional parameters (no top-level `=`) are not used by
        // infoboxes; skip them rather than invent keys.
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

/// Split template content on `|` at nesting depth zero with respect to
/// `{{ }}` and `[[ ]]`.
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

/// Index of the first `=` outside nested templates and links, if any.
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

/// Collapse internal whitespace runs to single spaces and trim.
fn normalize_ws(s: &str) -> String {
    let trimmed = s.trim();
    // Most keys are already normal: copy them in one allocation.
    let mut prev_space = false;
    let normal = trimmed.chars().all(|c| {
        let ok = !c.is_whitespace() || (c == ' ' && !prev_space);
        prev_space = c == ' ';
        ok
    });
    if normal {
        return trimmed.to_owned();
    }
    trimmed.split_whitespace().collect::<Vec<_>>().join(" ")
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
    }
}
