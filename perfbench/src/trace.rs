//! In-memory spans for the traced run.
//!
//! The traced run times calls into each layer's public functions from the
//! benchmark's own code; the program carries no extra instrumentation. A
//! span records its name, its start and end, the span that was open when
//! it began (its parent) and the request it belongs to. Spans stay in
//! memory until the run ends and are then written out together with each
//! name's self time: a span's duration minus the part its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called, e.g. `wikitext.diff`.
    pub name: &'static str,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The request (or repetition) the span belongs to.
    pub request: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures,
/// so the untraced runs share the traced runs' code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: RefCell::default(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans opened from now on with `request`.
    pub fn set_request(&self, request: u64) {
        self.state.borrow_mut().request = request;
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut state = self.state.borrow_mut();
            let id = state.spans.len();
            let span = Span {
                name,
                parent: state.open.last().copied(),
                request: state.request,
                start_ns: self.now_ns(),
                end_ns: 0,
            };
            state.spans.push(span);
            state.open.push(id);
            id
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut state = self.state.borrow_mut();
        state.spans[id].end_ns = end_ns;
        state.open.pop();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Durations in microseconds of the spans named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.durations_us_where(|span| span.name == name)
    }

    /// Durations in microseconds of the spans `keep` selects.
    pub fn durations_us_where(&self, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
        self.state
            .borrow()
            .spans
            .iter()
            .filter(|span| keep(span))
            .map(|span| span.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Summed duration in seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e6
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of each span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
        .collect()
}

/// Count, total time and self time of the spans sharing one name.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NameStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals and self times.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStat> {
    let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let stat = out.entry(span.name).or_default();
        stat.count += 1;
        stat.total_ns += span.duration_ns();
        stat.self_ns += self_ns;
    }
    out
}

/// The trace file: per-name totals and self times, then every span as
/// `[name, parent, request, start_ns, end_ns]`.
pub fn render_json(spans: &[Span]) -> String {
    let mut out = String::from("{\n  \"by_name\": {");
    for (i, (name, stat)) in by_name(spans).iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            stat.count, stat.total_ns, stat.self_ns
        ));
    }
    out.push_str("\n  },\n  \"spans\": [");
    for (i, span) in spans.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "    [\"{}\", {parent}, {}, {}, {}]",
            span.name, span.request, span.start_ns, span.end_ns
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    fn sample() -> Vec<Span> {
        vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 70),
            span("b.inner", Some(2), 45, 50),
            span("a", None, 200, 260),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&sample()), vec![50, 20, 25, 5, 60]);
        let stats = by_name(&sample());
        assert_eq!(
            stats["root"],
            NameStat {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            stats["a"],
            NameStat {
                count: 2,
                total_ns: 80,
                self_ns: 80
            }
        );
    }

    #[test]
    fn tracer_links_parents_and_requests() {
        let tracer = Tracer::new(true);
        tracer.set_request(7);
        let value = tracer.span("outer", || tracer.span("inner", || 3));
        assert_eq!(value, 3);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", || 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_file_is_valid_json() {
        wikistale_obs::json::validate(&render_json(&sample())).unwrap();
        wikistale_obs::json::validate(&render_json(&[])).unwrap();
    }
}
