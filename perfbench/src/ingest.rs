//! The ingest path: an XML dump streamed through `PageStream` →
//! `CubeAccumulator::add_page` → `finish`.

use std::collections::BTreeSet;

use wikistale_obs::alloc::AllocScope;
use wikistale_wikicube::ChangeCube;
use wikistale_wikitext::diff::CubeAccumulator;
use wikistale_wikitext::PageStream;

use crate::gen::{histories, Dump, Histories};
use crate::report::Report;
use crate::stats::{self, Laps};
use crate::trace::Tracer;

/// Laps a pass is timed in, each over an equal share of the dump's pages;
/// the last one includes `finish`.
const LAPS: usize = 8;

/// Seconds of passes a round takes at least. A pass over the light dump
/// takes a few tenths of a second and single passes varied by a third, so
/// it needs more repetitions than one per round gives; a pass over the
/// full dump takes longer than this on its own.
const ROUND_SECONDS: f64 = 1.0;

/// What one pass over a dump produced.
pub struct Pass {
    pub secs: f64,
    /// Wall seconds of each lap.
    pub laps: Vec<f64>,
    pub pages: usize,
    pub revisions: usize,
    pub quarantined: usize,
    pub cube: ChangeCube,
}

/// Ingest `dump` once, in the stream's lossy mode: a malformed page is
/// quarantined and counted as a failure instead of ending the run.
pub fn pass(dump: &Dump, tracer: &Tracer) -> Pass {
    let lap_pages = dump.pages.div_ceil(LAPS).max(1);
    let mut laps = Laps::start();
    tracer.span("ingest.pass", || {
        let mut stream = PageStream::lossy(&dump.xml[..]);
        let mut acc = CubeAccumulator::new();
        let mut revisions = 0;
        let mut unreadable = 0;
        let mut items = 0;
        while let Some(item) = tracer.span("wikitext.stream", || stream.next()) {
            items += 1;
            if items % lap_pages == 0 {
                laps.lap();
            }
            match item {
                Ok(page) => {
                    revisions += page.revisions.len();
                    tracer.span("wikitext.diff", || {
                        acc.add_page(&page);
                    });
                }
                Err(_) => unreadable += 1,
            }
        }
        let pages = acc.pages_seen();
        let cube = tracer.span("wikitext.finish", || acc.finish());
        laps.lap();
        Pass {
            secs: laps.total(),
            laps: laps.secs().to_vec(),
            pages,
            revisions,
            quarantined: stream.quarantine().pages_quarantined + unreadable,
            cube,
        }
    })
}

/// Count a pass's pages; quarantined ones failed.
fn account(pass: &Pass, report: &mut Report) {
    report.attempt((pass.pages + pass.quarantined) as u64);
    report.fail(pass.quarantined as u64, "ingest: quarantined pages");
}

/// Check a pass's cube against the source sample.
fn check(dump: &Dump, pass: &Pass, report: &mut Report) {
    let mismatched = mismatches(&dump.histories, &histories(&pass.cube));
    report.fail(
        mismatched,
        "ingest: field histories differ from the source sample",
    );
}

/// Fields whose histories differ, including fields found on one side only.
fn mismatches(expected: &Histories, got: &Histories) -> u64 {
    let keys: BTreeSet<_> = expected.keys().chain(got.keys()).collect();
    keys.into_iter()
        .filter(|key| expected.get(*key) != got.get(*key))
        .count() as u64
}

/// Untraced, timed passes over one dump, taken one at a time.
pub struct Passes<'a> {
    dump: &'a Dump,
    /// Each pass's lap times.
    laps: Vec<Vec<f64>>,
    peak: usize,
    last: Option<Pass>,
}

impl<'a> Passes<'a> {
    pub fn new(dump: &'a Dump) -> Passes<'a> {
        Passes {
            dump,
            laps: Vec::new(),
            peak: 0,
            last: None,
        }
    }

    /// Timed passes until they have taken [`ROUND_SECONDS`], at least
    /// one.
    pub fn round(&mut self, report: &mut Report) {
        let mut secs = 0.0;
        while secs < ROUND_SECONDS {
            secs += self.rep(report);
        }
    }

    /// One timed pass; returns its seconds.
    fn rep(&mut self, report: &mut Report) -> f64 {
        drop(self.last.take());
        let scope = AllocScope::begin();
        let pass = pass(self.dump, &Tracer::new(false));
        self.peak = self.peak.max(scope.peak_delta());
        self.laps.push(pass.laps.clone());
        account(&pass, report);
        let secs = pass.secs;
        self.last = Some(pass);
        secs
    }

    /// Check the last pass's cube and report the rate of a pass with each
    /// lap at its fastest (see [`stats::fastest_laps`]). Returns the highest heap a pass needed
    /// above what was live when it began.
    pub fn finish(self, report: &mut Report) -> usize {
        match &self.last {
            Some(last) => check(self.dump, last, report),
            None => report.fail(1, "ingest: no pass ran"),
        }
        let mb = self.dump.xml.len() as f64 / 1e6;
        let secs: Vec<f64> = self.laps.iter().map(|laps| laps.iter().sum()).collect();
        let rate = mb / stats::fastest_laps(&self.laps);
        eprintln!(
            "perfbench: ingest {} passes over {mb:.1} MB: {rate:.2} MB/s of fastest laps, \
             {:.2} MB/s fastest, {:.2} MB/s median",
            secs.len(),
            mb / stats::fastest(&secs),
            mb / stats::median(&secs)
        );
        report.metric("ingest_mb_s", rate, "MB/s");
        self.peak
    }
}

/// Traced: one untraced and one traced pass. Reports the per-layer
/// metrics and returns the (traced, untraced) wall seconds.
pub fn trace(dump: &Dump, tracer: &Tracer, report: &mut Report) -> (f64, f64) {
    let untraced = pass(dump, &Tracer::new(false));
    account(&untraced, report);
    let traced = pass(dump, tracer);
    account(&traced, report);
    check(dump, &traced, report);
    report.metric("wikitext.stream_s", tracer.total_s("wikitext.stream"), "s");
    report.metric("wikitext.diff_s", tracer.total_s("wikitext.diff"), "s");
    report.metric("wikitext.finish_s", tracer.total_s("wikitext.finish"), "s");
    report.metric("wikitext.pages", traced.pages as f64, "count");
    report.metric("wikitext.revisions", traced.revisions as f64, "count");
    report.metric(
        "wikitext.changes",
        traced.cube.num_changes() as f64,
        "count",
    );
    (traced.secs, untraced.secs)
}
