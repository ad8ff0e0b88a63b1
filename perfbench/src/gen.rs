//! Seeded input generation.
//!
//! Everything the program under test receives — the XML dump, the raw
//! cube bytes, the serving checkpoint and the request plan — is a pure
//! function of the workload and `--seed`. The synthetic corpus generator
//! is the benchmark's input source, not a measured layer: users never run
//! it in production, so its time only goes to the log.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use wikistale_core::checkpoint::{self, CheckpointManifest};
use wikistale_core::filters::FilterPipeline;
use wikistale_core::scoring::ScoreQuery;
use wikistale_core::split::EvalSplit;
use wikistale_core::GRANULARITIES;
use wikistale_obs::json;
use wikistale_synth::SynthConfig;
use wikistale_wikicube::{binio, ChangeCube, ChangeKind, CubeIndex, Date, DateRange, PageId};
use wikistale_wikitext::{cube_to_dump, render_export};

/// SplitMix64. Each input draws from its own stream of the seed, so the
/// inputs never share random draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`s`) over ranks `0..n`, rank 0 the most popular.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                total += (k as f64).powf(-s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The three workloads. Every run drives all three paths of the system,
/// because every run reports every end-to-end metric; the workload picks
/// which path gets the full-size input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Retrain,
    Serve,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "retrain" => Some(Workload::Retrain),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Retrain => "retrain",
            Workload::Serve => "serve",
        }
    }
}

/// Seed of every synthetic population. Synth draws a new template
/// structure for every seed, and that structure alone moved `retrain_s`
/// by 40 % and the OR ensemble's recall by 50 % between seeds; so the
/// population stays fixed and `--seed` draws the sample of it the
/// full-size input is made from (see [`sample`]), the request plan and
/// page popularity.
const POPULATION_SEED: u64 = 20_230_328;

/// Share of a population's pages that enter an input.
const KEEP_PAGES: f64 = 0.98;

/// One input's population, and whether `--seed` samples its pages.
pub struct Input {
    pub config: SynthConfig,
    pub sampled: bool,
}

/// Corpus sizes of one workload.
pub struct Spec {
    /// Population exported as the XML dump.
    pub dump: Input,
    /// Population whose raw binio bytes are retrained on.
    pub retrain: Input,
    /// Population whose filtered cube is served.
    pub serve: Input,
}

impl Spec {
    /// The path a workload is named for gets its full-size input, a
    /// seeded sample; the other two get one fixed light input, the whole
    /// population, which keeps them measured without letting them
    /// dominate the run. A light input is the same for every seed, so
    /// that which of its hundred-odd pages a sample left out does not move
    /// its figures from run to run.
    pub fn new(workload: Workload) -> Spec {
        let input = |path: Workload, full: SynthConfig, light: SynthConfig, stream: u64| {
            let sampled = path == workload;
            Input {
                config: population(if sampled { full } else { light }, stream),
                sampled,
            }
        };
        Spec {
            dump: input(
                Workload::Ingest,
                dump_config().scaled(0.05),
                dump_config().scaled(0.01),
                1,
            ),
            retrain: input(
                Workload::Retrain,
                SynthConfig::medium(),
                SynthConfig::small(),
                2,
            ),
            serve: input(
                Workload::Serve,
                SynthConfig::medium(),
                SynthConfig::small(),
                3,
            ),
        }
    }
}

/// The corpus exported as a dump: `small` without the daily-churn
/// process. A churn page carries thousands of revisions in one `<page>`
/// element of several MB, and `PageStream` rescans its whole buffer for
/// every line it reads, so one such page more or less swung the ingest
/// rate between 0.8 and 3.7 MB/s.
fn dump_config() -> SynthConfig {
    SynthConfig {
        churn_template_fraction: 0.0,
        ..SynthConfig::small()
    }
}

fn population(mut config: SynthConfig, stream: u64) -> SynthConfig {
    config.seed = Rng::new(POPULATION_SEED, stream).next_u64();
    config
}

/// The changes of a seeded [`KEEP_PAGES`] share of the input's pages, or
/// of all of them when the input is not sampled.
pub fn sample(input: &Input, seed: u64) -> ChangeCube {
    let population = wikistale_synth::generate(&input.config).cube;
    let share = if input.sampled { KEEP_PAGES } else { 1.0 };
    let mut rng = Rng::new(seed, input.config.seed);
    let keep: Vec<bool> = (0..population.num_pages())
        .map(|_| rng.unit() < share)
        .collect();
    population.retain_changes(|c| keep[population.page_of(c.entity).index()])
}

/// Each field's observable history: `(page, template::property)` → the
/// end-of-day states that differ from the day before, `None` meaning the
/// field is absent. This is exactly what a dump with one revision per
/// changed day carries, so a cube and the cube ingested back from its
/// dump must agree on it.
pub type Histories = BTreeMap<(String, String), Vec<(Date, Option<String>)>>;

pub fn histories(cube: &ChangeCube) -> Histories {
    let mut out = Histories::new();
    for c in cube.iter_changes() {
        let key = (
            cube.page_title(cube.page_of(c.entity)).to_owned(),
            format!(
                "{}::{}",
                cube.template_name(cube.template_of(c.entity)),
                cube.property_name(c.property)
            ),
        );
        let state = (c.kind != ChangeKind::Delete).then(|| cube.value_text(c.value).to_owned());
        let history = out.entry(key).or_default();
        match history.last_mut() {
            Some((day, last)) if *day == c.day => *last = state,
            _ => history.push((c.day, state)),
        }
    }
    for history in out.values_mut() {
        let mut previous: Option<String> = None;
        history.retain(|(_, state)| {
            let changed = *state != previous;
            if changed {
                previous.clone_from(state);
            }
            changed
        });
    }
    out.retain(|_, history| !history.is_empty());
    out
}

/// The XML dump and what ingesting it must reproduce.
pub struct Dump {
    pub xml: Vec<u8>,
    pub pages: usize,
    pub histories: Histories,
}

/// Export a raw sample as a MediaWiki dump, one revision per changed day.
pub fn dump(input: &Input, seed: u64) -> Dump {
    let raw = sample(input, seed);
    let pages = cube_to_dump(&raw);
    Dump {
        xml: render_export(&pages).into_bytes(),
        pages: pages.len(),
        histories: histories(&raw),
    }
}

/// binio-v3 bytes of a raw (unfiltered) sample.
pub fn raw_cube_bytes(input: &Input, seed: u64) -> Vec<u8> {
    binio::encode(&sample(input, seed))
}

/// The checkpoint file the serving layer loads its cube from.
const FILTER_FILE: &str = "filter.wcube";

/// Request classes of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/v1/stale/{page}` without `at`, pages drawn Zipf(1.0): fits the cache.
    StaleHot,
    /// `/v1/stale/{page}?at=…` over uniform pages and days: misses it.
    StaleAt,
    /// `POST /v1/score` with 1–8 triples.
    Score,
    /// `/healthz`.
    Healthz,
}

/// What a request must be answered with, for the sampled body check.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    Stale {
        page: PageId,
        title: String,
        window: DateRange,
    },
    Score {
        granularity: u32,
        queries: Vec<ScoreQuery>,
    },
    Healthz,
}

/// One planned request: its class, raw HTTP bytes and expected answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub kind: Kind,
    pub raw: Vec<u8>,
    pub check: Check,
}

/// A serving checkpoint written to disk, and the plan of requests to it.
pub struct ServeInputs {
    pub plan: Vec<Request>,
    pub pages: usize,
}

/// Filter a sample, write it as the checkpoint the server loads from
/// `dir`, and plan `requests` requests against it.
pub fn serve_inputs(
    input: &Input,
    seed: u64,
    dir: &Path,
    requests: usize,
) -> Result<ServeInputs, String> {
    let config = &input.config;
    let raw = sample(input, seed);
    let filtered = FilterPipeline::paper().apply(&raw).0;
    drop(raw);
    let bytes = binio::encode(&filtered);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    binio::write_bytes_atomic(&dir.join(FILTER_FILE), &bytes)
        .map_err(|e| format!("cannot write the checkpoint: {e}"))?;
    let mut manifest =
        CheckpointManifest::new(checkpoint::fingerprint(&format!("perfbench|{config:?}")));
    manifest.record_stage("filter", FILTER_FILE, &bytes);
    manifest
        .save(dir)
        .map_err(|e| format!("cannot write the checkpoint manifest: {e}"))?;

    let index = CubeIndex::build(&filtered);
    if index.num_fields() == 0 {
        return Err("the served corpus has no tracked fields".into());
    }
    let span = filtered.time_span().ok_or("the served corpus is empty")?;
    let eval = EvalSplit::for_span(span)
        .ok_or("the served corpus spans under two years")?
        .test;
    Ok(ServeInputs {
        plan: plan(&filtered, &index, eval, seed, requests),
        pages: filtered.num_pages(),
    })
}

/// Distinct `/v1/stale` keys among `requests`: the entries they need in
/// the response cache.
pub fn stale_keys(requests: &[Request]) -> BTreeSet<&[u8]> {
    requests
        .iter()
        .filter(|r| matches!(r.kind, Kind::StaleHot | Kind::StaleAt))
        .map(|r| r.raw.as_slice())
        .collect()
}

/// The request plan: 55 % Zipf `/v1/stale`, 15 % `/v1/stale?at=`, 25 %
/// `/v1/score`, 5 % `/healthz`. A pure function of the served corpus, its
/// evaluation year and the seed.
pub fn plan(
    cube: &ChangeCube,
    index: &CubeIndex,
    eval: DateRange,
    seed: u64,
    requests: usize,
) -> Vec<Request> {
    let mut rng = Rng::new(seed, 4);
    // Popularity follows a seeded permutation of the pages, so the hot
    // set is not simply the lowest page ids.
    let mut by_popularity: Vec<u32> = (0..cube.num_pages() as u32).collect();
    for i in (1..by_popularity.len()).rev() {
        by_popularity.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let zipf = Zipf::new(by_popularity.len(), 1.0);
    (0..requests)
        .map(|_| match rng.below(100) {
            0..=54 => {
                let page = PageId(by_popularity[zipf.sample(&mut rng)]);
                stale(cube, page, None, eval)
            }
            55..=69 => {
                let page = PageId(rng.below(by_popularity.len() as u64) as u32);
                let at = eval.start() + rng.below(u64::from(eval.len_days())) as i32;
                stale(cube, page, Some(at), eval)
            }
            70..=94 => score(cube, index, eval, &mut rng),
            _ => Request {
                kind: Kind::Healthz,
                raw: get("/healthz"),
                check: Check::Healthz,
            },
        })
        .collect()
}

fn stale(cube: &ChangeCube, page: PageId, at: Option<Date>, eval: DateRange) -> Request {
    let title = cube.page_title(page).to_owned();
    // The route's defaults: `at` is the end of the evaluation year, the
    // window the 7 days before it.
    let end = at.unwrap_or(eval.end());
    let window = DateRange::new(end.plus_days(-7), end);
    let (kind, target) = match at {
        None => (Kind::StaleHot, format!("/v1/stale/{}", encode(&title))),
        Some(at) => (
            Kind::StaleAt,
            format!("/v1/stale/{}?at={at}", encode(&title)),
        ),
    };
    Request {
        kind,
        raw: get(&target),
        check: Check::Stale {
            page,
            title,
            window,
        },
    }
}

fn score(cube: &ChangeCube, index: &CubeIndex, eval: DateRange, rng: &mut Rng) -> Request {
    let granularity = GRANULARITIES[rng.below(GRANULARITIES.len() as u64) as usize];
    let windows = u64::from(eval.len_days() / granularity);
    let triples = 1 + rng.below(8);
    let queries: Vec<ScoreQuery> = (0..triples)
        .map(|_| {
            let field = index.field(rng.below(index.num_fields() as u64) as usize);
            ScoreQuery {
                entity: cube.entity_name(field.entity).to_owned(),
                property: cube.property_name(field.property).to_owned(),
                window: rng.below(windows) as u32,
            }
        })
        .collect();
    let body = format!(
        "{{\"granularity\": {granularity}, \"triples\": [{}]}}",
        queries
            .iter()
            .map(|q| format!(
                "{{\"entity\": {}, \"property\": {}, \"window\": {}}}",
                json::escape(&q.entity),
                json::escape(&q.property),
                q.window
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let raw = format!(
        "POST /v1/score HTTP/1.1\r\nHost: perfbench\r\nConnection: keep-alive\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    Request {
        kind: Kind::Score,
        raw: raw.into_bytes(),
        check: Check::Score {
            granularity,
            queries,
        },
    }
}

fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\nConnection: keep-alive\r\n\r\n")
        .into_bytes()
}

/// Percent-encode a path segment: everything but unreserved bytes.
fn encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for b in text.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn tiny_served() -> (ChangeCube, CubeIndex, DateRange) {
        let raw = wikistale_synth::generate(&SynthConfig::tiny()).cube;
        let filtered = FilterPipeline::paper().apply(&raw).0;
        let index = CubeIndex::build(&filtered);
        let eval = EvalSplit::for_span(filtered.time_span().unwrap())
            .unwrap()
            .test;
        (filtered, index, eval)
    }

    #[test]
    fn plan_is_deterministic_in_the_seed() {
        let (cube, index, eval) = tiny_served();
        let a = plan(&cube, &index, eval, 7, 400);
        assert_eq!(a, plan(&cube, &index, eval, 7, 400));
        assert_ne!(a, plan(&cube, &index, eval, 8, 400));
        for kind in [Kind::StaleHot, Kind::StaleAt, Kind::Score, Kind::Healthz] {
            assert!(a.iter().any(|r| r.kind == kind), "{kind:?} missing");
        }
    }

    #[test]
    fn zipf_stays_in_bounds_and_favours_low_ranks() {
        let mut rng = Rng::new(1, 0);
        for n in [1, 2, 7, 55_000] {
            let zipf = Zipf::new(n, 1.0);
            assert!((0..10_000).all(|_| zipf.sample(&mut rng) < n), "n = {n}");
        }
        let zipf = Zipf::new(100, 1.0);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[50]);
    }

    #[test]
    fn ingesting_a_dump_reproduces_its_histories() {
        let input = Input {
            config: SynthConfig::tiny(),
            sampled: true,
        };
        let dump = dump(&input, 1);
        let ingested = crate::ingest::pass(&dump, &Tracer::new(false));
        assert_eq!(ingested.quarantined, 0);
        assert_eq!(histories(&ingested.cube), dump.histories);
    }
}
