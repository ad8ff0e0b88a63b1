//! `perfbench` — the seeded end-to-end benchmark of the staleness system.
//!
//! ```text
//! perfbench --workload <ingest|retrain|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run drives the system's three paths: it serves staleness
//! queries over loopback to an open-loop generator, ingests an XML dump,
//! and retrains the predictors from raw cube bytes. All inputs come from
//! `--seed` (see [`gen`]); the workload decides which path gets the
//! full-size input. `--seconds` bounds the measuring: serving slots (the
//! server's start, fixed-rate windows of one second, the rate ladder)
//! fall due at even steps of it, and timed repetitions of set-up, ingest
//! and retrain fill the time between them.
//!
//! With `--trace 0` a run reports the end-to-end metrics. With
//! `--trace 1` it records spans around each layer's public calls, reports
//! the per-layer metrics instead, and writes the spans to
//! `.perfbench/trace-<workload>-seed<n>.json`.
//!
//! Outputs are checked as they are produced and every failed or
//! mismatched operation is counted. The last line on stdout is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`); the exit code is
//! 1 when any check failed and 2 on bad arguments.

#[global_allocator]
static ALLOC: wikistale_obs::alloc::CountingAlloc = wikistale_obs::alloc::CountingAlloc;

mod gen;
mod ingest;
mod loadgen;
mod report;
mod retrain;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use gen::{Spec, Workload};
use report::Report;
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <ingest|retrain|serve> --seed <n> --seconds <s> --trace <0|1>";

/// Scratch files and traces, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

/// Fewest rounds of set-up, ingest passes and retrain, whatever the time
/// budget.
const MIN_ROUNDS: usize = 3;

/// Serving slots of a run: the first starts the server and sends the
/// first fixed-rate window, one climbs the rate ladder, and the others
/// send one fixed-rate window each.
const SERVE_SLOTS: usize = serve::WINDOWS + 1;

/// The slot that climbs the rate ladder, half-way through the run.
const LADDER_SLOT: usize = SERVE_SLOTS / 2;

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad --seed {value:?}"))?,
                    )
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s > 0.0)
                            .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                    )
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?}")),
                    }
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// A run's scratch directory, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let path = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(options: &Options) -> Result<Report, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = Spec::new(options.workload);
    let work = WorkDir::create()?;
    let checkpoint = work.0.join("checkpoint");

    let started = Instant::now();
    let dump = gen::dump(&spec.dump, options.seed);
    let cube_bytes = gen::raw_cube_bytes(&spec.retrain, options.seed);
    let serving = gen::serve_inputs(&spec.serve, options.seed, &checkpoint, serve::PLAN_REQUESTS)?;
    eprintln!(
        "perfbench: {} seed {}: inputs generated in {:.1}s: dump of {} pages, {:.1} MB; \
         raw cube {:.1} MB; {} served pages, {} planned requests; {threads} threads",
        options.workload.name(),
        options.seed,
        started.elapsed().as_secs_f64(),
        dump.pages,
        dump.xml.len() as f64 / 1e6,
        cube_bytes.len() as f64 / 1e6,
        serving.pages,
        serving.plan.len(),
    );

    let mut report = Report::new(options.trace);
    if options.trace {
        let tracer = Tracer::new(true);
        let parts = [
            ingest::trace(&dump, &tracer, &mut report),
            retrain::trace(&cube_bytes, threads, &tracer, &mut report)?,
            serve::trace(&checkpoint, &serving.plan, threads, &tracer, &mut report)?,
        ];
        let overhead_s: f64 = parts
            .iter()
            .map(|(traced, untraced)| traced - untraced)
            .sum();
        report.metric("trace.overhead_ms", overhead_s * 1e3, "ms");
        report.metric("fail_frac", report.fail_frac(), "ratio");
        let path = Path::new(OUT_DIR).join(format!(
            "trace-{}-seed{}.json",
            options.workload.name(),
            options.seed
        ));
        std::fs::write(&path, trace::render_json(&tracer.spans()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    } else {
        // Serving slots fall due at even steps of `--seconds`; rounds of
        // one set-up, ingest passes and one retrain fill the time
        // between them until `--seconds` is used up. Each path's
        // repetitions then span the whole run rather than one stretch of
        // it.
        let started = Instant::now();
        let mut setups = serve::Setups::new(&checkpoint, threads);
        let mut passes = ingest::Passes::new(&dump);
        let mut retrains = retrain::Reps::new(&cube_bytes, threads);
        let mut live = None;
        let (mut slot, mut rounds) = (0, 0);
        loop {
            let elapsed = started.elapsed().as_secs_f64();
            if slot < SERVE_SLOTS && elapsed >= options.seconds * slot as f64 / SERVE_SLOTS as f64 {
                match live.as_mut() {
                    None => live = Some(setups.start_serving(&serving.plan, &mut report)?),
                    Some(live) if slot == LADDER_SLOT => live.ladder(&mut report),
                    Some(live) => live.window(&mut report),
                }
                eprintln!(
                    "perfbench: serving slot {slot} took {:.1}s",
                    started.elapsed().as_secs_f64() - elapsed
                );
                slot += 1;
            } else if slot == SERVE_SLOTS && rounds >= MIN_ROUNDS && elapsed >= options.seconds {
                break;
            } else {
                round(&mut setups, &mut passes, &mut retrains, &mut report)?;
                rounds += 1;
            }
        }
        if let Some(live) = live {
            serve::finish(live, &mut report)?;
        }
        eprintln!(
            "perfbench: measured for {:.1}s of a {:.0}s budget, {rounds} rounds",
            started.elapsed().as_secs_f64(),
            options.seconds
        );
        let peaks = [
            setups.finish(&mut report),
            passes.finish(&mut report),
            retrains.finish(&mut report)?,
        ];
        // Peak heap of the workload's own path, above the generated
        // inputs that stay in memory throughout.
        let peak = match options.workload {
            Workload::Serve => peaks[0],
            Workload::Ingest => peaks[1],
            Workload::Retrain => peaks[2],
        };
        report.metric("peak_mb", peak as f64 / 1e6, "MB");
    }
    Ok(report)
}

/// One set-up, a round's ingest passes and one retrain, each timed.
fn round(
    setups: &mut serve::Setups,
    passes: &mut ingest::Passes,
    retrains: &mut retrain::Reps,
    report: &mut Report,
) -> Result<(), String> {
    setups.rep()?;
    passes.round(report);
    retrains.rep(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match Options::parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options).and_then(|report| Ok((report.render()?, report.correct()))) {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
