//! Subcommand implementations.

use crate::args::Args;
use crate::error::CliError;
use std::path::{Path, PathBuf};
use wikistale_apriori::Support;
use wikistale_core::checkpoint::{self, CheckpointManifest};
use wikistale_core::experiment::{
    run_paper_evaluation, run_paper_evaluation_resumable, ExperimentConfig,
};
use wikistale_core::filters::FilterPipeline;
use wikistale_core::predictors::DistanceNorm;
use wikistale_core::report;
use wikistale_core::scoring::MAX_WINDOW_DAYS;
use wikistale_core::split::EvalSplit;
use wikistale_synth::SynthConfig;
use wikistale_wikicube::{binio, ChangeCube, CorpusStats, CubeIndex, Date, DateRange};
use wikistale_wikitext::{ErrorBudget, PageStream};

const USAGE: &str = "\
wikistale — detect stale data in Wikipedia infoboxes (EDBT 2023 reproduction)

USAGE:
  wikistale generate --out <cube> [--preset tiny|small|medium] [--seed N] [--scale F]
  wikistale ingest   --xml <dump.xml> --out <cube> [--all-namespaces] [--lossy]
                     [--error-budget PCT] [--quarantine <report.json>]
  wikistale stats    --in <cube>
  wikistale filter   --in <cube> --out <cube> [--no-min-changes]
  wikistale evaluate --in <filtered-cube> [--vs-paper] [--theta F]
                     [--support F] [--confidence F] [--day-count-norm]
  wikistale monitor  --in <filtered-cube> --at YYYY-MM-DD [--window DAYS]
  wikistale export   --in <cube> --xml <dump.xml>
  wikistale slice    --in <cube> --from YYYY-MM-DD --to YYYY-MM-DD --out <cube>
  wikistale merge    --out <cube> <cube…>
  wikistale anomalies --in <cube> [--limit N]
  wikistale top      --in <cube> --by template|property|page [--k N] [--kind create|update|delete]
  wikistale figures  --in <filtered-cube> --out-dir <dir>
  wikistale experiment [--preset tiny|small|medium] [--seed N] [--scale F]
                     [--no-min-changes] [--vs-paper] [--theta F]
                     [--support F] [--confidence F] [--day-count-norm]
                     [--checkpoint-dir <dir>] [--resume]
  wikistale serve    --artifacts <checkpoint-dir> [--addr HOST:PORT]
                     [--queue-limit N] [--deadline-ms N] [--cache-entries N]
                     [--theta F] [--support F] [--confidence F] [--day-count-norm]

Every subcommand additionally accepts:
  --metrics <path>            write a pipeline-stage metrics report
                              (use `-` for stdout)
  --metrics-format json|table report format (default json)
  --threads N                 worker threads for the parallel stages
                              (default: WIKISTALE_THREADS, else all
                              cores; results are byte-identical at any
                              thread count)

`ingest` skips non-article pages (Talk:, User:, Template:, …) unless
`--all-namespaces` is given. `ingest --lossy` quarantines malformed
pages instead of aborting; a
summary of everything skipped goes to stderr, the full report to
`--quarantine <path>` as JSON. `--error-budget 0.5` aborts once more
than 0.5 % of pages were quarantined (implies --lossy).

`experiment` runs the whole pipeline — generate, filter, train, predict,
evaluate — serially in one process, so the metrics stage tree nests and
its top-level stage times sum to the wall time. With
`--checkpoint-dir <dir>` each completed stage is recorded there
atomically, and `--resume` picks up after a crash, skipping verified
finished work; results are identical to an uninterrupted run.

`serve` loads the CRC-verified `filter` stage artifact from an
`experiment --checkpoint-dir` directory, re-trains the predictors
deterministically, and answers staleness queries over HTTP/1.1 until
SIGINT/SIGTERM, then drains in-flight requests:
  GET  /healthz                        liveness + artifact generation
  GET  /metrics[?format=json|table]    live pipeline metrics
  GET  /v1/stale/{page}[?at=D&window=N] flagged fields with provenance
  POST /v1/score                       batch (entity, property, window)
Admission is bounded: past --queue-limit queued connections the server
sheds 503 + Retry-After; requests exceeding --deadline-ms get 504.
`--threads` sets the worker pool; responses are byte-identical at any
thread count. `--addr 127.0.0.1:0` picks an ephemeral port (printed).

Cube files use the versioned wikicube binary format (.wcube).

EXIT CODES:
  0 success   1 other failure       2 usage error
  3 i/o error 4 corrupt input       5 error budget exceeded
";

/// Dispatch `argv`; returns a classified error for the user on failure.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv);
    // Each invocation reports its own pipeline run (tests call `run`
    // several times per process).
    wikistale_obs::MetricsRegistry::global().reset();
    // --threads is global like --metrics. Absent, the worker count falls
    // back to WIKISTALE_THREADS, then to the machine's parallelism; the
    // explicit reset matters because tests call `run` repeatedly in one
    // process. Thread count never changes artifact bytes — only wall
    // time — so it is deliberately absent from checkpoint fingerprints.
    match get_parsed::<usize>(&args, "threads")? {
        Some(0) => return Err(CliError::Usage("--threads must be at least 1".into())),
        Some(n) => wikistale_exec::set_threads(n),
        None => wikistale_exec::set_threads(0),
    }
    let result = match args.positional(0) {
        None | Some("help") => {
            print!("{USAGE}");
            Ok(())
        }
        Some("generate") => cmd_generate(&args),
        Some("ingest") => cmd_ingest(&args),
        Some("stats") => cmd_stats(&args),
        Some("filter") => cmd_filter(&args),
        Some("evaluate") => cmd_evaluate(&args),
        Some("experiment") => cmd_experiment(&args),
        Some("monitor") => cmd_monitor(&args),
        Some("export") => cmd_export(&args),
        Some("slice") => cmd_slice(&args),
        Some("merge") => cmd_merge(&args),
        Some("anomalies") => cmd_anomalies(&args),
        Some("top") => cmd_top(&args),
        Some("figures") => cmd_figures(&args),
        Some("serve") => cmd_serve(&args),
        Some(other) => Err(CliError::Usage(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    };
    if result.is_ok() {
        // `serve` reuses --metrics-format as the default rendering of
        // the live /metrics route; for it a pipeline metrics report is
        // only written when --metrics asks for one.
        let serve_like = args.positional(0) == Some("serve");
        if !serve_like || args.has("metrics") {
            write_metrics(&args)?;
        }
    }
    result
}

fn reject_unknown(args: &Args, known: &[&str]) -> Result<(), CliError> {
    // The metrics and threading flags are accepted by every subcommand.
    let mut known: Vec<&str> = known.to_vec();
    known.extend(["metrics", "metrics-format", "threads"]);
    let unknown = args.unknown_flags(&known);
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(CliError::Usage(format!(
            "unknown flag(s): --{}",
            unknown.join(", --")
        )))
    }
}

/// A required flag's value, as a usage error when missing.
fn require<'a>(args: &'a Args, name: &str) -> Result<&'a str, CliError> {
    args.require(name).map_err(CliError::Usage)
}

/// An optional typed flag, as a usage error when unparseable.
fn get_parsed<T: std::str::FromStr>(args: &Args, name: &str) -> Result<Option<T>, CliError> {
    args.get_parsed::<T>(name).map_err(CliError::Usage)
}

/// Honor `--metrics <path>` / `--metrics-format {json,table}` after a
/// successful command: render the global registry and write it out
/// (`-` or an empty value prints to stdout).
fn write_metrics(args: &Args) -> Result<(), CliError> {
    let Some(path) = args.get("metrics") else {
        if args.has("metrics-format") {
            return Err(CliError::Usage("--metrics-format needs --metrics".into()));
        }
        return Ok(());
    };
    let registry = wikistale_obs::MetricsRegistry::global();
    let rendered = match args.get("metrics-format").unwrap_or("json") {
        "json" => registry.render_json(),
        "table" => registry.render_table(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown metrics format {other:?} (json|table)"
            )))
        }
    };
    if path.is_empty() || path == "-" {
        print!("{rendered}");
    } else {
        std::fs::write(path, &rendered)
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
        println!("wrote metrics → {path}");
    }
    Ok(())
}

fn load_cube(path: &str) -> Result<ChangeCube, CliError> {
    binio::read_from_path(Path::new(path))
        .map_err(|e| CliError::from_cube(&format!("cannot read {path}"), e))
}

fn save_cube(cube: &ChangeCube, path: &str) -> Result<(), CliError> {
    binio::write_to_path(cube, Path::new(path))
        .map_err(|e| CliError::from_cube(&format!("cannot write {path}"), e))
}

fn synth_config(args: &Args) -> Result<SynthConfig, CliError> {
    let mut config = match args.get("preset").unwrap_or("small") {
        "tiny" => SynthConfig::tiny(),
        "small" => SynthConfig::small(),
        "medium" => SynthConfig::medium(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown preset {other:?} (tiny|small|medium)"
            )))
        }
    };
    if let Some(seed) = get_parsed::<u64>(args, "seed")? {
        config.seed = seed;
    }
    if let Some(scale) = get_parsed::<f64>(args, "scale")? {
        if scale <= 0.0 {
            return Err(CliError::Usage("--scale must be positive".into()));
        }
        config = config.scaled(scale);
    }
    Ok(config)
}

fn cmd_generate(args: &Args) -> Result<(), CliError> {
    reject_unknown(args, &["preset", "seed", "scale", "out"])?;
    let config = synth_config(args)?;
    let out = require(args, "out")?;
    let corpus = wikistale_synth::try_generate(&config)?;
    save_cube(&corpus.cube, out)?;
    println!(
        "generated {} changes over {} entities / {} templates → {out}",
        corpus.cube.num_changes(),
        corpus.cube.num_entities(),
        corpus.cube.num_templates()
    );
    let written = corpus.cube.num_changes() + corpus.same_day_collapsed;
    println!(
        "same-day churn: {} of {written} writes ({:.2} %) collapsed to the day's last write  [paper: 19.185 %]",
        corpus.same_day_collapsed,
        100.0 * corpus.same_day_collapsed as f64 / written.max(1) as f64
    );
    println!(
        "ground truth: {} forgotten updates (true staleness)",
        corpus.ground_truth.len()
    );
    Ok(())
}

fn cmd_ingest(args: &Args) -> Result<(), CliError> {
    reject_unknown(
        args,
        &[
            "xml",
            "out",
            "all-namespaces",
            "lossy",
            "error-budget",
            "quarantine",
        ],
    )?;
    let xml_path = require(args, "xml")?;
    let out = require(args, "out")?;
    let all_namespaces = args.has("all-namespaces");
    let budget_pct = get_parsed::<f64>(args, "error-budget")?;
    if let Some(pct) = budget_pct {
        if !(0.0..=100.0).contains(&pct) {
            return Err(CliError::Usage(
                "--error-budget must be a percentage in [0, 100]".into(),
            ));
        }
    }
    let lossy = args.has("lossy") || budget_pct.is_some();
    if args.has("quarantine") && !lossy {
        return Err(CliError::Usage(
            "--quarantine needs --lossy or --error-budget".into(),
        ));
    }

    // Stream page by page: full-history dumps do not fit in memory.
    let file = std::fs::File::open(xml_path)
        .map_err(|e| CliError::Io(format!("cannot read {xml_path}: {e}")))?;
    let reader = std::io::BufReader::new(file);
    let mut stream = match budget_pct {
        Some(pct) => PageStream::lossy_with_budget(reader, ErrorBudget::fraction(pct / 100.0)),
        None if lossy => PageStream::lossy(reader),
        None => PageStream::new(reader),
    };
    let mut acc = wikistale_wikitext::diff::CubeAccumulator::new();
    let mut skipped = 0usize;
    let mut failure: Option<CliError> = None;
    for page in &mut stream {
        let page = match page {
            Ok(page) => page,
            Err(e) => {
                failure = Some(CliError::from_stream(xml_path, e));
                break;
            }
        };
        if all_namespaces || wikistale_wikitext::diff::is_article_title(&page.title) {
            acc.add_page(&page);
        } else {
            skipped += 1;
        }
    }

    // The quarantine summary goes out even (especially) when the run
    // aborted on an exhausted budget: that is the post-mortem.
    let report = stream.into_quarantine();
    if !report.is_clean() {
        eprintln!("{}", report.summary());
        for entry in report.entries().iter().take(5) {
            eprintln!(
                "  {} @ byte {} (+{}): {}",
                entry.title.as_deref().unwrap_or("<unknown page>"),
                entry.byte_offset,
                entry.byte_len,
                entry.error
            );
        }
        if report.entries().len() > 5 {
            eprintln!("  … ({} entries total)", report.entries().len());
        }
    }
    if let Some(qpath) = args.get("quarantine") {
        std::fs::write(qpath, report.render_json())
            .map_err(|e| CliError::Io(format!("cannot write {qpath}: {e}")))?;
        eprintln!("wrote quarantine report → {qpath}");
    }
    if let Some(e) = failure {
        return Err(e);
    }

    let pages = acc.pages_seen();
    let cube = acc.finish();
    save_cube(&cube, out)?;
    println!(
        "ingested {} pages ({} non-article pages skipped) → {} changes over {} infoboxes → {out}",
        pages,
        skipped,
        cube.num_changes(),
        cube.num_entities()
    );
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), CliError> {
    reject_unknown(args, &["in"])?;
    let cube = load_cube(require(args, "in")?)?;
    let stats = CorpusStats::compute(&cube);
    println!("changes        {}", stats.total_changes);
    println!(
        "  creates      {} ({:.2} %)   [paper: 50.6 %]",
        stats.by_kind[0],
        100.0 * stats.create_fraction()
    );
    println!(
        "  updates      {} ({:.2} %)",
        stats.by_kind[1],
        100.0 * stats.by_kind[1] as f64 / stats.total_changes.max(1) as f64
    );
    println!(
        "  deletes      {} ({:.2} %)   [paper: 20.3 %]",
        stats.by_kind[2],
        100.0 * stats.delete_fraction()
    );
    println!(
        "bot-reverted   {} ({:.4} %)  [paper: 0.008 %]",
        stats.bot_reverted,
        100.0 * stats.bot_reverted_fraction()
    );
    println!("fields         {}", stats.distinct_fields);
    println!(
        "  sparse (<{}) {}",
        stats.min_changes_threshold, stats.fields_below_min_changes
    );
    println!("entities       {}", stats.active_entities);
    println!("templates      {}", stats.active_templates);
    if let Some(span) = stats.time_span {
        println!("span           {span}");
    }
    Ok(())
}

fn cmd_filter(args: &Args) -> Result<(), CliError> {
    reject_unknown(args, &["in", "out", "no-min-changes"])?;
    let cube = load_cube(require(args, "in")?)?;
    let out = require(args, "out")?;
    let pipeline = if args.has("no-min-changes") {
        FilterPipeline::without_min_changes()
    } else {
        FilterPipeline::paper()
    };
    let (filtered, report) = pipeline.apply(&cube);
    for (i, stage) in report.stages.iter().enumerate() {
        println!(
            "{:<28} removed {:>9} ({:>6.3} % of original)",
            stage.name,
            stage.removed,
            100.0 * report.removed_fraction_of_original(i)
        );
    }
    println!(
        "surviving                    {:>9} ({:>6.3} % of original)  [paper: 9.2 %]",
        filtered.num_changes(),
        100.0 * report.surviving_fraction()
    );
    save_cube(&filtered, out)?;
    println!("wrote {out}");
    Ok(())
}

/// `--name` parsed as an `f64` that must satisfy `valid`; `expected`
/// names the accepted range in the usage error.
fn get_checked_f64(
    args: &Args,
    name: &str,
    valid: impl Fn(f64) -> bool,
    expected: &str,
) -> Result<Option<f64>, CliError> {
    match get_parsed::<f64>(args, name)? {
        Some(value) if !valid(value) => Err(CliError::Usage(format!(
            "--{name} must be {expected}, got {value}"
        ))),
        value => Ok(value),
    }
}

fn experiment_config(args: &Args) -> Result<ExperimentConfig, CliError> {
    let non_negative = |v: f64| v.is_finite() && v >= 0.0;
    let fraction = |v: f64| (0.0..=1.0).contains(&v);
    let mut config = ExperimentConfig::default();
    if let Some(theta) = get_checked_f64(args, "theta", non_negative, "finite and non-negative")? {
        config.field_corr.theta = theta;
    }
    if args.has("day-count-norm") {
        config.field_corr.norm = DistanceNorm::DayCount;
    }
    if let Some(support) = get_checked_f64(args, "support", fraction, "in [0, 1]")? {
        config.assoc.apriori.min_support = Support::Fraction(support);
    }
    if let Some(confidence) = get_checked_f64(args, "confidence", fraction, "in [0, 1]")? {
        config.assoc.apriori.min_confidence = confidence;
    }
    Ok(config)
}

fn cmd_evaluate(args: &Args) -> Result<(), CliError> {
    reject_unknown(
        args,
        &[
            "in",
            "vs-paper",
            "theta",
            "support",
            "confidence",
            "day-count-norm",
        ],
    )?;
    let config = experiment_config(args)?;
    let cube = load_cube(require(args, "in")?)?;
    let span = cube
        .time_span()
        .ok_or_else(|| CliError::Other("cube is empty — nothing to evaluate".into()))?;
    let split = EvalSplit::for_span(span).ok_or_else(|| {
        CliError::Other("cube spans less than the two years needed for validation + test".into())
    })?;
    let results = run_paper_evaluation(&cube, &split, &config);
    if args.has("vs-paper") {
        println!("{}", report::render_table1_vs_paper(&results));
    } else {
        println!("{}", report::render_table1(&results));
    }
    println!("{}", report::render_overlap(&results));
    println!("{}", report::render_figure3(&results));
    Ok(())
}

/// Exit code of the `--crash-after` fault-injection hook: distinct from
/// every real failure code so the chaos tests can tell a simulated crash
/// from an actual error.
pub const CRASH_EXIT_CODE: u8 = 42;

/// In a checkpointed experiment, obtain the cube of an
/// artifact-producing stage: reuse the verified checkpoint artifact when
/// resuming, otherwise compute it and (when checkpointing) persist it
/// atomically and record it in the manifest.
fn stage_cube(
    ckpt_dir: Option<&Path>,
    manifest: &mut CheckpointManifest,
    resume: bool,
    crash_after: Option<&str>,
    name: &str,
    compute: impl FnOnce() -> Result<ChangeCube, CliError>,
) -> Result<ChangeCube, CliError> {
    if let (Some(dir), true) = (ckpt_dir, resume) {
        if let Some(bytes) = manifest
            .verified_stage_bytes(dir, name)
            .map_err(CliError::from_checkpoint)?
        {
            let cube = binio::decode(&bytes)
                .map_err(|e| CliError::from_cube(&format!("checkpoint stage {name}"), e))?;
            eprintln!("resume: reusing checkpointed {name} stage");
            return Ok(cube);
        }
    }
    let cube = compute()?;
    if let Some(dir) = ckpt_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Io(format!("cannot create {}: {e}", dir.display())))?;
        let file = format!("{name}.wcube");
        let bytes = binio::encode(&cube);
        binio::write_bytes_atomic(&dir.join(&file), &bytes)
            .map_err(|e| CliError::Io(format!("cannot write checkpoint {file}: {e}")))?;
        manifest.record_stage(name, &file, &bytes);
        manifest.save(dir).map_err(CliError::from_checkpoint)?;
    }
    maybe_crash(crash_after, name);
    Ok(cube)
}

/// The `--crash-after <stage>` hook: once the named stage has completed
/// *and its checkpoint is durable*, die abruptly — the closest a test
/// can get to yanking the power cord at the worst moment.
fn maybe_crash(crash_after: Option<&str>, completed: &str) {
    if crash_after == Some(completed) {
        eprintln!("simulated crash after stage {completed:?}");
        std::process::exit(i32::from(CRASH_EXIT_CODE));
    }
}

fn cmd_experiment(args: &Args) -> Result<(), CliError> {
    reject_unknown(
        args,
        &[
            "preset",
            "seed",
            "scale",
            "no-min-changes",
            "vs-paper",
            "theta",
            "support",
            "confidence",
            "day-count-norm",
            "checkpoint-dir",
            "resume",
            "crash-after",
        ],
    )?;
    let config = synth_config(args)?;
    let no_min_changes = args.has("no-min-changes");
    let exp_config = experiment_config(args)?;
    let ckpt_dir = args.get("checkpoint-dir").map(PathBuf::from);
    let resume = args.has("resume");
    let crash_after = args.get("crash-after");
    if (resume || crash_after.is_some()) && ckpt_dir.is_none() {
        return Err(CliError::Usage(
            "--resume / --crash-after need --checkpoint-dir".into(),
        ));
    }

    // The checkpoint is bound to the exact configuration; the Debug
    // formats cover every tunable (seed, scale, thresholds, …). The
    // thread count is deliberately NOT part of the fingerprint: the
    // execution layer guarantees byte-identical artifacts at any
    // --threads value, so a checkpoint written at --threads 1 must
    // resume under --threads 4 and vice versa (the differential suite
    // pins this).
    let fp = checkpoint::fingerprint(&format!(
        "{config:?}|no-min-changes={no_min_changes}|{exp_config:?}"
    ));
    let mut manifest = match (&ckpt_dir, resume) {
        (Some(dir), true) => CheckpointManifest::load_expecting(dir, &fp)
            .map_err(CliError::from_checkpoint)?
            .unwrap_or_else(|| CheckpointManifest::new(&fp)),
        _ => CheckpointManifest::new(&fp),
    };

    let wall = std::time::Instant::now();
    let raw = stage_cube(
        ckpt_dir.as_deref(),
        &mut manifest,
        resume,
        crash_after,
        "generate",
        || Ok(wikistale_synth::try_generate(&config)?.cube),
    )?;
    let filtered = stage_cube(
        ckpt_dir.as_deref(),
        &mut manifest,
        resume,
        crash_after,
        "filter",
        || {
            let pipeline = if no_min_changes {
                FilterPipeline::without_min_changes()
            } else {
                FilterPipeline::paper()
            };
            Ok(pipeline.apply(&raw).0)
        },
    )?;
    drop(raw);
    let span = filtered
        .time_span()
        .ok_or_else(|| CliError::Other("filtered cube is empty — nothing to evaluate".into()))?;
    let split = EvalSplit::for_span(span).ok_or_else(|| {
        CliError::Other("corpus spans less than the two years needed for validation + test".into())
    })?;
    // Serial on purpose: the metrics stage tree then nests under one
    // thread and its top-level stage times sum to the wall time.
    let results = run_paper_evaluation_resumable(
        &filtered,
        &split,
        &exp_config,
        &mut manifest,
        &mut |stage, manifest| {
            if let Some(dir) = &ckpt_dir {
                manifest.save(dir).map_err(|e| e.to_string())?;
            }
            maybe_crash(crash_after, stage);
            Ok(())
        },
    )?;
    // Reference point for the stage breakdown: generate → evaluate,
    // excluding report rendering below.
    wikistale_obs::MetricsRegistry::global()
        .gauge_set("experiment/wall_ms", wall.elapsed().as_secs_f64() * 1e3);
    if args.has("vs-paper") {
        println!("{}", report::render_table1_vs_paper(&results));
    } else {
        println!("{}", report::render_table1(&results));
    }
    println!("{}", report::render_overlap(&results));
    Ok(())
}

/// Load the serving artifact set named by `--artifacts`, with the
/// shared predictor tuning flags folded into the cache generation.
fn load_serve_artifacts(args: &Args) -> Result<wikistale_serve::ServeArtifacts, CliError> {
    let dir = PathBuf::from(require(args, "artifacts")?);
    let config = experiment_config(args)?;
    wikistale_serve::ServeArtifacts::load(&dir, &config).map_err(CliError::from_artifact)
}

/// Parse the server tuning flags of `serve`.
fn serve_server_config(args: &Args) -> Result<wikistale_serve::ServerConfig, CliError> {
    // `run` has already applied `--threads` through `set_threads`, which
    // the default worker count reads.
    let mut config = wikistale_serve::ServerConfig::default();
    match get_parsed::<usize>(args, "queue-limit")? {
        Some(0) => return Err(CliError::Usage("--queue-limit must be at least 1".into())),
        Some(limit) => config.queue_limit = limit,
        None => {}
    }
    match get_parsed::<u64>(args, "deadline-ms")? {
        Some(0) => return Err(CliError::Usage("--deadline-ms must be positive".into())),
        Some(ms) => config.deadline = std::time::Duration::from_millis(ms),
        None => {}
    }
    if let Some(entries) = get_parsed::<usize>(args, "cache-entries")? {
        config.cache_entries = entries;
    }
    if let Some(format) = args.get("metrics-format") {
        config.metrics_format = wikistale_serve::MetricsFormat::parse(format).ok_or_else(|| {
            CliError::Usage(format!(
                "--metrics-format must be json or table, got {format:?}"
            ))
        })?;
    }
    Ok(config)
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    reject_unknown(
        args,
        &[
            "artifacts",
            "addr",
            "queue-limit",
            "deadline-ms",
            "cache-entries",
            "theta",
            "support",
            "confidence",
            "day-count-norm",
        ],
    )?;
    let artifacts = std::sync::Arc::new(load_serve_artifacts(args)?);
    let config = serve_server_config(args)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:8780");
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| CliError::Io(format!("cannot bind {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| CliError::Io(format!("cannot resolve bound address: {e}")))?;
    println!(
        "wikistale serve: fingerprint {} · generation {}",
        artifacts.fingerprint, artifacts.generation
    );
    println!(
        "eval range {}..{} · {} threads · queue-limit {} · deadline {} ms · cache {}",
        artifacts.eval_range.start(),
        artifacts.eval_range.end(),
        config.threads,
        config.queue_limit,
        config.deadline.as_millis(),
        config.cache_entries,
    );
    // The "serving on" line is the machine-readable readiness signal
    // (tests and scripts parse the address out of it; stdout is
    // line-buffered so it flushes even when piped).
    println!("serving on http://{local}");
    wikistale_serve::server::signals::install();
    let server = wikistale_serve::Server::new(artifacts, config);
    server
        .run(listener)
        .map_err(|e| CliError::Io(format!("serve: {e}")))?;
    println!("shutdown: drained in-flight requests");
    Ok(())
}

fn cmd_monitor(args: &Args) -> Result<(), CliError> {
    reject_unknown(
        args,
        &[
            "in",
            "at",
            "window",
            "theta",
            "support",
            "confidence",
            "limit",
        ],
    )?;
    let cube = load_cube(require(args, "in")?)?;
    let at: Date = require(args, "at")?
        .parse()
        .map_err(|e| CliError::Usage(format!("--at: {e}")))?;
    let window: u32 = get_parsed::<u32>(args, "window")?.unwrap_or(7);
    if !(1..=MAX_WINDOW_DAYS).contains(&window) {
        return Err(CliError::Usage(format!(
            "--window must be in 1..={MAX_WINDOW_DAYS} days, got {window}"
        )));
    }
    let limit: usize = get_parsed::<usize>(args, "limit")?.unwrap_or(25);
    let span = cube
        .time_span()
        .ok_or_else(|| CliError::Other("cube is empty".into()))?;
    let window_range = DateRange::new(at - window as i32, at);
    if window_range.start() <= span.start() {
        return Err(CliError::Usage(format!(
            "--at {at} leaves no history before the window (corpus starts {})",
            span.start()
        )));
    }

    // The deployment facade: filter (idempotent on already-filtered
    // cubes), train on everything before the window, flag with
    // explanations. The §6 seasonal extension is enabled — it only adds
    // banners.
    let detector_config = wikistale_core::DetectorConfig {
        experiment: experiment_config(args)?,
        seasonal: Some(wikistale_core::predictors::SeasonalParams::default()),
        ..Default::default()
    };
    let detector = wikistale_core::StalenessDetector::train_until(
        &cube,
        window_range.start(),
        &detector_config,
    )
    .map_err(|e| CliError::Other(e.to_string()))?;
    let flags = detector.flag(window_range);
    println!(
        "{} stale-candidate banners in [{} .. {}) — showing up to {limit}:",
        flags.len(),
        window_range.start(),
        window_range.end()
    );
    for flag in flags.iter().take(limit) {
        print!("{}", flag.render(&detector.data()));
    }
    Ok(())
}

fn cmd_export(args: &Args) -> Result<(), CliError> {
    reject_unknown(args, &["in", "xml"])?;
    let cube = load_cube(require(args, "in")?)?;
    let xml_path = require(args, "xml")?;
    let pages = wikistale_wikitext::cube_to_dump(&cube);
    let xml = wikistale_wikitext::render_export(&pages);
    std::fs::write(xml_path, xml)
        .map_err(|e| CliError::Io(format!("cannot write {xml_path}: {e}")))?;
    println!(
        "exported {} changes as {} pages → {xml_path}",
        cube.num_changes(),
        pages.len()
    );
    Ok(())
}

fn cmd_slice(args: &Args) -> Result<(), CliError> {
    reject_unknown(args, &["in", "from", "to", "out"])?;
    let cube = load_cube(require(args, "in")?)?;
    let from: Date = require(args, "from")?
        .parse()
        .map_err(|e| CliError::Usage(format!("--from: {e}")))?;
    let to: Date = require(args, "to")?
        .parse()
        .map_err(|e| CliError::Usage(format!("--to: {e}")))?;
    if to <= from {
        return Err(CliError::Usage("--to must be after --from".into()));
    }
    let out = require(args, "out")?;
    let sliced = wikistale_wikicube::slice(&cube, DateRange::new(from, to));
    save_cube(&sliced, out)?;
    println!(
        "sliced [{from} .. {to}): {} of {} changes → {out}",
        sliced.num_changes(),
        cube.num_changes()
    );
    Ok(())
}

fn cmd_merge(args: &Args) -> Result<(), CliError> {
    reject_unknown(args, &["out"])?;
    let out = require(args, "out")?;
    let mut inputs = Vec::new();
    let mut i = 1;
    while let Some(path) = args.positional(i) {
        inputs.push(load_cube(path)?);
        i += 1;
    }
    if inputs.len() < 2 {
        return Err(CliError::Usage(
            "merge needs at least two input cubes".into(),
        ));
    }
    let merged =
        wikistale_wikicube::merge(inputs.iter()).map_err(|e| CliError::Other(e.to_string()))?;
    save_cube(&merged, out)?;
    println!(
        "merged {} cubes into {} changes over {} entities → {out}",
        inputs.len(),
        merged.num_changes(),
        merged.num_entities()
    );
    Ok(())
}

fn cmd_top(args: &Args) -> Result<(), CliError> {
    reject_unknown(args, &["in", "by", "k", "kind"])?;
    let cube = load_cube(require(args, "in")?)?;
    let k: usize = get_parsed::<usize>(args, "k")?.unwrap_or(20);
    let mut query = wikistale_wikicube::olap::CubeQuery::new(&cube);
    if let Some(kind) = args.get("kind") {
        query = query.of_kind(match kind {
            "create" => wikistale_wikicube::ChangeKind::Create,
            "update" => wikistale_wikicube::ChangeKind::Update,
            "delete" => wikistale_wikicube::ChangeKind::Delete,
            other => {
                return Err(CliError::Usage(format!(
                    "unknown kind {other:?} (create|update|delete)"
                )))
            }
        });
    }
    use wikistale_wikicube::olap::top_k;
    match require(args, "by")? {
        "template" => {
            for (id, n) in top_k(&query.counts_by_template(), k) {
                println!("{n:>10}  {}", cube.template_name(id));
            }
        }
        "property" => {
            for (id, n) in top_k(&query.counts_by_property(), k) {
                println!("{n:>10}  {}", cube.property_name(id));
            }
        }
        "page" => {
            for (id, n) in top_k(&query.counts_by_page(), k) {
                println!("{n:>10}  {}", cube.page_title(id));
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown dimension {other:?} (template|property|page)"
            )))
        }
    }
    Ok(())
}

fn cmd_figures(args: &Args) -> Result<(), CliError> {
    reject_unknown(args, &["in", "out-dir"])?;
    let cube = load_cube(require(args, "in")?)?;
    let out_dir = std::path::Path::new(require(args, "out-dir")?);
    std::fs::create_dir_all(out_dir)
        .map_err(|e| CliError::Io(format!("cannot create {}: {e}", out_dir.display())))?;
    let span = cube
        .time_span()
        .ok_or_else(|| CliError::Other("cube is empty".into()))?;
    let split = EvalSplit::for_span(span).ok_or_else(|| {
        CliError::Other("cube spans less than the two years needed for validation + test".into())
    })?;
    let results = run_paper_evaluation(&cube, &split, &ExperimentConfig::default());
    let f3 = out_dir.join("figure3.svg");
    std::fs::write(&f3, wikistale_core::figures::figure3_svg(&results))
        .map_err(|e| CliError::Io(format!("cannot write {}: {e}", f3.display())))?;
    println!("wrote {}", f3.display());
    if let Some(svg) = wikistale_core::figures::figure4_svg(&results) {
        let f4 = out_dir.join("figure4.svg");
        std::fs::write(&f4, svg)
            .map_err(|e| CliError::Io(format!("cannot write {}: {e}", f4.display())))?;
        println!("wrote {}", f4.display());
    }
    Ok(())
}

fn cmd_anomalies(args: &Args) -> Result<(), CliError> {
    reject_unknown(args, &["in", "limit"])?;
    let cube = load_cube(require(args, "in")?)?;
    let limit: usize = get_parsed::<usize>(args, "limit")?.unwrap_or(25);
    let index = CubeIndex::build(&cube);
    let anomalies = wikistale_core::find_counter_anomalies(
        &cube,
        &index,
        &wikistale_core::AnomalyParams::default(),
    );
    println!(
        "{} counter anomalies (the §5.4 typo pattern) — showing up to {limit}:",
        anomalies.len()
    );
    for a in anomalies.iter().take(limit) {
        println!(
            "  {} {:<40} {:<24} {} → {} ({})",
            a.day,
            cube.page_title(cube.page_of(a.field.entity)),
            cube.property_name(a.field.property),
            a.previous,
            a.value,
            match a.kind {
                wikistale_core::AnomalyKind::Collapse => "suspicious collapse",
                wikistale_core::AnomalyKind::Correction => "likely bulk correction",
            }
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_words(words: &[&str]) -> Result<(), CliError> {
        run(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run_words(&[]).is_ok());
        assert!(run_words(&["help"]).is_ok());
        let err = run_words(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = run_words(&["generate", "--ouput", "x"]).unwrap_err();
        assert!(err.to_string().contains("--ouput"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn generate_requires_out() {
        let err = run_words(&["generate", "--preset", "tiny"]).unwrap_err();
        assert!(err.to_string().contains("--out"));
        let err = run_words(&["generate", "--preset", "nope", "--out", "/tmp/x"]).unwrap_err();
        assert!(err.to_string().contains("unknown preset"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn missing_input_is_an_io_error() {
        let err = run_words(&["evaluate", "--in", "/nonexistent/x.wcube"]).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
    }

    #[test]
    fn corrupt_input_is_a_corruption_error() {
        let dir = std::env::temp_dir().join("wikistale-cli-corrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.wcube");
        std::fs::write(&bad, b"WCUBE\0\0\0garbage that is not a cube").unwrap();
        let err = run_words(&["stats", "--in", bad.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_flags_need_each_other() {
        let err = run_words(&["experiment", "--preset", "tiny", "--resume"]).unwrap_err();
        assert!(err.to_string().contains("--checkpoint-dir"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn lossy_ingest_flags_validate() {
        let err = run_words(&[
            "ingest",
            "--xml",
            "/nonexistent.xml",
            "--out",
            "/tmp/x.wcube",
            "--error-budget",
            "150",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("percentage"), "{err}");
        let err = run_words(&[
            "ingest",
            "--xml",
            "/nonexistent.xml",
            "--out",
            "/tmp/x.wcube",
            "--quarantine",
            "/tmp/q.json",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--lossy"), "{err}");
    }

    #[test]
    fn full_cli_round_trip_on_tiny_corpus() {
        let dir = std::env::temp_dir().join("wikistale-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.wcube");
        let filtered = dir.join("filtered.wcube");
        run_words(&[
            "generate",
            "--preset",
            "tiny",
            "--out",
            raw.to_str().unwrap(),
        ])
        .unwrap();
        run_words(&["stats", "--in", raw.to_str().unwrap()]).unwrap();
        run_words(&[
            "filter",
            "--in",
            raw.to_str().unwrap(),
            "--out",
            filtered.to_str().unwrap(),
        ])
        .unwrap();
        run_words(&["evaluate", "--in", filtered.to_str().unwrap(), "--vs-paper"]).unwrap();
        run_words(&[
            "monitor",
            "--in",
            filtered.to_str().unwrap(),
            "--at",
            "2019-06-01",
            "--window",
            "7",
        ])
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lossy_ingest_quarantines_and_writes_report() {
        let dir = std::env::temp_dir().join("wikistale-cli-lossy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let xml = dir.join("dump.xml");
        let out = dir.join("out.wcube");
        let q = dir.join("quarantine.json");
        std::fs::write(
            &xml,
            "<mediawiki><page><title>Good</title><revision>\
             <timestamp>2019-01-01T00:00:00Z</timestamp>\
             <text>{{Infobox x | a = 1}}</text></revision></page>\
             <page><revision><timestamp>2019-01-01T00:00:00Z</timestamp>\
             <text>no title</text></revision></page></mediawiki>",
        )
        .unwrap();
        // Strict ingest refuses (corrupt input).
        let err = run_words(&[
            "ingest",
            "--xml",
            xml.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        // Lossy ingest succeeds and writes the quarantine report.
        run_words(&[
            "ingest",
            "--xml",
            xml.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--lossy",
            "--quarantine",
            q.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.exists());
        let report = std::fs::read_to_string(&q).unwrap();
        let v = wikistale_obs::json::parse(&report).unwrap();
        assert_eq!(
            v.get("pages_quarantined").and_then(|x| x.as_f64()),
            Some(1.0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn experiment_checkpoint_resume_reuses_stages() {
        let dir = std::env::temp_dir().join("wikistale-cli-ckpt-test");
        std::fs::remove_dir_all(&dir).ok();
        let ckpt = dir.join("ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let base = [
            "experiment",
            "--preset",
            "tiny",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
        ];
        run_words(&base).unwrap();
        assert!(ckpt.join("manifest.json").exists());
        assert!(ckpt.join("generate.wcube").exists());
        assert!(ckpt.join("filter.wcube").exists());
        // Resume on a complete checkpoint re-renders without recomputing.
        let mut resume = base.to_vec();
        resume.push("--resume");
        run_words(&resume).unwrap();
        // Different parameters refuse the stored checkpoint.
        let err = run_words(&[
            "experiment",
            "--preset",
            "tiny",
            "--seed",
            "99",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--resume",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("different parameters"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monitor_rejects_bad_dates_and_windows() {
        let dir = std::env::temp_dir().join("wikistale-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.wcube");
        run_words(&[
            "generate",
            "--preset",
            "tiny",
            "--out",
            raw.to_str().unwrap(),
        ])
        .unwrap();
        let raw = raw.to_str().unwrap();
        assert!(run_words(&["monitor", "--in", raw, "--at", "junk"]).is_err());
        // Signed date components must be rejected at the flag layer too
        // (Date::from_str used to accept `+2018-+09-+01`).
        assert!(run_words(&["monitor", "--in", raw, "--at", "+2019-+06-+01"]).is_err());
        // Windows outside 1..=365 are usage errors, like `/v1/stale`'s;
        // 4294967295 used to wrap to an empty window after `--at`.
        for window in ["0", "366", "4294967295"] {
            let err = run_words(&[
                "monitor",
                "--in",
                raw,
                "--at",
                "2019-06-01",
                "--window",
                window,
            ])
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "--window {window}: {err}");
            assert!(err.to_string().contains("1..=365"), "{err}");
        }
        assert!(run_words(&["monitor", "--in", raw, "--at", "1990-01-01"]).is_err());
        std::fs::remove_dir_all(std::env::temp_dir().join("wikistale-cli-test2")).ok();
    }

    #[test]
    fn top_and_anomalies_commands() {
        let dir = std::env::temp_dir().join("wikistale-cli-top-test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.wcube");
        let raw_s = raw.to_str().unwrap();
        run_words(&["generate", "--preset", "tiny", "--out", raw_s]).unwrap();
        run_words(&["top", "--in", raw_s, "--by", "template", "--k", "5"]).unwrap();
        run_words(&["top", "--in", raw_s, "--by", "property", "--kind", "update"]).unwrap();
        run_words(&["top", "--in", raw_s, "--by", "page"]).unwrap();
        assert!(run_words(&["top", "--in", raw_s, "--by", "color"]).is_err());
        assert!(run_words(&["top", "--in", raw_s, "--by", "page", "--kind", "x"]).is_err());
        run_words(&["anomalies", "--in", raw_s, "--limit", "3"]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_slice_merge_round_trip() {
        let dir = std::env::temp_dir().join("wikistale-cli-ops-test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.wcube");
        let raw_s = raw.to_str().unwrap();
        run_words(&["generate", "--preset", "tiny", "--out", raw_s]).unwrap();

        // Export to XML and re-ingest: change counts survive (the tiny
        // corpus's same-day churn collapses to snapshots, so counts can
        // only shrink, never grow).
        let xml = dir.join("dump.xml");
        let back = dir.join("back.wcube");
        run_words(&["export", "--in", raw_s, "--xml", xml.to_str().unwrap()]).unwrap();
        run_words(&[
            "ingest",
            "--xml",
            xml.to_str().unwrap(),
            "--out",
            back.to_str().unwrap(),
        ])
        .unwrap();
        assert!(back.exists());

        // Slice into two halves and merge back: no changes lost.
        let left = dir.join("left.wcube");
        let right = dir.join("right.wcube");
        let merged = dir.join("merged.wcube");
        run_words(&[
            "slice",
            "--in",
            raw_s,
            "--from",
            "2014-01-01",
            "--to",
            "2017-01-01",
            "--out",
            left.to_str().unwrap(),
        ])
        .unwrap();
        run_words(&[
            "slice",
            "--in",
            raw_s,
            "--from",
            "2017-01-01",
            "--to",
            "2019-12-31",
            "--out",
            right.to_str().unwrap(),
        ])
        .unwrap();
        run_words(&[
            "merge",
            left.to_str().unwrap(),
            right.to_str().unwrap(),
            "--out",
            merged.to_str().unwrap(),
        ])
        .unwrap();
        let original = wikistale_wikicube::binio::read_from_path(&raw).unwrap();
        let remerged = wikistale_wikicube::binio::read_from_path(&merged).unwrap();
        assert_eq!(original.num_changes(), remerged.num_changes());

        // Error paths.
        assert!(run_words(&[
            "slice",
            "--in",
            raw_s,
            "--from",
            "2018-01-01",
            "--to",
            "2017-01-01",
            "--out",
            "/tmp/x.wcube"
        ])
        .is_err());
        assert!(run_words(&["merge", raw_s, "--out", "/tmp/x.wcube"]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
