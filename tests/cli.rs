//! Black-box tests of the `wikistale` binary: every subcommand exercised
//! through a real process, end to end on a tiny corpus.

use std::path::PathBuf;
use std::process::{Command, Output};

fn wikistale(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wikistale"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wikistale-it-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn help_is_printed_without_arguments() {
    let out = wikistale(&[]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = wikistale(&["explode"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn generate_stats_filter_evaluate_monitor() {
    let dir = tmpdir("pipeline");
    let raw = dir.join("raw.wcube");
    let filtered = dir.join("filtered.wcube");
    let raw_s = raw.to_str().unwrap();
    let filtered_s = filtered.to_str().unwrap();

    let out = wikistale(&["generate", "--preset", "tiny", "--out", raw_s]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("generated"));
    assert!(stdout(&out).contains("same-day churn"));
    assert!(raw.exists());

    let out = wikistale(&["stats", "--in", raw_s]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("creates"));

    let out = wikistale(&["filter", "--in", raw_s, "--out", filtered_s]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("bot-reverted"));
    assert!(text.contains("surviving"));
    assert!(filtered.exists());

    let out = wikistale(&["evaluate", "--in", filtered_s, "--vs-paper"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("OR-ensemble"));
    assert!(text.contains("paper"));
    assert!(text.contains("89.69")); // the paper's headline number column

    let out = wikistale(&[
        "monitor",
        "--in",
        filtered_s,
        "--at",
        "2019-06-03",
        "--window",
        "7",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("stale-candidate banners"));

    let figs = dir.join("figs");
    let out = wikistale(&[
        "figures",
        "--in",
        filtered_s,
        "--out-dir",
        figs.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(figs.join("figure3.svg").exists());
    assert!(figs.join("figure4.svg").exists());
    let svg = std::fs::read_to_string(figs.join("figure4.svg")).unwrap();
    assert!(svg.starts_with("<svg"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiment_metrics_cover_stages_and_sum_to_wall() {
    use wikistale_obs::json::{self, Value};

    let dir = tmpdir("metrics");
    let metrics = dir.join("metrics.json");
    let out = wikistale(&[
        "experiment",
        "--preset",
        "tiny",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("OR-ensemble"));

    let text = std::fs::read_to_string(&metrics).unwrap();
    let parsed = json::parse(&text).expect("metrics output is valid JSON");
    let spans = parsed.get("spans").and_then(Value::as_object).unwrap();

    // The acceptance stages: synth, filter, train (per predictor),
    // predict, eval — predict/eval nested under each granularity.
    for stage in ["synth", "filter", "train", "granularity_7d"] {
        assert!(spans.contains_key(stage), "missing stage {stage}: {text}");
    }
    let train = spans["train"].as_object().unwrap();
    for predictor in ["field_corr", "assoc", "mean", "threshold"] {
        assert!(train.contains_key(predictor), "missing train/{predictor}");
    }
    let g7 = spans["granularity_7d"].as_object().unwrap();
    assert!(g7.contains_key("predict"));
    assert!(g7.contains_key("eval"));
    let predict = g7["predict"].as_object().unwrap();
    for predictor in ["field_corr", "assoc", "mean", "threshold", "ensembles"] {
        assert!(
            predict.contains_key(predictor),
            "missing predict/{predictor}"
        );
    }

    // The serial pipeline accounts for its own wall time: top-level stage
    // totals sum to within 10 % of the generate→evaluate wall clock.
    let stage_sum: f64 = spans
        .values()
        .filter_map(|node| node.get("total_ms").and_then(Value::as_f64))
        .sum();
    let wall = parsed
        .get("gauges")
        .and_then(|g| g.get("experiment/wall_ms"))
        .and_then(Value::as_f64)
        .expect("wall gauge present");
    assert!(
        (wall - stage_sum).abs() / wall < 0.10,
        "stages sum to {stage_sum} ms but wall was {wall} ms"
    );

    // Table format renders the same registry as aligned text.
    let out = wikistale(&[
        "experiment",
        "--preset",
        "tiny",
        "--metrics",
        "-",
        "--metrics-format",
        "table",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let table = stdout(&out);
    assert!(table.contains("span"));
    assert!(table.contains("counter"));
    assert!(table.contains("synth"));

    // Error paths.
    let out = wikistale(&["experiment", "--preset", "tiny", "--metrics-format", "json"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--metrics"));
    let out = wikistale(&[
        "experiment",
        "--preset",
        "tiny",
        "--metrics",
        "-",
        "--metrics-format",
        "yaml",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown metrics format"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flag_works_on_other_subcommands() {
    let dir = tmpdir("metrics-other");
    let raw = dir.join("raw.wcube");
    let metrics = dir.join("gen.json");
    let out = wikistale(&[
        "generate",
        "--preset",
        "tiny",
        "--out",
        raw.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&metrics).unwrap();
    let parsed = wikistale_obs::json::parse(&text).unwrap();
    assert!(parsed.get("spans").and_then(|s| s.get("synth")).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_parses_a_dump() {
    let dir = tmpdir("ingest");
    let xml = dir.join("dump.xml");
    let cube = dir.join("dump.wcube");
    std::fs::write(
        &xml,
        r#"<mediawiki>
  <page><title>London</title>
    <revision><timestamp>2018-01-01T00:00:00Z</timestamp>
      <text>{{Infobox settlement | population = 8}}</text></revision>
    <revision><timestamp>2019-01-01T00:00:00Z</timestamp>
      <text>{{Infobox settlement | population = 9}}</text></revision>
  </page>
  <page><title>Talk:London</title>
    <revision><timestamp>2018-06-01T00:00:00Z</timestamp>
      <text>Is the population figure current?</text></revision>
  </page>
</mediawiki>"#,
    )
    .unwrap();
    let out = wikistale(&[
        "ingest",
        "--xml",
        xml.to_str().unwrap(),
        "--out",
        cube.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("ingested 1 pages"));
    assert!(stdout(&out).contains("1 non-article pages skipped"));
    assert!(cube.exists());

    let all_cube = dir.join("all.wcube");
    let out = wikistale(&[
        "ingest",
        "--xml",
        xml.to_str().unwrap(),
        "--out",
        all_cube.to_str().unwrap(),
        "--all-namespaces",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("ingested 2 pages"),
        "{}",
        stdout(&out)
    );

    let out = wikistale(&["stats", "--in", cube.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("changes        2"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lossy_ingest_quarantines_a_page_that_is_not_utf8() {
    let dir = tmpdir("utf8");
    let xml = dir.join("dump.xml");
    let cube = dir.join("dump.wcube");
    let mut bytes = b"<mediawiki>
  <page><title>Bad</title>
    <revision><timestamp>2018-01-01T00:00:00Z</timestamp>
      <text>{{Infobox settlement | population = 8"
        .to_vec();
    bytes.push(0xff);
    bytes.extend_from_slice(
        b"}}</text></revision>
  </page>
  <page><title>London</title>
    <revision><timestamp>2018-01-01T00:00:00Z</timestamp>
      <text>{{Infobox settlement | population = 9}}</text></revision>
  </page>
</mediawiki>",
    );
    std::fs::write(&xml, bytes).unwrap();
    let args = [
        "ingest",
        "--xml",
        xml.to_str().unwrap(),
        "--out",
        cube.to_str().unwrap(),
    ];
    let strict = wikistale(&args);
    assert!(!strict.status.success(), "{}", stdout(&strict));

    let out = wikistale(&[&args[..], &["--lossy"]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("ingested 1 pages"),
        "{}",
        stdout(&out)
    );
    assert!(
        stderr(&out).contains("quarantine: 1 of 2 pages skipped"),
        "{}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("invalid UTF-8"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evaluate_refuses_short_corpora() {
    let dir = tmpdir("short");
    let xml = dir.join("dump.xml");
    let cube = dir.join("dump.wcube");
    std::fs::write(
        &xml,
        r#"<mediawiki><page><title>P</title>
      <revision><timestamp>2019-01-01T00:00:00Z</timestamp>
        <text>{{Infobox x | a = 1}}</text></revision>
    </page></mediawiki>"#,
    )
    .unwrap();
    wikistale(&[
        "ingest",
        "--xml",
        xml.to_str().unwrap(),
        "--out",
        cube.to_str().unwrap(),
    ]);
    let out = wikistale(&["evaluate", "--in", cube.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("two years"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn model_flags_outside_their_range_are_usage_errors() {
    let dir = tmpdir("model-flags");
    let raw = dir.join("raw.wcube");
    let filtered = dir.join("filtered.wcube");
    let (raw_s, filtered_s) = (raw.to_str().unwrap(), filtered.to_str().unwrap());
    assert!(wikistale(&["generate", "--preset", "tiny", "--out", raw_s])
        .status
        .success());
    assert!(wikistale(&["filter", "--in", raw_s, "--out", filtered_s])
        .status
        .success());
    // The artifact dir does not exist: the flag check must come first
    // (exit 2), not the load (exit 3).
    let missing = dir.join("no-artifacts");
    let commands: [Vec<&str>; 3] = [
        vec!["evaluate", "--in", filtered_s],
        vec!["experiment", "--preset", "tiny"],
        vec!["serve", "--artifacts", missing.to_str().unwrap()],
    ];
    let bad = [
        ("--support", "-0.1"),
        ("--support", "1.5"),
        ("--support", "nan"),
        ("--confidence", "-1"),
        ("--confidence", "7"),
        ("--confidence", "nan"),
        ("--theta", "-1"),
        ("--theta", "inf"),
        ("--theta", "nan"),
    ];
    for command in &commands {
        for (flag, value) in bad {
            let mut args = command.clone();
            args.extend([flag, value]);
            let out = wikistale(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
            assert!(stderr(&out).contains(flag), "{args:?}: {}", stderr(&out));
        }
    }
    // The closed range ends are accepted.
    for (flag, value) in [("--support", "0"), ("--confidence", "1"), ("--theta", "0")] {
        let out = wikistale(&["evaluate", "--in", filtered_s, flag, value]);
        assert!(out.status.success(), "{flag} {value}: {}", stderr(&out));
    }
    std::fs::remove_dir_all(&dir).ok();
}
