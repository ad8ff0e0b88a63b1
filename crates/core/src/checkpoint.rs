//! Crash-safe checkpointing for the experiment pipeline.
//!
//! A full-scale run of the paper's evaluation is hours of work: generate
//! (or ingest), filter, train, then evaluate four window granularities.
//! A crash near the end used to mean starting over. This module persists
//! a manifest after every completed stage so `experiment --resume` can
//! skip finished work:
//!
//! * artifact-producing stages (`generate`, `filter`) record the cube
//!   file they wrote plus its CRC-32 and length — on resume the file is
//!   re-verified before it is trusted;
//! * evaluation stages record their [`GranularityResults`] exactly (all
//!   fields are integers, so the JSON round trip is lossless) — a
//!   resumed run reproduces the uninterrupted run's [`PaperResults`]
//!   byte for byte;
//! * training records a [`ResultsSummary`] (rule counts, coverage, the
//!   Figure 3 histogram) the final report needs.
//!
//! The manifest itself is written atomically (temp file + fsync +
//! rename, via [`wikistale_wikicube::binio::write_bytes_atomic`]), so a
//! crash *during* a checkpoint leaves the previous manifest intact. A
//! manifest is bound to the experiment configuration through a
//! fingerprint: resuming with different parameters is refused instead of
//! silently mixing incompatible partial results.

use crate::eval::{EvalOutcome, Overlap};
use crate::experiment::{GranularityResults, PaperResults};
use std::io;
use std::path::{Path, PathBuf};
use wikistale_obs::json::{self, Value};
use wikistale_wikicube::binio::write_bytes_atomic;
use wikistale_wikicube::crc32::crc32;
use wikistale_wikicube::TemplateId;

/// Name of the manifest file inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Why a checkpoint could not be loaded, verified, or saved.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem trouble.
    Io(io::Error),
    /// The manifest or a recorded artifact does not match what was
    /// written (bad JSON, wrong CRC, wrong length).
    Corrupt(String),
    /// The manifest belongs to a run with different parameters.
    FingerprintMismatch {
        /// Fingerprint of the current configuration.
        expected: String,
        /// Fingerprint stored in the manifest.
        found: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint was written by a run with different parameters \
                 (manifest fingerprint {found}, current configuration {expected}); \
                 delete the checkpoint directory or rerun with the original flags"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// FNV-1a 64-bit hash of a configuration description, hex-encoded.
/// Stable across runs and platforms; used to bind a checkpoint directory
/// to the exact experiment parameters that produced it.
pub fn fingerprint(desc: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in desc.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A completed artifact-producing stage: which file it wrote and the
/// checksum/length to verify on resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRecord {
    /// Stage name (`generate`, `filter`, …).
    pub name: String,
    /// File name of the artifact, relative to the checkpoint directory.
    pub file: String,
    /// CRC-32 of the artifact bytes.
    pub crc32: u32,
    /// Length of the artifact in bytes.
    pub len: u64,
}

/// Training outputs the final report needs besides the per-granularity
/// tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultsSummary {
    /// Number of undirected field-correlation rules.
    pub num_field_corr_rules: usize,
    /// Number of surviving association rules.
    pub num_assoc_rules: usize,
    /// Entities covered by at least one association rule's template.
    pub covered_entities: usize,
    /// Figure 3 input: surviving rule count per template.
    pub rules_per_template: Vec<(TemplateId, usize)>,
}

/// The on-disk record of a partially (or fully) completed experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointManifest {
    /// Fingerprint of the configuration this checkpoint belongs to.
    pub fingerprint: String,
    stages: Vec<StageRecord>,
    granularities: Vec<GranularityResults>,
    summary: Option<ResultsSummary>,
}

impl CheckpointManifest {
    /// Fresh manifest for a configuration fingerprint.
    pub fn new(fingerprint: impl Into<String>) -> CheckpointManifest {
        CheckpointManifest {
            fingerprint: fingerprint.into(),
            stages: Vec::new(),
            granularities: Vec::new(),
            summary: None,
        }
    }

    /// Path of the manifest file inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Load the manifest from `dir`; `Ok(None)` when none exists yet.
    pub fn load(dir: &Path) -> Result<Option<CheckpointManifest>, CheckpointError> {
        let path = CheckpointManifest::path_in(dir);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CheckpointError::Io(e)),
        };
        parse_manifest(&text)
            .map(Some)
            .map_err(|why| CheckpointError::Corrupt(format!("{}: {why}", path.display())))
    }

    /// Load the manifest from `dir` and require it to match `expected`
    /// (the fingerprint of the current configuration).
    pub fn load_expecting(
        dir: &Path,
        expected: &str,
    ) -> Result<Option<CheckpointManifest>, CheckpointError> {
        match CheckpointManifest::load(dir)? {
            None => Ok(None),
            Some(m) if m.fingerprint == expected => Ok(Some(m)),
            Some(m) => Err(CheckpointError::FingerprintMismatch {
                expected: expected.to_owned(),
                found: m.fingerprint,
            }),
        }
    }

    /// Atomically persist the manifest into `dir` (created if missing).
    pub fn save(&self, dir: &Path) -> Result<(), CheckpointError> {
        std::fs::create_dir_all(dir)?;
        write_bytes_atomic(&CheckpointManifest::path_in(dir), self.render().as_bytes())?;
        Ok(())
    }

    /// The record of a completed artifact stage, if present.
    pub fn stage(&self, name: &str) -> Option<&StageRecord> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Record (or replace) a completed artifact stage. `bytes` are the
    /// artifact's full contents, already written to `file`.
    pub fn record_stage(&mut self, name: &str, file: &str, bytes: &[u8]) {
        let record = StageRecord {
            name: name.to_owned(),
            file: file.to_owned(),
            crc32: crc32(bytes),
            len: bytes.len() as u64,
        };
        match self.stages.iter_mut().find(|s| s.name == name) {
            Some(slot) => *slot = record,
            None => self.stages.push(record),
        }
    }

    /// Read back and verify the artifact of stage `name` from `dir`.
    ///
    /// `Ok(None)` when the stage was never completed or its file has
    /// since disappeared (the caller recomputes); a checksum or length
    /// mismatch is [`CheckpointError::Corrupt`] — a half-written or
    /// bit-rotted artifact must never be silently reused.
    pub fn verified_stage_bytes(
        &self,
        dir: &Path,
        name: &str,
    ) -> Result<Option<Vec<u8>>, CheckpointError> {
        let Some(record) = self.stage(name) else {
            return Ok(None);
        };
        let path = dir.join(&record.file);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CheckpointError::Io(e)),
        };
        if bytes.len() as u64 != record.len {
            return Err(CheckpointError::Corrupt(format!(
                "stage {name:?} artifact {}: expected {} bytes, found {}",
                path.display(),
                record.len,
                bytes.len()
            )));
        }
        let computed = crc32(&bytes);
        if computed != record.crc32 {
            return Err(CheckpointError::Corrupt(format!(
                "stage {name:?} artifact {}: CRC-32 mismatch \
                 (manifest {:#010x}, file {computed:#010x})",
                path.display(),
                record.crc32,
            )));
        }
        Ok(Some(bytes))
    }

    /// Results for window size `g`, if that granularity completed.
    pub fn granularity(&self, g: u32) -> Option<&GranularityResults> {
        self.granularities.iter().find(|r| r.granularity == g)
    }

    /// Record (or replace) one completed granularity.
    pub fn record_granularity(&mut self, results: GranularityResults) {
        match self
            .granularities
            .iter_mut()
            .find(|r| r.granularity == results.granularity)
        {
            Some(slot) => *slot = results,
            None => self.granularities.push(results),
        }
    }

    /// The training summary, if training completed.
    pub fn summary(&self) -> Option<&ResultsSummary> {
        self.summary.as_ref()
    }

    /// Record the training summary.
    pub fn set_summary(&mut self, summary: ResultsSummary) {
        self.summary = Some(summary);
    }

    /// Assemble the full [`PaperResults`] if the summary and every
    /// granularity in `order` completed; granularities come out in
    /// `order`, matching an uninterrupted run exactly.
    pub fn assemble_results(&self, order: &[u32]) -> Option<PaperResults> {
        let summary = self.summary.as_ref()?;
        let per_granularity = order
            .iter()
            .map(|&g| self.granularity(g).cloned())
            .collect::<Option<Vec<_>>>()?;
        Some(summary.clone().into_results(per_granularity))
    }

    /// Render the manifest as JSON.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"fingerprint\": {},\n",
            json::escape(&self.fingerprint)
        ));
        out.push_str("  \"stages\": [");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"file\": {}, \"crc32\": {}, \"len\": {}}}",
                json::escape(&s.name),
                json::escape(&s.file),
                s.crc32,
                s.len
            ));
        }
        out.push_str(if self.stages.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"granularities\": [");
        for (i, g) in self.granularities.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&granularity_json(g));
        }
        out.push_str(if self.granularities.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"summary\": ");
        match &self.summary {
            None => out.push_str("null"),
            Some(s) => {
                out.push_str(&format!(
                    "{{\"num_field_corr_rules\": {}, \"num_assoc_rules\": {}, \
                     \"covered_entities\": {}, \"rules_per_template\": [",
                    s.num_field_corr_rules, s.num_assoc_rules, s.covered_entities
                ));
                for (i, (t, n)) in s.rules_per_template.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{},{}]", t.0, n));
                }
                out.push_str("]}");
            }
        }
        out.push_str("\n}\n");
        out
    }
}

fn outcome_json(o: &EvalOutcome) -> String {
    format!("[{},{},{}]", o.predictions, o.true_positives, o.truth_total)
}

fn granularity_json(g: &GranularityResults) -> String {
    let mut out = String::with_capacity(256);
    out.push_str(&format!(
        "{{\"granularity\": {}, \"truth_total\": {}, ",
        g.granularity, g.truth_total
    ));
    out.push_str(&format!(
        "\"mean_baseline\": {}, \"threshold_baseline\": {}, \
         \"field_correlations\": {}, \"association_rules\": {}, \
         \"and_ensemble\": {}, \"or_ensemble\": {}, ",
        outcome_json(&g.mean_baseline),
        outcome_json(&g.threshold_baseline),
        outcome_json(&g.field_correlations),
        outcome_json(&g.association_rules),
        outcome_json(&g.and_ensemble),
        outcome_json(&g.or_ensemble),
    ));
    out.push_str(&format!(
        "\"fc_ar_overlap\": [{},{},{}], ",
        g.fc_ar_overlap.shared, g.fc_ar_overlap.a_total, g.fc_ar_overlap.b_total
    ));
    out.push_str("\"weekly_series\": ");
    match &g.weekly_series {
        None => out.push_str("null"),
        Some(series) => {
            out.push('[');
            for (i, s) in series.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                for (j, o) in s.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&outcome_json(o));
                }
                out.push(']');
            }
            out.push(']');
        }
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------
// Parsing. All counts in the manifest are integers well below 2^53, so
// the f64-backed JSON numbers round-trip exactly.

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric {key:?}"))
}

fn num_usize(v: &Value, key: &str) -> Result<usize, String> {
    Ok(num(v, key)? as usize)
}

fn parse_outcome(v: &Value, key: &str) -> Result<EvalOutcome, String> {
    let items = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing outcome {key:?}"))?;
    outcome_from_array(items).map_err(|e| format!("{key}: {e}"))
}

fn outcome_from_array(items: &[Value]) -> Result<EvalOutcome, String> {
    if items.len() != 3 {
        return Err(format!("expected 3 counts, found {}", items.len()));
    }
    let take = |i: usize| -> Result<usize, String> {
        items[i]
            .as_f64()
            .map(|f| f as usize)
            .ok_or_else(|| "non-numeric count".to_owned())
    };
    Ok(EvalOutcome {
        predictions: take(0)?,
        true_positives: take(1)?,
        truth_total: take(2)?,
    })
}

fn parse_granularity(v: &Value) -> Result<GranularityResults, String> {
    let weekly_series = match v.get("weekly_series") {
        None | Some(Value::Null) => None,
        Some(Value::Array(series)) => {
            let mut parsed: Vec<Vec<EvalOutcome>> = Vec::with_capacity(series.len());
            for s in series {
                let outcomes = s
                    .as_array()
                    .ok_or("weekly_series element is not an array")?
                    .iter()
                    .map(|o| {
                        o.as_array()
                            .ok_or_else(|| "weekly outcome is not an array".to_owned())
                            .and_then(outcome_from_array)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                parsed.push(outcomes);
            }
            let arr: [Vec<EvalOutcome>; 4] = parsed
                .try_into()
                .map_err(|_| "weekly_series must hold exactly 4 series".to_owned())?;
            Some(arr)
        }
        Some(_) => return Err("weekly_series must be null or an array".to_owned()),
    };
    let overlap = v
        .get("fc_ar_overlap")
        .and_then(Value::as_array)
        .ok_or("missing fc_ar_overlap")?;
    if overlap.len() != 3 {
        return Err("fc_ar_overlap must hold 3 counts".to_owned());
    }
    let ov = |i: usize| -> Result<usize, String> {
        overlap[i]
            .as_f64()
            .map(|f| f as usize)
            .ok_or_else(|| "non-numeric overlap count".to_owned())
    };
    Ok(GranularityResults {
        granularity: num(v, "granularity")? as u32,
        truth_total: num_usize(v, "truth_total")?,
        mean_baseline: parse_outcome(v, "mean_baseline")?,
        threshold_baseline: parse_outcome(v, "threshold_baseline")?,
        field_correlations: parse_outcome(v, "field_correlations")?,
        association_rules: parse_outcome(v, "association_rules")?,
        and_ensemble: parse_outcome(v, "and_ensemble")?,
        or_ensemble: parse_outcome(v, "or_ensemble")?,
        fc_ar_overlap: Overlap {
            shared: ov(0)?,
            a_total: ov(1)?,
            b_total: ov(2)?,
        },
        weekly_series,
    })
}

fn parse_summary(v: &Value) -> Result<ResultsSummary, String> {
    let rules = v
        .get("rules_per_template")
        .and_then(Value::as_array)
        .ok_or("missing rules_per_template")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .ok_or_else(|| "rules_per_template entry is not a pair".to_owned())?;
            if pair.len() != 2 {
                return Err("rules_per_template entry is not a pair".to_owned());
            }
            let t = pair[0]
                .as_f64()
                .ok_or_else(|| "non-numeric template id".to_owned())? as u32;
            let n = pair[1]
                .as_f64()
                .ok_or_else(|| "non-numeric rule count".to_owned())? as usize;
            Ok((TemplateId(t), n))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ResultsSummary {
        num_field_corr_rules: num_usize(v, "num_field_corr_rules")?,
        num_assoc_rules: num_usize(v, "num_assoc_rules")?,
        covered_entities: num_usize(v, "covered_entities")?,
        rules_per_template: rules,
    })
}

fn parse_manifest(text: &str) -> Result<CheckpointManifest, String> {
    let v = json::parse(text)?;
    let fingerprint = v
        .get("fingerprint")
        .and_then(Value::as_str)
        .ok_or("missing fingerprint")?
        .to_owned();
    let stages = v
        .get("stages")
        .and_then(Value::as_array)
        .ok_or("missing stages")?
        .iter()
        .map(|s| {
            Ok(StageRecord {
                name: s
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("stage missing name")?
                    .to_owned(),
                file: s
                    .get("file")
                    .and_then(Value::as_str)
                    .ok_or("stage missing file")?
                    .to_owned(),
                crc32: num(s, "crc32")? as u32,
                len: num(s, "len")? as u64,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let granularities = v
        .get("granularities")
        .and_then(Value::as_array)
        .ok_or("missing granularities")?
        .iter()
        .map(parse_granularity)
        .collect::<Result<Vec<_>, String>>()?;
    let summary = match v.get("summary") {
        None | Some(Value::Null) => None,
        Some(s) => Some(parse_summary(s)?),
    };
    Ok(CheckpointManifest {
        fingerprint,
        stages,
        granularities,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(p: usize, tp: usize, tt: usize) -> EvalOutcome {
        EvalOutcome {
            predictions: p,
            true_positives: tp,
            truth_total: tt,
        }
    }

    fn sample_granularity(g: u32, with_series: bool) -> GranularityResults {
        GranularityResults {
            granularity: g,
            truth_total: 1234,
            mean_baseline: outcome(10, 5, 1234),
            threshold_baseline: outcome(20, 15, 1234),
            field_correlations: outcome(30, 28, 1234),
            association_rules: outcome(40, 37, 1234),
            and_ensemble: outcome(25, 24, 1234),
            or_ensemble: outcome(45, 41, 1234),
            fc_ar_overlap: Overlap {
                shared: 25,
                a_total: 30,
                b_total: 40,
            },
            weekly_series: with_series.then(|| {
                [
                    vec![outcome(1, 1, 2); 3],
                    vec![outcome(2, 1, 2); 3],
                    vec![outcome(3, 2, 4); 3],
                    vec![outcome(4, 3, 4); 3],
                ]
            }),
        }
    }

    fn sample_manifest() -> CheckpointManifest {
        let mut m = CheckpointManifest::new("deadbeefcafef00d");
        m.record_stage("generate", "generate.wcube", b"some cube bytes");
        m.record_stage("filter", "filter.wcube", b"other bytes");
        m.record_granularity(sample_granularity(1, false));
        m.record_granularity(sample_granularity(7, true));
        m.set_summary(ResultsSummary {
            num_field_corr_rules: 11,
            num_assoc_rules: 22,
            covered_entities: 33,
            rules_per_template: vec![(TemplateId(3), 9), (TemplateId(0), 2)],
        });
        m
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        assert_eq!(fingerprint("").len(), 16);
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = sample_manifest();
        let rendered = m.render();
        wikistale_obs::json::validate(&rendered).expect("manifest is valid JSON");
        let back = parse_manifest(&rendered).expect("manifest parses");
        assert_eq!(m, back);
    }

    #[test]
    fn empty_manifest_round_trips() {
        let m = CheckpointManifest::new("00");
        let back = parse_manifest(&m.render()).unwrap();
        assert_eq!(m, back);
        assert!(back.assemble_results(&[1, 7]).is_none());
    }

    #[test]
    fn save_load_and_stage_verification() {
        let dir = std::env::temp_dir().join(format!("wikistale-ckpt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        assert!(CheckpointManifest::load(&dir).unwrap().is_none());

        let mut m = CheckpointManifest::new("f00d");
        let artifact = b"pretend this is a cube".to_vec();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("generate.wcube"), &artifact).unwrap();
        m.record_stage("generate", "generate.wcube", &artifact);
        m.save(&dir).unwrap();

        let loaded = CheckpointManifest::load_expecting(&dir, "f00d")
            .unwrap()
            .unwrap();
        assert_eq!(loaded, m);
        // Intact artifact verifies and comes back byte-identical.
        let bytes = loaded.verified_stage_bytes(&dir, "generate").unwrap();
        assert_eq!(bytes.as_deref(), Some(&artifact[..]));
        // Unknown stage: recompute signal, not an error.
        assert!(loaded
            .verified_stage_bytes(&dir, "filter")
            .unwrap()
            .is_none());
        // Wrong fingerprint: refused.
        assert!(matches!(
            CheckpointManifest::load_expecting(&dir, "beef"),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        // Corrupt the artifact: flagged, never silently reused.
        let mut evil = artifact.clone();
        evil[3] ^= 0x40;
        std::fs::write(dir.join("generate.wcube"), &evil).unwrap();
        assert!(matches!(
            loaded.verified_stage_bytes(&dir, "generate"),
            Err(CheckpointError::Corrupt(_))
        ));
        // Truncated artifact: also flagged (length check).
        std::fs::write(dir.join("generate.wcube"), &artifact[..5]).unwrap();
        assert!(matches!(
            loaded.verified_stage_bytes(&dir, "generate"),
            Err(CheckpointError::Corrupt(_))
        ));
        // Deleted artifact: recompute signal.
        std::fs::remove_file(dir.join("generate.wcube")).unwrap();
        assert!(loaded
            .verified_stage_bytes(&dir, "generate")
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn assemble_results_requires_everything() {
        let m = sample_manifest();
        assert!(m.assemble_results(&[1, 7, 30]).is_none(), "30d missing");
        let results = m.assemble_results(&[7, 1]).expect("1d and 7d present");
        assert_eq!(results.per_granularity.len(), 2);
        // Order follows the request, not insertion.
        assert_eq!(results.per_granularity[0].granularity, 7);
        assert_eq!(results.per_granularity[1].granularity, 1);
        assert_eq!(results.num_assoc_rules, 22);
        assert_eq!(results.rules_per_template[0], (TemplateId(3), 9));
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("wikistale-ckpt-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), b"{not json").unwrap();
        assert!(matches!(
            CheckpointManifest::load(&dir),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
