//! Checkpoint-verified artifact loading for the query path.
//!
//! The server boots from a checkpoint directory written by
//! `wikistale experiment --checkpoint-dir <dir>`: the manifest binds the
//! directory to the exact configuration fingerprint that produced it,
//! and [`CheckpointManifest::verified_stage_bytes`] re-checks the CRC-32
//! and length of the `filter` stage artifact before a single byte is
//! decoded. Decoding failures surface the binio-v3
//! `Truncated{section,need,got}` detail verbatim — a clear, classified
//! error (exit code 4 at the CLI), never a panic.
//!
//! Trained predictors are rebuilt from the verified filtered cube at
//! startup (training is deterministic, so the model is exactly the one
//! the batch evaluation used). The **generation** string — FNV-1a over
//! the manifest's config fingerprint, the artifact CRC/length, and the
//! training config — keys the response cache: re-training with a
//! different configuration or corpus changes it, so stale cached
//! responses can never be served across a model swap.

use std::path::Path;

use wikistale_core::checkpoint::{self, CheckpointError, CheckpointManifest};
use wikistale_core::experiment::{ExperimentConfig, TrainedPredictors};
use wikistale_core::predictor::EvalData;
use wikistale_core::scoring::Scorer;
use wikistale_core::split::EvalSplit;
use wikistale_wikicube::{binio, ChangeCube, CubeIndex, DateRange};

/// Why the artifact set could not be loaded. Mirrors the CLI's
/// classified exit codes: `Io` → 3, `Corrupt` → 4.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem trouble or a missing artifact/manifest.
    Io(String),
    /// The manifest or artifact bytes fail verification (bad JSON, CRC
    /// mismatch, truncated binio section, …).
    Corrupt(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(why) => write!(f, "artifact i/o error: {why}"),
            ArtifactError::Corrupt(why) => write!(f, "corrupt artifacts: {why}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<CheckpointError> for ArtifactError {
    fn from(e: CheckpointError) -> ArtifactError {
        match e {
            CheckpointError::Io(io) => ArtifactError::Io(io.to_string()),
            other => ArtifactError::Corrupt(other.to_string()),
        }
    }
}

/// Everything the server owns for one model generation.
pub struct ServeArtifacts {
    filtered: ChangeCube,
    index: CubeIndex,
    trained: TrainedPredictors,
    /// The checkpoint's config fingerprint (from the manifest).
    pub fingerprint: String,
    /// Cache generation: fingerprint ⊕ artifact checksum ⊕ training
    /// config. Keys every cached response.
    pub generation: String,
    /// The range whose tumbling windows `/v1/score` indices refer to.
    pub eval_range: DateRange,
}

impl std::fmt::Debug for ServeArtifacts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeArtifacts")
            .field("fingerprint", &self.fingerprint)
            .field("generation", &self.generation)
            .field("eval_range", &self.eval_range)
            .finish_non_exhaustive()
    }
}

impl ServeArtifacts {
    /// Load and verify the artifact set in `dir`, then train the
    /// predictors on it.
    ///
    /// The evaluation range mirrors the batch protocol: the test year of
    /// the standard split when the corpus spans enough history (training
    /// on train + validation), else the full span (trained on all of
    /// it — a degenerate fallback for tiny corpora, documented as such).
    pub fn load(dir: &Path, config: &ExperimentConfig) -> Result<ServeArtifacts, ArtifactError> {
        let manifest = CheckpointManifest::load(dir)?.ok_or_else(|| {
            ArtifactError::Io(format!(
                "no checkpoint manifest in {} — run \
                 `wikistale experiment --checkpoint-dir {}` first",
                dir.display(),
                dir.display()
            ))
        })?;
        let stage = manifest.stage("filter").ok_or_else(|| {
            ArtifactError::Io(format!(
                "checkpoint in {} has no completed 'filter' stage — \
                 rerun the experiment to completion",
                dir.display()
            ))
        })?;
        let (crc32, len) = (stage.crc32, stage.len);
        let bytes = manifest
            .verified_stage_bytes(dir, "filter")?
            .ok_or_else(|| {
                ArtifactError::Io(format!(
                    "filter stage artifact missing from {}",
                    dir.display()
                ))
            })?;
        let filtered = binio::decode(&bytes)
            .map_err(|e| ArtifactError::Corrupt(format!("filter stage artifact: {e}")))?;

        let span = filtered.time_span().ok_or_else(|| {
            ArtifactError::Corrupt("filtered cube is empty — nothing to serve".into())
        })?;
        let (train_range, eval_range) = match EvalSplit::for_span(span) {
            Some(split) => (split.train_and_validation(), split.test),
            None => (span, span),
        };
        let index = CubeIndex::build(&filtered);
        let trained = {
            let data = EvalData::new(&filtered, &index);
            TrainedPredictors::train(&data, train_range, config)
        };
        let generation = checkpoint::fingerprint(&format!(
            "{}|crc32={crc32:08x}|len={len}|{config:?}",
            manifest.fingerprint
        ));
        Ok(ServeArtifacts {
            filtered,
            index,
            trained,
            fingerprint: manifest.fingerprint,
            generation,
            eval_range,
        })
    }

    /// The cube + index being served.
    pub fn data(&self) -> EvalData<'_> {
        EvalData::new(&self.filtered, &self.index)
    }

    /// A scorer over this generation's predictors and eval range.
    pub fn scorer(&self) -> Scorer<'_> {
        Scorer::new(self.data(), &self.trained, self.eval_range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wikistale_core::filters::FilterPipeline;
    use wikistale_synth::{generate, SynthConfig};

    fn write_checkpoint(dir: &Path) -> CheckpointManifest {
        let corpus = generate(&SynthConfig::tiny());
        let (filtered, _) = FilterPipeline::paper().apply(&corpus.cube);
        let bytes = binio::encode(&filtered);
        std::fs::create_dir_all(dir).unwrap();
        binio::write_bytes_atomic(&dir.join("filter.wcube"), &bytes).unwrap();
        let mut manifest = CheckpointManifest::new("testfp");
        manifest.record_stage("filter", "filter.wcube", &bytes);
        manifest.save(dir).unwrap();
        manifest
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wikistale-serve-artifacts-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn loads_verified_checkpoint_and_scores() {
        let dir = tmpdir("ok");
        write_checkpoint(&dir);
        let artifacts = ServeArtifacts::load(&dir, &ExperimentConfig::default()).unwrap();
        assert_eq!(artifacts.fingerprint, "testfp");
        assert!(!artifacts.generation.is_empty());
        // The tiny corpus spans > 2 years, so the split applies and the
        // eval range is the last year.
        assert_eq!(artifacts.eval_range.len_days(), 365);
        let scorer = artifacts.scorer();
        let sets = scorer.predict(7);
        assert!(sets.or.num_windows() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_tracks_config_and_bytes() {
        let dir = tmpdir("gen");
        write_checkpoint(&dir);
        let a = ServeArtifacts::load(&dir, &ExperimentConfig::default()).unwrap();
        let b = ServeArtifacts::load(&dir, &ExperimentConfig::default()).unwrap();
        assert_eq!(a.generation, b.generation, "same inputs, same generation");
        let mut config = ExperimentConfig::default();
        config.threshold_baseline.threshold = 0.5;
        let c = ServeArtifacts::load(&dir, &config).unwrap();
        assert_ne!(a.generation, c.generation, "config change must rotate");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_io() {
        let dir = tmpdir("missing");
        let err = ServeArtifacts::load(&dir, &ExperimentConfig::default()).unwrap_err();
        assert!(matches!(err, ArtifactError::Io(_)), "{err}");
        assert!(err.to_string().contains("no checkpoint manifest"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifact_is_precise_not_a_panic() {
        // Flipped byte: CRC mismatch from the checkpoint layer.
        let dir = tmpdir("flip");
        write_checkpoint(&dir);
        let path = dir.join("filter.wcube");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = ServeArtifacts::load(&dir, &ExperimentConfig::default()).unwrap_err();
        assert!(matches!(err, ArtifactError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("CRC-32"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);

        // Truncated artifact with a doctored manifest: the length check
        // in the manifest catches it first; when the manifest is
        // regenerated over the truncated bytes, binio's own
        // Truncated{section,need,got} detail must surface.
        let dir = tmpdir("trunc");
        write_checkpoint(&dir);
        let path = dir.join("filter.wcube");
        let bytes = std::fs::read(&path).unwrap();
        let cut = &bytes[..bytes.len() / 2];
        std::fs::write(&path, cut).unwrap();
        let err = ServeArtifacts::load(&dir, &ExperimentConfig::default()).unwrap_err();
        assert!(matches!(err, ArtifactError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("bytes"), "{err}");

        let mut manifest = CheckpointManifest::new("testfp");
        manifest.record_stage("filter", "filter.wcube", cut);
        manifest.save(&dir).unwrap();
        let err = ServeArtifacts::load(&dir, &ExperimentConfig::default()).unwrap_err();
        assert!(matches!(err, ArtifactError::Corrupt(_)), "{err}");
        assert!(
            err.to_string().contains("truncated") || err.to_string().contains("need"),
            "binio truncation detail lost: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
