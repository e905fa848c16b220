//! Shared setup for the experiment binaries.

use std::path::PathBuf;

use chipalign_pipeline::zoo::{Quality, Zoo, ZooConfig};
use chipalign_pipeline::PipelineError;

/// The seed every experiment binary uses, so tables are mutually
/// consistent.
pub const BENCH_SEED: u64 = 2025;

/// Resolves the on-disk zoo cache directory (`artifacts/zoo` under the
/// workspace root, overridable with `CHIPALIGN_ZOO_DIR`).
#[must_use]
pub(crate) fn zoo_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CHIPALIGN_ZOO_DIR") {
        return PathBuf::from(dir);
    }
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(|p| p.join("artifacts/zoo"))
        .unwrap_or_else(|| PathBuf::from("artifacts/zoo"))
}

/// Builds the paper-quality zoo backed by the on-disk cache.
///
/// Respects `CHIPALIGN_QUALITY=smoke` for quick dry runs.
///
/// # Errors
///
/// Propagates cache-directory creation failures.
pub fn paper_zoo() -> Result<Zoo, PipelineError> {
    let quality = match std::env::var("CHIPALIGN_QUALITY").as_deref() {
        Ok("smoke") => Quality::Smoke,
        _ => Quality::Paper,
    };
    Zoo::new(ZooConfig {
        quality,
        seed: BENCH_SEED,
        cache_dir: Some(zoo_dir()),
    })
}

/// Resolves the results directory (`artifacts/results`), creating it.
///
/// # Errors
///
/// Propagates directory-creation failures.
pub fn results_dir() -> Result<PathBuf, PipelineError> {
    let dir = zoo_dir()
        .parent()
        .map(|p| p.join("results"))
        .unwrap_or_else(|| PathBuf::from("artifacts/results"));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_dir_is_under_artifacts() {
        let dir = zoo_dir();
        assert!(dir.to_string_lossy().contains("artifacts"));
    }

    #[test]
    fn results_dir_is_creatable() {
        let dir = results_dir().expect("create");
        assert!(dir.exists());
    }
}
