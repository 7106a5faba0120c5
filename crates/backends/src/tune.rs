//! Persisted tile auto-tuning: plan-time tile selection with zero
//! steady-state cost.
//!
//! The paper leaves tile sizes "tunable at compile time"; the OpenMP-like
//! backend already carries a PATUS-style empirical tuner
//! ([`crate::TiledBackend::autotune_tile`]) that times candidate tile
//! shapes and keeps the winner. This module makes that decision *sticky*:
//! the winning tile for each `(kernel-group signature, grid shapes,
//! thread count)` triple is persisted as a tiny JSON artifact
//! `tile-<hash>-t<threads>.json` in the [`ArtifactStore`] (the directory
//! the C JIT's shared objects share), so the first plan build of a given
//! configuration pays for the timing runs once and every later process
//! serves the decision from disk. Tuner activity is surfaced through
//! [`TuneStats`] into `RunReport` metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use snowflake_core::{ShapeMap, StencilGroup};

use crate::metrics::{json, TuneStats};
use crate::store::{self, ArtifactStore};

/// Tile entries meaning "untiled" (`i64::MAX >> 1` in memory) are encoded
/// as `0` on disk: the in-memory sentinel is not exactly representable in
/// JSON's f64 number space, `0` is never a legal tile extent, and the
/// artifact stays human-readable.
const UNTILED: i64 = i64::MAX >> 1;

/// Artifact schema version; bump when the encoding changes so stale
/// artifacts are ignored rather than misread.
const VERSION: u64 = 1;

#[derive(Debug, Default)]
struct TuneCounters {
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    candidates_timed: AtomicU64,
}

/// A persisted tile-decision cache. Cloning shares the counters (clones
/// of one backend report one tuner's activity).
#[derive(Clone, Debug)]
pub struct TileTuner {
    store: ArtifactStore,
    counters: Arc<TuneCounters>,
}

impl Default for TileTuner {
    fn default() -> Self {
        Self::new(ArtifactStore::default())
    }
}

impl TileTuner {
    /// A tuner persisting its decisions in `store`.
    pub fn new(store: ArtifactStore) -> Self {
        TileTuner {
            store,
            counters: Arc::new(TuneCounters::default()),
        }
    }

    /// Structural tuning key: the store hash of the program key and the
    /// thread count. Equal programs at equal sizes and parallelism share
    /// one decision.
    pub fn key(group: &StencilGroup, shapes: &ShapeMap, threads: usize) -> u64 {
        let program = store::program_key(group, shapes);
        store::hash([program.as_bytes(), threads.to_string().as_bytes()])
    }

    /// Look up a persisted decision. Counts a disk hit when found.
    pub fn lookup(&self, key: u64, threads: usize) -> Option<Vec<i64>> {
        let body = std::fs::read_to_string(self.store.path(&artifact_name(key, threads))).ok()?;
        let tile = parse_artifact(&body, threads)?;
        self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
        Some(tile)
    }

    /// Persist a freshly timed decision and count the miss that produced
    /// it (`candidates` = number of tile shapes timed).
    pub fn store(&self, key: u64, threads: usize, tile: &[i64], candidates: usize) {
        self.counters.disk_misses.fetch_add(1, Ordering::Relaxed);
        self.counters
            .candidates_timed
            .fetch_add(candidates as u64, Ordering::Relaxed);
        let body = render_artifact(threads, tile);
        // Best effort: an unwritable store degrades to tuning every
        // process, never to an error.
        let _ = self
            .store
            .put(&artifact_name(key, threads), body.as_bytes());
    }

    /// Snapshot of the tuner counters.
    pub fn stats(&self) -> TuneStats {
        TuneStats {
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.counters.disk_misses.load(Ordering::Relaxed),
            candidates_timed: self.counters.candidates_timed.load(Ordering::Relaxed),
        }
    }
}

fn artifact_name(key: u64, threads: usize) -> String {
    format!("tile-{key:016x}-t{threads}.json")
}

fn render_artifact(threads: usize, tile: &[i64]) -> String {
    let entries: Vec<String> = tile
        .iter()
        .map(|&t| (if t >= UNTILED { 0 } else { t }).to_string())
        .collect();
    format!(
        "{{\"version\":{VERSION},\"threads\":{threads},\"tile\":[{}]}}\n",
        entries.join(",")
    )
}

fn parse_artifact(body: &str, threads: usize) -> Option<Vec<i64>> {
    let doc = json::parse(body).ok()?;
    if doc.get("version")?.as_u64()? != VERSION {
        return None;
    }
    if doc.get("threads")?.as_u64()? != threads as u64 {
        return None;
    }
    let tile: Option<Vec<i64>> = doc
        .get("tile")?
        .as_array()?
        .iter()
        .map(|v| {
            let t = i64::try_from(v.as_u64()?).ok()?;
            Some(if t == 0 { UNTILED } else { t })
        })
        .collect();
    tile.filter(|t| !t.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{Expr, RectDomain, Stencil};

    fn group(factor: f64) -> StencilGroup {
        StencilGroup::from(Stencil::new(
            Expr::read_at("x", &[0, 0]) * factor,
            "y",
            RectDomain::interior(2),
        ))
    }

    fn shapes(n: usize) -> ShapeMap {
        let mut m = ShapeMap::new();
        m.insert("x".into(), vec![n, n]);
        m.insert("y".into(), vec![n, n]);
        m
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("snowflake-tune-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_lookup_round_trips_with_untiled_encoding() {
        let dir = tmp_dir("roundtrip");
        let tuner = TileTuner::new(ArtifactStore::new(Some(dir.clone())));
        let key = TileTuner::key(&group(2.0), &shapes(16), 4);
        assert_eq!(tuner.lookup(key, 4), None, "cold cache");
        tuner.store(key, 4, &[8, UNTILED, 64], 3);
        assert_eq!(tuner.lookup(key, 4), Some(vec![8, UNTILED, 64]));
        let stats = tuner.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.disk_misses, 1);
        assert_eq!(stats.candidates_timed, 3);
        // A second tuner over the same directory serves the artifact with
        // fresh counters — the cross-process steady state.
        let warm = TileTuner::new(ArtifactStore::new(Some(dir.clone())));
        assert_eq!(warm.lookup(key, 4), Some(vec![8, UNTILED, 64]));
        assert_eq!(warm.stats().disk_hits, 1);
        assert_eq!(warm.stats().disk_misses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_separates_programs_shapes_and_threads() {
        let k = TileTuner::key(&group(2.0), &shapes(16), 4);
        assert_ne!(k, TileTuner::key(&group(3.0), &shapes(16), 4));
        assert_ne!(k, TileTuner::key(&group(2.0), &shapes(32), 4));
        assert_ne!(k, TileTuner::key(&group(2.0), &shapes(16), 8));
        assert_eq!(k, TileTuner::key(&group(2.0), &shapes(16), 4));
    }

    #[test]
    fn thread_count_mismatch_and_garbage_are_misses() {
        let dir = tmp_dir("mismatch");
        let tuner = TileTuner::new(ArtifactStore::new(Some(dir.clone())));
        let key = TileTuner::key(&group(2.0), &shapes(16), 4);
        tuner.store(key, 4, &[8, 8], 2);
        assert_eq!(tuner.lookup(key, 8), None, "different thread count");
        // Corrupt artifact: must be treated as a miss, not a panic.
        std::fs::write(dir.join(artifact_name(key, 4)), "not json").unwrap();
        assert_eq!(tuner.lookup(key, 4), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
