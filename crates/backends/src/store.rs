//! The artifact store: the one place that decides where persisted
//! artifacts live, how they are named and how they are written.
//!
//! The paper's JIT caches each compiled group "for subsequent use". Two
//! things outlive a process here — cjit shared objects and the omp tile
//! tuner's decisions — and both go through one [`ArtifactStore`]:
//!
//! * **Directory**, resolved once per store: an explicit directory →
//!   `$SNOWFLAKE_CACHE_DIR` (an empty value counts as unset) →
//!   `snowflake-cache/` next to the running executable (inside `target/`,
//!   so `cargo clean` clears it) → `snowflake-cache/` under the system temp
//!   directory.
//! * **Names** are content hashes: [`hash`] is FNV-1a over a list of parts,
//!   and [`program_key`] is the structural identity of a (group, shapes)
//!   pair that the in-memory [`crate::CompileCache`] and the tuner share.
//! * **Writes** are atomic ([`ArtifactStore::put`]): a unique staging name
//!   in the store directory, then `rename`, so racing writers never expose
//!   a torn file and at worst both do the work and one rename wins.
//!
//! The store is an accelerator, never a correctness dependency: callers
//! ignore `put` errors, so an unwritable directory only costs the reuse.

use std::ffi::OsString;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use snowflake_core::{ShapeMap, StencilGroup};

/// A directory of persisted artifacts.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl Default for ArtifactStore {
    fn default() -> Self {
        Self::new(None)
    }
}

impl ArtifactStore {
    /// A store rooted at `dir`, or at the resolved default chain (see
    /// module docs) when `None`.
    pub fn new(dir: Option<PathBuf>) -> Self {
        ArtifactStore {
            dir: resolve_dir(dir, std::env::var_os("SNOWFLAKE_CACHE_DIR")),
        }
    }

    /// Where the artifact called `name` lives (whether or not it exists).
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Store `bytes` as `name`: write a unique staging file in the store
    /// directory, then rename it into place.
    pub fn put(&self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(&self.dir)?;
        let staging = self.dir.join(format!(
            ".staging_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let result = std::fs::write(&staging, bytes)
            .and_then(|()| std::fs::rename(&staging, self.path(name)));
        if result.is_err() {
            let _ = std::fs::remove_file(&staging);
        }
        result
    }
}

/// The store directory for an explicit choice and a value of
/// `$SNOWFLAKE_CACHE_DIR`. Empty values count as unset: an empty directory
/// would name artifacts without a `/`, which `dlopen` looks up on the
/// library path instead of the working directory, so they never hit.
fn resolve_dir(explicit: Option<PathBuf>, env: Option<OsString>) -> PathBuf {
    let exe_dir = || Some(std::env::current_exe().ok()?.parent()?.to_path_buf());
    explicit
        .filter(|d| !d.as_os_str().is_empty())
        .or_else(|| env.filter(|d| !d.is_empty()).map(PathBuf::from))
        .unwrap_or_else(|| {
            exe_dir()
                .unwrap_or_else(std::env::temp_dir)
                .join("snowflake-cache")
        })
}

/// FNV-1a 64-bit over `parts`, each followed by a NUL so that adjacent
/// parts cannot trade bytes.
pub fn hash<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.iter().chain(&[0u8]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Structural identity of a program at given sizes: the debug rendering
/// of the group plus the sorted shape bindings. Expressions, domains and
/// maps all derive `Debug` deterministically, so equal programs at equal
/// shapes produce equal keys.
pub fn program_key(group: &StencilGroup, shapes: &ShapeMap) -> String {
    let mut entries: Vec<(&String, &Vec<usize>)> = shapes.iter().collect();
    entries.sort();
    format!("{group:?}|{entries:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_values_fall_through_the_directory_chain() {
        let default = resolve_dir(None, None);
        assert_eq!(default.file_name().unwrap(), "snowflake-cache");
        assert_eq!(resolve_dir(None, Some(OsString::new())), default);
        assert_eq!(resolve_dir(Some(PathBuf::new()), None), default);
        assert_eq!(
            resolve_dir(None, Some("env-dir".into())),
            PathBuf::from("env-dir")
        );
        assert_eq!(
            resolve_dir(Some("explicit".into()), Some("env-dir".into())),
            PathBuf::from("explicit")
        );
    }

    #[test]
    fn hash_separates_parts() {
        assert_ne!(hash([&b"ab"[..], b"c"]), hash([&b"a"[..], b"bc"]));
        assert_eq!(hash([&b"ab"[..], b"c"]), hash([&b"ab"[..], b"c"]));
    }

    #[test]
    fn put_replaces_atomically_and_leaves_no_staging_file() {
        let dir = std::env::temp_dir().join(format!("snowflake-store-put-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::new(Some(dir.clone()));
        store.put("a.txt", b"one").unwrap();
        store.put("a.txt", b"two").unwrap();
        assert_eq!(std::fs::read(store.path("a.txt")).unwrap(), b"two");
        assert_eq!(dir.read_dir().unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
