//! Scratch space for checkpoint stores and span files.
//!
//! Everything the benchmark writes lives under `<target dir>/perf_bench_scratch`,
//! next to the build outputs (so inside the checkout, and already ignored by
//! git). The directory is emptied when a run starts, which also clears
//! whatever a killed earlier run left behind, and the checkpoint stores are
//! removed again when the run succeeds; the span files stay for inspection.
//! A stale store lock that survives inside a copied template is reclaimed by
//! the library's own dead-pid probe.

use std::io;
use std::path::{Path, PathBuf};

pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Empties and re-creates the scratch directory.
    pub fn fresh() -> io::Result<Self> {
        // `<target>/release/perf_bench` -> `<target>/perf_bench_scratch`.
        let exe = std::env::current_exe()?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or_else(|| io::Error::other("the executable has no target directory"))?;
        let root = target.join("perf_bench_scratch");
        remove_dir(&root)?;
        std::fs::create_dir_all(root.join("stores"))?;
        Ok(Self { root })
    }

    /// A path for one checkpoint store (not created).
    pub fn store(&self, name: &str) -> PathBuf {
        self.root.join("stores").join(name)
    }

    pub fn trace_file(&self, workload: &str) -> PathBuf {
        self.root.join(format!("trace-{workload}.json"))
    }

    /// Removes every checkpoint store; called when the run succeeded.
    pub fn remove_stores(&self) -> io::Result<()> {
        remove_dir(&self.root.join("stores"))
    }
}

pub fn remove_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Clones a checkpoint store by hard-linking its files. The library never
/// rewrites a store file in place (it writes a temporary and renames, and
/// prunes by deleting), so the clone is as good as a copy and costs the
/// shared disk no data writes.
pub fn clone_store(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            clone_store(&entry.path(), &target)?;
        } else {
            std::fs::hard_link(entry.path(), &target)?;
        }
    }
    Ok(())
}
