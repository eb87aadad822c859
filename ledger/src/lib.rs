//! The perf ledger: vericlick's benchmark. See `README.md`.

pub mod clock;
pub mod compare;
pub mod expected;
pub mod harness;
pub mod layers;
pub mod metrics;
pub mod minijson;
pub mod oracle;
pub mod rss;
pub mod run;
pub mod stats;
pub mod trace;
pub mod variants;
pub mod workloads;

/// The directory the executable was built into: inside the checkout,
/// ignored by git — where traces and probe scratch files go.
pub fn build_dir() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    exe.parent()
        .map(std::path::Path::to_path_buf)
        .ok_or_else(|| "the executable has no directory".to_string())
}
