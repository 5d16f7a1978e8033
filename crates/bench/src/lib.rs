//! Shared harness for the experiment benches.
//!
//! Every table and figure of the paper has a corresponding bench target
//! under `benches/` (run with `cargo bench`, or individually with
//! `cargo bench --bench fig3_memsize_sweep`). Each target prints the
//! paper's rows/series as an aligned text table and writes a CSV copy to
//! `target/gms-results/`.
//!
//! The environment variable `GMS_SCALE` (default `1.0` — paper-fidelity
//! reference counts) scales the synthetic traces down for quick runs,
//! e.g. `GMS_SCALE=0.1 cargo bench`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

pub use gms_core::{
    ClusterReport, ClusterSim, FaultPlan, FetchPolicy, MemoryConfig, PipelineStrategy,
    ReplicationConfig, RunReport, SimConfig, SimConfigBuilder, Simulator, Sweep, SweepCell,
    SweepResults,
};
pub use gms_mem::SubpageSize;
pub use gms_trace::apps::{self, AppProfile};

/// The trace scale for this bench run, from `GMS_SCALE` (default 1.0).
///
/// # Panics
///
/// Panics if `GMS_SCALE` is set but not a positive number.
#[must_use]
pub fn scale() -> f64 {
    match std::env::var("GMS_SCALE") {
        Ok(v) => {
            let s: f64 = v.parse().expect("GMS_SCALE must be a number");
            assert!(s > 0.0, "GMS_SCALE must be positive");
            s
        }
        Err(_) => 1.0,
    }
}

/// Runs `app` under `policy` and `memory` with paper-default settings.
#[must_use]
pub fn run(app: &AppProfile, policy: FetchPolicy, memory: MemoryConfig) -> RunReport {
    Simulator::new(SimConfig::builder().policy(policy).memory(memory).build()).run(app)
}

/// Worker threads for grid benches: `GMS_JOBS` if set, else every
/// available core. The reports are identical at any worker count, so
/// this only affects wall-clock time.
///
/// # Panics
///
/// Panics if `GMS_JOBS` is set but not a positive integer.
#[must_use]
pub fn jobs() -> usize {
    match std::env::var("GMS_JOBS") {
        Ok(v) => {
            let n: usize = v.parse().expect("GMS_JOBS must be an integer");
            assert!(n >= 1, "GMS_JOBS must be at least 1");
            n
        }
        Err(_) => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Runs a policy × memory grid on the parallel sweep executor with
/// paper-default settings and [`jobs`] workers.
#[must_use]
pub fn sweep_grid(
    app: &AppProfile,
    policies: impl IntoIterator<Item = FetchPolicy>,
    memories: impl IntoIterator<Item = MemoryConfig>,
) -> SweepResults {
    Sweep::new(app.clone())
        .policies(policies)
        .memories(memories)
        .run_parallel(jobs())
        .expect("a sweep without a trace directory writes no files")
}

/// [`sweep_grid`] with extra per-cell configuration (network,
/// replacement, …).
#[must_use]
pub fn sweep_grid_configured(
    app: &AppProfile,
    policies: impl IntoIterator<Item = FetchPolicy>,
    memories: impl IntoIterator<Item = MemoryConfig>,
    configure: impl Fn(SimConfigBuilder) -> SimConfigBuilder + Send + Sync + 'static,
) -> SweepResults {
    Sweep::new(app.clone())
        .policies(policies)
        .memories(memories)
        .configure(configure)
        .run_parallel(jobs())
        .expect("a sweep without a trace directory writes no files")
}

/// Where result CSVs are written.
#[must_use]
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/gms-results");
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// A printable, CSV-exportable results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given title and column headers.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout and writes `<name>.csv` to
    /// [`out_dir`].
    pub fn emit(&self, name: &str) {
        print!("{}", self.render());
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        let path = out_dir().join(format!("{name}.csv"));
        fs::write(&path, csv).expect("write csv");
        println!("[csv: {}]", path.display());
    }
}

/// Formats a millisecond value.
#[must_use]
pub fn ms(d: gms_units::Duration) -> String {
    format!("{:.2}", d.as_millis_f64())
}

/// Formats a fraction as a percentage.
#[must_use]
pub fn pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_aligns() {
        let mut t = Table::new("demo", &["col", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn short_row_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn helpers_format() {
        assert_eq!(ms(gms_units::Duration::from_micros(1520)), "1.52");
        assert_eq!(pct(0.256), "25.6%");
    }

    #[test]
    fn default_scale_is_paper_fidelity() {
        if std::env::var("GMS_SCALE").is_err() {
            assert_eq!(scale(), 1.0);
        }
    }
}
