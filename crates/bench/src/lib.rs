//! # mic-bench — experiment harnesses
//!
//! [`figures`] regenerates the paper's figures and tables on the
//! simulator, one function per artifact; the `figures` binary prints them.
//! Five report binaries measure the native executor, the tuner and the
//! schedulers. Every binary prints its rows on stdout and exits 0; figures
//! also write a CSV under `results/` (override with the `RESULTS_DIR`
//! environment variable). No binary gates anything: every pass/fail
//! property lives in a test.
//!
//! | binary | artifact |
//! |---|---|
//! | `figures` | Figs. 5–11, Sec. V-C and the extensions of [`figures`], by id |
//! | `native_overlap_study` | (ext) Fig. 6 regimes on the native executor |
//! | `native_vs_sim_trace` | (ext) same program, sim vs traced-native overlap |
//! | `autotune` | (ext) closed-loop `(T, P)` tuning: exhaustive vs pruned vs model-seeded, sim + native |
//! | `bench_sched` | (ext) FIFO vs HEFT vs work stealing, apps and synthetic rigs, sim + native |
//! | `chaos` | (ext) cost of transfer retries and of a lost partition on streamed MM |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

pub mod figures;

/// One plotted series: a name and `(x-label, value)` points.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend name.
    pub name: String,
    /// `(x, y)` points; `x` is kept textual so dataset labels like
    /// `"6000^2"` survive.
    pub points: Vec<(String, f64)>,
}

impl Series {
    /// Create an empty series.
    pub fn new(name: impl Into<String>) -> Series {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: impl std::fmt::Display, y: f64) {
        self.points.push((x.to_string(), y));
    }
}

/// A figure: titled collection of series over a common x-axis.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Identifier, e.g. `"fig05"`. Also the CSV file stem.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Axis labels.
    pub x_label: String,
    /// Unit of the values.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Create an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Figure {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a series.
    pub fn add(&mut self, series: Series) {
        self.series.push(series);
    }

    /// The value of `series` in row `x`, if the figure has one.
    pub fn value(&self, series: &str, x: impl std::fmt::Display) -> Option<f64> {
        let x = x.to_string();
        let series = self.series.iter().find(|s| s.name == series)?;
        series
            .points
            .iter()
            .find(|(px, _)| *px == x)
            .map(|&(_, y)| y)
    }

    /// Render as a markdown table (series as columns, x as rows).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        out.push_str(&format!("| {} |", self.x_label));
        for s in &self.series {
            out.push_str(&format!(" {} ({}) |", s.name, self.y_label));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &self.series {
            out.push_str("---|");
        }
        out.push('\n');
        let rows = self
            .series
            .iter()
            .map(|s| s.points.len())
            .max()
            .unwrap_or(0);
        for r in 0..rows {
            let x = self
                .series
                .iter()
                .find_map(|s| s.points.get(r).map(|(x, _)| x.clone()))
                .unwrap_or_default();
            out.push_str(&format!("| {x} |"));
            for s in &self.series {
                match s.points.get(r) {
                    Some((_, y)) => out.push_str(&format!(" {y:.4} |")),
                    None => out.push_str(" - |"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV (`x,series1,series2,...`).
    pub fn to_csv(&self) -> String {
        let mut out = self.x_label.to_string();
        for s in &self.series {
            out.push_str(&format!(",{}", s.name));
        }
        out.push('\n');
        let rows = self
            .series
            .iter()
            .map(|s| s.points.len())
            .max()
            .unwrap_or(0);
        for r in 0..rows {
            let x = self
                .series
                .iter()
                .find_map(|s| s.points.get(r).map(|(x, _)| x.clone()))
                .unwrap_or_default();
            out.push_str(&x);
            for s in &self.series {
                match s.points.get(r) {
                    Some((_, y)) => out.push_str(&format!(",{y}")),
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Print the markdown table and write `<id>.csv` to the results dir.
    pub fn emit(&self) {
        println!("{}", self.to_markdown());
        let dir = results_dir();
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{}.csv", self.id));
        match fs::File::create(&path) {
            Ok(mut f) => {
                if let Err(e) = f.write_all(self.to_csv().as_bytes()) {
                    eprintln!("warning: write {} failed: {e}", path.display());
                } else {
                    println!("[wrote {}]\n", path.display());
                }
            }
            Err(e) => eprintln!("warning: create {} failed: {e}", path.display()),
        }
    }
}

/// Where CSVs land: `$RESULTS_DIR` or `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut fig = Figure::new("figX", "test", "x", "ms");
        let mut a = Series::new("a");
        a.push(1, 10.0);
        a.push(2, 20.0);
        let mut b = Series::new("b");
        b.push(1, 1.5);
        fig.add(a);
        fig.add(b);
        fig
    }

    #[test]
    fn markdown_has_all_series() {
        let md = sample().to_markdown();
        assert!(md.contains("| x | a (ms) | b (ms) |"));
        assert!(md.contains("| 1 | 10.0000 | 1.5000 |"));
        assert!(md.contains("| 2 | 20.0000 | - |"), "{md}");
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert_eq!(lines[1], "1,10,1.5");
        assert_eq!(lines[2], "2,20,");
    }

    #[test]
    fn results_dir_env_override() {
        // No env manipulation (tests run in parallel); just check default.
        assert!(results_dir().ends_with("results") || results_dir().is_absolute());
    }
}
