//! The paper's figures and tables as values.
//!
//! A [`Figure`] is a name, the sweeps that produce its points, and a pure
//! report that turns the finished records into printed tables and a
//! results value. The `figures` binary runs any registered figure by name:
//! it runs the sweeps in order, hands every record to the report in
//! submission order, prints the text and writes the results beside the
//! sweep artifacts. Because a report reads nothing but the arguments,
//! module constants and the records, it gives the same tables for records
//! loaded from a journal or an artifact as for records just simulated.
//!
//! Each figure is a module under `figures/` that exports its `NAME`, its
//! `points` and its `report`; the [`FIGURES`] registry at the end of this
//! file is the one list of them.

use crate::sweep::{RunRecord, Sweep};
use crate::Args;
use serde::Serialize;
use std::fmt::Write as _;

/// One figure or table of the evaluation.
pub struct Figure {
    /// The name `figures <name>` runs; also the stem of its first sweep's
    /// artifact.
    pub name: &'static str,
    /// The sweeps that produce the figure's points, in the order they run
    /// (none for a table of constants).
    pub points: fn(&Args) -> Vec<Sweep>,
    /// The tables and results of the records of every sweep, concatenated
    /// in submission order.
    pub report: fn(&Args, &[RunRecord]) -> Report,
}

/// What a figure's report makes of its records.
pub struct Report {
    /// The tables, printed to stdout.
    pub text: String,
    /// The results file's stem and contents, written to `<out>/<stem>.json`
    /// after the text is printed; `None` writes no file.
    pub results: Option<(&'static str, serde::Value)>,
    /// The figure's own check, printed once the results are written: `Ok`
    /// to stdout; `Err` to stderr, and the run fails.
    pub verdict: Result<&'static str, &'static str>,
}

impl Report {
    /// A report whose text starts with `header`, with no results and no
    /// check of its own.
    pub fn new(header: impl Into<String>) -> Report {
        Report {
            text: header.into(),
            results: None,
            verdict: Ok(""),
        }
    }

    /// A report headed `<title> (scale N)`, N the run's `--scale`.
    pub fn scaled(title: &str, args: &Args) -> Report {
        Report::new(format!("{title} (scale {})\n", args.scale))
    }

    /// Appends an aligned table.
    pub fn table(&mut self, title: &str, headers: &[&str], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let header: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
        let text = &mut self.text;
        let _ = writeln!(text, "\n== {title} ==");
        for row in std::iter::once(&header).chain(rows) {
            for (i, cell) in row.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(8) + 2;
                let _ = write!(text, "{cell:>w$}");
            }
            text.push('\n');
        }
    }

    /// This report with `value` as its results, saved as `<out>/<stem>.json`.
    pub fn save(self, stem: &'static str, value: &impl Serialize) -> Report {
        Report {
            results: Some((stem, value.to_content())),
            ..self
        }
    }
}

/// Declares each figure's module and lists its `NAME`, `points` and
/// `report` in [`FIGURES`], in the order given.
macro_rules! figures {
    ($($module:ident),* $(,)?) => {
        $(mod $module;)*

        /// Every figure, in the order `figures --list` prints them.
        pub const FIGURES: &[Figure] = &[$(Figure {
            name: $module::NAME,
            points: $module::points,
            report: $module::report,
        }),*];
    };
}

figures![
    table1_idc_methods,
    table2_serdes,
    fig01_motivation,
    fig10_p2p,
    fig11_breakdown,
    fig12_broadcast,
    fig13_energy,
    fig14_sync,
    fig15_polling,
    fig16_bandwidth,
    fig17_topology,
    ablation_sched,
    ablation_profile,
    ablation_fidelity,
    ext_disaggregated,
];
