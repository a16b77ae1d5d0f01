//! Figure results: named series over an x-axis, rendered as text or CSV.

use std::fmt::Write as _;

/// One curve in a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label (the policy name, usually).
    pub name: String,
    /// One y value per x-axis point.
    pub values: Vec<f64>,
}

impl Series {
    /// Construct a series.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Self {
        Series {
            name: name.into(),
            values,
        }
    }

    /// Mean of the values (used for "average over shift-ids" claims).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

/// A reproduced figure (or sub-figure): x-axis labels plus series.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureResult {
    /// Identifier, e.g. `"fig2a"`.
    pub id: String,
    /// Human title, e.g. `"Cache hit rate (%) vs S_T/S_DB"`.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// X-axis tick labels.
    pub x: Vec<String>,
    /// The curves.
    pub series: Vec<Series>,
}

impl FigureResult {
    /// Construct a figure result; every series must match the x-axis
    /// length.
    ///
    /// # Panics
    /// On series/x length mismatch.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        x: Vec<String>,
        series: Vec<Series>,
    ) -> Self {
        let fig = FigureResult {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            x,
            series,
        };
        for s in &fig.series {
            assert_eq!(
                s.values.len(),
                fig.x.len(),
                "series '{}' length mismatch in {}",
                s.name,
                fig.id
            );
        }
        fig
    }

    /// Find a series by name.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Render as an aligned text table (values as percentages with one
    /// decimal when ≤ 1.0-scaled rates, else raw with three decimals).
    pub fn to_text_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let name_w = self
            .series
            .iter()
            .map(|s| s.name.len())
            .chain([self.x_label.len()])
            .max()
            .unwrap_or(8)
            .max(8);
        let col_w = self.x.iter().map(|x| x.len()).max().unwrap_or(6).max(7);
        let _ = write!(out, "{:<name_w$}", self.x_label);
        for x in &self.x {
            let _ = write!(out, "  {x:>col_w$}");
        }
        let _ = writeln!(out);
        for s in &self.series {
            let _ = write!(out, "{:<name_w$}", s.name);
            for v in &s.values {
                let cell = format_value(*v);
                let _ = write!(out, "  {cell:>col_w$}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render each series as a unicode sparkline — the readable form for
    /// figures with hundreds of x points (the windowed hit-rate series of
    /// Figures 6.b and 7.b). Values are normalized over the figure's
    /// global min/max, printed alongside each series' first/min/max/last.
    pub fn to_sparklines(&self) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let all: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.values.iter().copied())
            .collect();
        let lo = all.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = all.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(1e-12);
        let name_w = self.series.iter().map(|s| s.name.len()).max().unwrap_or(8);
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let _ = writeln!(
            out,
            "{} points per series; bars span {} .. {}",
            self.x.len(),
            format_value(lo),
            format_value(hi)
        );
        for s in &self.series {
            let _ = write!(out, "{:<name_w$}  ", s.name);
            for &v in &s.values {
                let idx = (((v - lo) / span) * (BARS.len() - 1) as f64).round() as usize;
                out.push(BARS[idx.min(BARS.len() - 1)]);
            }
            let smin = s.values.iter().cloned().fold(f64::INFINITY, f64::min);
            let smax = s.values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let _ = writeln!(
                out,
                "  first {} min {} max {} last {}",
                format_value(*s.values.first().unwrap_or(&0.0)),
                format_value(smin),
                format_value(smax),
                format_value(*s.values.last().unwrap_or(&0.0)),
            );
        }
        out
    }

    /// Render as a GitHub-flavored markdown table (policies as rows, one
    /// column per x point) — the form EXPERIMENTS.md embeds.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}", self.id, self.title);
        let _ = writeln!(out);
        let _ = write!(out, "| {} |", self.x_label);
        for x in &self.x {
            let _ = write!(out, " {x} |");
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.x {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for s in &self.series {
            let _ = write!(out, "| {} |", s.name);
            for v in &s.values {
                let _ = write!(out, " {} |", format_value(*v));
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render as CSV: header `x,<series...>`, one row per x point.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", csv_escape(&self.x_label));
        for s in &self.series {
            let _ = write!(out, ",{}", csv_escape(&s.name));
        }
        let _ = writeln!(out);
        for (i, x) in self.x.iter().enumerate() {
            let _ = write!(out, "{}", csv_escape(x));
            for s in &self.series {
                let _ = write!(out, ",{}", s.values[i]);
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Rates in [0, 1] print as percentages; everything else as a plain float.
fn format_value(v: f64) -> String {
    if (0.0..=1.0).contains(&v) {
        format!("{:.1}%", v * 100.0)
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureResult {
        FigureResult::new(
            "figX",
            "demo",
            "S_T/S_DB",
            vec!["0.1".into(), "0.2".into()],
            vec![
                Series::new("LRU-2", vec![0.25, 0.5]),
                Series::new("Random", vec![0.1, 0.2]),
            ],
        )
    }

    #[test]
    fn text_table_contains_everything() {
        let t = sample().to_text_table();
        assert!(t.contains("figX"));
        assert!(t.contains("LRU-2"));
        assert!(t.contains("25.0%"));
        assert!(t.contains("50.0%"));
    }

    #[test]
    fn sparklines_render() {
        let fig = FigureResult::new(
            "wide",
            "windowed",
            "request",
            (1..=40).map(|i| i.to_string()).collect(),
            vec![Series::new(
                "policy",
                (0..40).map(|i| i as f64 / 39.0).collect(),
            )],
        );
        let s = fig.to_sparklines();
        assert!(s.contains("▁"));
        assert!(s.contains("█"));
        assert!(s.contains("40 points per series"));
        assert!(s.contains("first 0.0% "));
    }

    #[test]
    fn markdown_table_shape() {
        let md = sample().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert!(lines[0].starts_with("### figX"));
        assert_eq!(lines[2], "| S_T/S_DB | 0.1 | 0.2 |");
        assert_eq!(lines[3], "|---|---|---|");
        assert_eq!(lines[4], "| LRU-2 | 25.0% | 50.0% |");
        assert_eq!(lines.len(), 6);
    }

    #[test]
    fn csv_round_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "S_T/S_DB,LRU-2,Random");
        assert_eq!(lines[1], "0.1,0.25,0.1");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn series_mean() {
        assert!((Series::new("s", vec![0.2, 0.4]).mean() - 0.3).abs() < 1e-12);
        assert_eq!(Series::new("s", vec![]).mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_rejected() {
        FigureResult::new(
            "bad",
            "t",
            "x",
            vec!["1".into()],
            vec![Series::new("s", vec![0.1, 0.2])],
        );
    }

    #[test]
    fn series_lookup() {
        let fig = sample();
        assert!(fig.series_named("LRU-2").is_some());
        assert!(fig.series_named("nope").is_none());
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_value(0.123), "12.3%");
        assert_eq!(format_value(1.0), "100.0%");
        assert_eq!(format_value(42.5), "42.500");
        assert_eq!(format_value(12345.0), "12345");
    }
}
