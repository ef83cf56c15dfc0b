//! Shared experiment scaffolding: output locations, table printing, and
//! series export.

use std::fs;
use std::path::{Path, PathBuf};

use simkit::series::TimeSeries;
use simkit::stats::Summary;

/// Where experiment CSVs land (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes `content` under the results directory; ignores I/O failures
/// (tests may run in read-only sandboxes).
pub(crate) fn write_result(name: &str, content: &str) {
    let path = results_dir().join(name);
    if fs::write(&path, content).is_ok() {
        println!("  wrote {}", display_path(&path));
    }
}

fn display_path(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Prints a fixed-width table with a title.
pub(crate) fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<w$}", w = widths[i]))
        .collect();
    println!("  {}", header_line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", line.join("  "));
    }
}

/// `mean ± std` cell formatting from a [`Summary`].
pub(crate) fn mean_std(summary: &Summary, digits: usize) -> String {
    format!("{:.d$} ± {:.d$}", summary.mean, summary.std_dev, d = digits)
}

/// Prints a coarse ASCII sparkline of a series (for quick terminal
/// inspection of the figure shapes).
pub(crate) fn sparkline(label: &str, series: &TimeSeries, buckets: usize) {
    if series.is_empty() || buckets == 0 {
        println!("  {label}: (empty)");
        return;
    }
    let samples: Vec<f64> = series.values().collect();
    let chunk = samples.len().div_ceil(buckets);
    let glyphs: &[char] = &['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let values: Vec<f64> = samples
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    let line: String = values
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * (glyphs.len() - 1) as f64).round() as usize;
            glyphs[idx.min(glyphs.len() - 1)]
        })
        .collect();
    println!("  {label:<26} {line}  [{min:.1} .. {max:.1}]");
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::time::SimTime;

    #[test]
    fn mean_std_formats() {
        let s = Summary::of(&[1.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!(mean_std(&s, 2), "2.00 ± 0.82");
    }

    #[test]
    fn sparkline_handles_empty_and_flat() {
        sparkline("empty", &TimeSeries::new(), 10);
        let flat: TimeSeries = (0..10).map(|i| (SimTime::from_secs(i * 60), 5.0)).collect();
        sparkline("flat", &flat, 5);
    }

    #[test]
    fn print_table_is_robust_to_ragged_rows() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into()], vec!["22".into(), "333".into()]],
        );
    }
}
