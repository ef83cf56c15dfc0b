//! Plain-text (CSV) export of recorded series.
//!
//! The experiment harness writes each figure's data to `results/*.csv` so
//! the paper's plots can be regenerated with any plotting tool.

use std::fmt::Write as _;

use simkit::series::TimeSeries;

use crate::tsdb::Tsdb;

/// Renders one series as `time_s,value` lines with a header.
pub fn series_to_csv(name: &str, series: &TimeSeries) -> String {
    let mut out = String::with_capacity(series.len() * 16 + 32);
    let _ = writeln!(out, "time_s,{name}");
    for (at, value) in series.iter() {
        let _ = writeln!(out, "{},{}", at.as_secs(), value);
    }
    out
}

/// Renders several aligned series as one wide CSV: a `time_s` column plus
/// one column per `(label, series)` pair. Rows are the union of all
/// timestamps; missing values are left empty.
pub fn aligned_csv(columns: &[(&str, &TimeSeries)]) -> String {
    let mut times: Vec<u64> = columns
        .iter()
        .flat_map(|(_, s)| s.iter().map(|(at, _)| at.as_secs()))
        .collect();
    times.sort_unstable();
    times.dedup();

    let mut out = String::new();
    let header: Vec<&str> = columns.iter().map(|(label, _)| *label).collect();
    let _ = writeln!(out, "time_s,{}", header.join(","));
    for t in times {
        let _ = write!(out, "{t}");
        for (_, series) in columns {
            let v = series
                .iter()
                .find(|(at, _)| at.as_secs() == t)
                .map(|(_, v)| v);
            match v {
                Some(v) => {
                    let _ = write!(out, ",{v}");
                }
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// Dumps an entire [`Tsdb`] as long-form CSV:
/// `metric,subject,time_s,value`.
pub fn tsdb_to_csv(db: &Tsdb) -> String {
    let mut out = String::from("metric,subject,time_s,value\n");
    for (metric, subject, series) in db.iter() {
        for (at, value) in series.iter() {
            let _ = writeln!(out, "{metric},{subject},{},{value}", at.as_secs());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::time::SimTime;

    fn series(pairs: &[(u64, f64)]) -> TimeSeries {
        pairs
            .iter()
            .map(|&(s, v)| (SimTime::from_secs(s), v))
            .collect()
    }

    #[test]
    fn single_series_csv() {
        let s = series(&[(0, 1.5), (60, 2.0)]);
        let csv = series_to_csv("power_w", &s);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines, vec!["time_s,power_w", "0,1.5", "60,2"]);
    }

    #[test]
    fn aligned_csv_unions_timestamps() {
        let a = series(&[(0, 1.0), (60, 2.0)]);
        let b = series(&[(60, 20.0), (120, 30.0)]);
        let csv = aligned_csv(&[("a", &a), ("b", &b)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,a,b");
        assert_eq!(lines[1], "0,1,");
        assert_eq!(lines[2], "60,2,20");
        assert_eq!(lines[3], "120,,30");
    }

    #[test]
    fn tsdb_dump_contains_all_samples() {
        let mut db = Tsdb::new();
        db.record("m1", "s1", SimTime::from_secs(0), 1.0);
        db.record("m2", "s2", SimTime::from_secs(5), 2.0);
        let csv = tsdb_to_csv(&db);
        assert!(csv.contains("m1,s1,0,1"));
        assert!(csv.contains("m2,s2,5,2"));
        assert_eq!(csv.lines().count(), 3);
    }
}
