//! Samples, percentiles, the metric table, JSON emission and the
//! recorded environment — the one copy of each for this benchmark.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// The `p`-quantile (`0.0..=1.0`) of an ascending slice, linearly
/// interpolated between the two nearest ranks; NaN when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Measured values of one quantity, in the unit its metric reports.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// Records a duration in microseconds.
    pub fn push_us(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.len() as f64
    }

    pub fn percentile(&self, p: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// The smallest sample; NaN when empty.
    pub fn min(&self) -> f64 {
        self.0.iter().copied().fold(f64::NAN, f64::min)
    }

    /// The largest sample; NaN when empty.
    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(f64::NAN, f64::max)
    }

    /// The second-smallest sample (the only one of a single sample; NaN
    /// when empty).
    pub fn second_min(&self) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
            .get(1)
            .or(sorted.first())
            .copied()
            .unwrap_or(f64::NAN)
    }

    /// The second-largest sample (the only one of a single sample; NaN
    /// when empty).
    pub fn second_max(&self) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
            .iter()
            .rev()
            .nth(1)
            .or(sorted.last())
            .copied()
            .unwrap_or(f64::NAN)
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (operations, batches or windows for an
    /// end-to-end metric or a percentile, 1 for a count).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
    /// Checked operations, and how many of them failed or answered wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable notes (mismatch descriptions, count drift).
    pub notes: Vec<String>,
}

impl Report {
    /// A run is correct when nothing failed and every value is a finite
    /// number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line the driver reads: one JSON object with exactly
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{}` prints the shortest digits that round-trip, i.e. the
            // value as measured; non-finite values are not valid JSON.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The table a person reads: every metric by name with its unit and
    /// the sample count next to it.
    pub fn print_table(&self, env: &Env, why: &str) {
        println!("== workload {}: {why} ==", self.workload);
        println!("{env}");
        println!(
            "{:<44} {:>18} {:<8} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            println!(
                "{:<44} {:>18.6} {:<8} {:>8}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "checked operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for note in &self.notes {
            println!("note: {note}");
        }
    }
}

/// Whether a result line (see [`Report::to_json`]) says `correct`.
pub fn result_is_correct(line: &str) -> bool {
    line.starts_with("{\"correct\": true,")
}

/// The value of metric `name` in a result line.
pub fn result_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Where and how a result was measured, printed with every result.
#[derive(Debug, Clone)]
pub struct Env {
    pub host_cores: usize,
    pub commit: String,
    pub scale: f64,
    pub seed: u64,
    pub sync_policy: &'static str,
    pub data_dir: String,
    pub data_dir_fs: String,
    pub ingest_parallelism: usize,
    pub query_parallelism: usize,
}

impl std::fmt::Display for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "env: cores={} commit={} sf={} seed={} sync_policy={} data_dir={} ({}) \
             ingest_parallelism={} query_parallelism={}",
            self.host_cores,
            self.commit,
            self.scale,
            self.seed,
            self.sync_policy,
            self.data_dir,
            self.data_dir_fs,
            self.ingest_parallelism,
            self.query_parallelism
        )
    }
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `git rev-parse HEAD`, or "unknown" outside a git checkout.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`), or "unknown".
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype.to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Total bytes of the regular files directly inside `dir` whose names
/// end in `suffix` (`""` for all of them).
pub fn dir_bytes(dir: &Path, suffix: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn second_extremes_skip_one_outlier() {
        let mut s = Samples::default();
        assert!(s.second_min().is_nan() && s.second_max().is_nan());
        s.push(5.0);
        assert_eq!((s.second_min(), s.second_max()), (5.0, 5.0));
        for v in [0.1, 9.0, 4.0, 90.0] {
            s.push(v);
        }
        assert_eq!((s.min(), s.second_min()), (0.1, 4.0));
        assert_eq!((s.max(), s.second_max()), (90.0, 9.0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            workload: "w",
            metrics: vec![Metric::new("setup_s", 0.5, "s", 3)],
            attempted: 10,
            failed: 0,
            notes: Vec::new(),
        };
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_result_line_reads_back() {
        let report = Report {
            workload: "w",
            metrics: vec![
                Metric::new("setup_s", 0.5, "s", 3),
                Metric::new("path_p50_us", 3047.4545, "us", 200),
            ],
            attempted: 10,
            failed: 0,
            notes: Vec::new(),
        };
        let line = report.to_json();
        assert!(result_is_correct(&line));
        assert_eq!(result_value(&line, "setup_s"), Some(0.5));
        assert_eq!(result_value(&line, "path_p50_us"), Some(3047.4545));
        assert_eq!(result_value(&line, "p50_us"), None);
    }

    #[test]
    fn a_non_finite_value_is_incorrect() {
        let report = Report {
            workload: "w",
            metrics: vec![Metric::new("x", f64::NAN, "s", 0)],
            attempted: 1,
            failed: 0,
            notes: Vec::new(),
        };
        assert!(!report.correct());
    }
}
