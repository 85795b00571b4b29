//! Exposition encoders: Prometheus text format and JSON.
//!
//! Metric names in the registry are dotted lowercase paths
//! (`storage.pool.physical_reads`). The Prometheus encoder maps them to
//! `cij_storage_pool_physical_reads` (dots → underscores, `cij_`
//! prefix); histograms are exposed as summaries (p50/p95/p99 quantiles
//! plus `_sum`/`_count`). The JSON encoder keeps the dotted names
//! verbatim. Both outputs are deterministic: the snapshot is
//! name-sorted and the encoders add nothing unordered.

use std::fmt::Write as _;

use crate::registry::MetricsSnapshot;

fn prom_name(dotted: &str) -> String {
    let mut out = String::with_capacity(dotted.len() + 4);
    out.push_str("cij_");
    for ch in dotted.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// `f64` in a form Prometheus accepts (no trailing-zero trimming needed;
/// `{:e}`-free plain formatting).
fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

impl MetricsSnapshot {
    /// Encodes the snapshot in the Prometheus text exposition format.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} counter");
            let _ = writeln!(out, "{p} {value}");
        }
        for (name, value) in &self.gauges {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} gauge");
            let _ = writeln!(out, "{p} {value}");
        }
        for (name, hist) in &self.histograms {
            let p = prom_name(name);
            let _ = writeln!(out, "# TYPE {p} summary");
            for (q, v) in [
                ("0.5", hist.p50()),
                ("0.95", hist.p95()),
                ("0.99", hist.p99()),
            ] {
                let _ = writeln!(out, "{p}{{quantile=\"{q}\"}} {}", prom_f64(v));
            }
            let _ = writeln!(out, "{p}_sum {}", hist.sum);
            let _ = writeln!(out, "{p}_count {}", hist.count);
        }
        out
    }

    /// Encodes the snapshot as a JSON object with `counters`, `gauges`
    /// and `histograms` sections (dotted metric names as keys).
    #[must_use]
    pub fn to_json(&self) -> String {
        fn entries<T, F: Fn(&T) -> String>(items: &[(String, T)], fmt: F) -> String {
            let body: Vec<String> = items
                .iter()
                .map(|(name, v)| format!("\"{name}\": {}", fmt(v)))
                .collect();
            format!("{{{}}}", body.join(", "))
        }
        let counters = entries(&self.counters, u64::to_string);
        let gauges = entries(&self.gauges, i64::to_string);
        let histograms = entries(&self.histograms, |h| {
            format!(
                "{{\"count\": {}, \"sum\": {}, \"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}, \"mean\": {:.1}}}",
                h.count,
                h.sum,
                h.p50(),
                h.p95(),
                h.p99(),
                h.mean()
            )
        });
        format!("{{\"counters\": {counters}, \"gauges\": {gauges}, \"histograms\": {histograms}}}")
    }
}

/// Validates a Prometheus text exposition: every line must be a comment
/// (`# …`), blank, or a `name[{labels}] value` sample with a legal
/// metric name and a parseable value. Returns the number of samples.
///
/// This is the checker the metrics-conservation tests of every layer
/// run over their own registry's output — a regression in the encoder
/// fails fast instead of producing an exposition a real scraper would
/// reject.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = match line.find('{') {
            Some(brace) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {}: unclosed label braces", lineno + 1))?;
                if close < brace {
                    return Err(format!("line {}: malformed labels", lineno + 1));
                }
                (&line[..brace], line[close + 1..].trim())
            }
            None => match line.split_once(' ') {
                Some((n, v)) => (n, v.trim()),
                None => return Err(format!("line {}: no value", lineno + 1)),
            },
        };
        if !valid_name(name_part.trim()) {
            return Err(format!(
                "line {}: invalid metric name {:?}",
                lineno + 1,
                name_part
            ));
        }
        let value = value_part.trim();
        let parses = value.parse::<f64>().is_ok() || matches!(value, "+Inf" | "-Inf" | "NaN");
        if !parses {
            return Err(format!(
                "line {}: unparseable value {:?}",
                lineno + 1,
                value
            ));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_name_sanitizes() {
        assert_eq!(prom_name("a.b-c.d"), "cij_a_b_c_d");
    }

    #[test]
    fn validator_accepts_good_rejects_bad() {
        assert_eq!(validate_prometheus("# just a comment\n").unwrap(), 0);
        assert_eq!(
            validate_prometheus("# TYPE cij_x counter\ncij_x 5\n").unwrap(),
            1
        );
        assert_eq!(
            validate_prometheus("cij_s{quantile=\"0.5\"} 1.5\ncij_s_count 2\n").unwrap(),
            2
        );
        assert!(validate_prometheus("0badname 5\n").is_err());
        assert!(validate_prometheus("cij_x five\n").is_err());
        assert!(validate_prometheus("cij_x{quantile=\"0.5\" 1\n").is_err());
        assert!(validate_prometheus("lonely_line_without_value\n").is_err());
    }
}
