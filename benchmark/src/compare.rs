//! `compare A.json B.json`: applies the benchmark's bounds to two
//! result files of `run`.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{self, Better, Bound};
use crate::stats::iqr_share;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (timings) or identical (counts).
    Ok,
    Improved,
    Regressed,
    /// A count that must repeat exactly did not.
    Differs,
    /// The passes' own inter-quartile spread exceeds the bound, so the
    /// medians cannot settle the question either way.
    Unresolved,
    /// Reported without a bound.
    Info,
    /// Present in one file only.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Improved => "improved",
            Self::Regressed => "REGRESSED",
            Self::Differs => "DIFFERS",
            Self::Unresolved => "unresolved",
            Self::Info => "info",
            Self::Missing => "missing",
        }
    }
}

struct Sample {
    value: f64,
    unit: String,
    per_pass: Vec<f64>,
}

/// `workload → metric → sample` from a `results.json` (all workloads)
/// or a single workload's detail file.
fn load(path: &str) -> Result<BTreeMap<String, BTreeMap<String, Sample>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let results: Vec<&Json> = match (doc.get("workloads"), doc.get("result")) {
        (Some(w), _) => w.entries().iter().map(|(_, v)| v).collect(),
        (None, Some(r)) => vec![r],
        _ => {
            return Err(format!(
                "{path}: neither a results.json nor a workload file"
            ))
        }
    };
    let mut out = BTreeMap::new();
    for result in results {
        let name = result
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: result without a workload name"))?;
        let mut samples = BTreeMap::new();
        for section in ["end_to_end", "per_layer"] {
            let Some(section) = result.get(section) else {
                continue;
            };
            for (metric, m) in section.entries() {
                samples.insert(
                    metric.clone(),
                    Sample {
                        value: m
                            .get("value")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("{path}: {name}.{metric} has no value"))?,
                        unit: m
                            .get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        per_pass: m
                            .get("per_pass")
                            .and_then(Json::as_arr)
                            .map(|a| a.iter().filter_map(Json::as_f64).collect())
                            .unwrap_or_default(),
                    },
                );
            }
        }
        out.insert(name.to_string(), samples);
    }
    Ok(out)
}

/// Judges B against A under `bound`.
#[must_use]
pub fn judge(
    bound: Bound,
    better: Better,
    a: f64,
    b: f64,
    per_pass_a: &[f64],
    per_pass_b: &[f64],
) -> Verdict {
    match bound {
        Bound::None => Verdict::Info,
        Bound::Exact => {
            if (a - b).abs() <= 1e-12 * a.abs().max(b.abs()) {
                Verdict::Ok
            } else {
                Verdict::Differs
            }
        }
        Bound::Share(limit) => {
            if iqr_share(per_pass_a).max(iqr_share(per_pass_b)) > limit {
                return Verdict::Unresolved;
            }
            let worse = match better {
                Better::Lower => (b - a) / a.abs().max(f64::MIN_POSITIVE),
                Better::Higher => (a - b) / a.abs().max(f64::MIN_POSITIVE),
            };
            if worse > limit {
                Verdict::Regressed
            } else if worse < -limit {
                Verdict::Improved
            } else {
                Verdict::Ok
            }
        }
    }
}

/// Prints one row per workload × metric. Exit code 0 when nothing
/// regressed or differed, 1 when something did, 3 when the only trouble
/// is unresolved metrics, 2 on unreadable input.
pub fn compare(path_a: &str, path_b: &str) -> i32 {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!(
        "{:<13} {:<34} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "change", "spreadA", "spreadB"
    );
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (workload, metrics_a) in &a {
        let empty = BTreeMap::new();
        let metrics_b = b.get(workload).unwrap_or(&empty);
        let names: std::collections::BTreeSet<&String> =
            metrics_a.keys().chain(metrics_b.keys()).collect();
        // Table order first, anything the table does not know after it.
        let mut ordered: Vec<&String> = names.iter().copied().collect();
        let rank = |n: &String| {
            metrics::END_TO_END
                .iter()
                .chain(metrics::END_TO_END_COUNTS)
                .chain(metrics::PER_LAYER)
                .position(|d| d.name == n.as_str())
                .unwrap_or(usize::MAX)
        };
        ordered.sort_by_key(|n| rank(n));
        for name in ordered {
            let verdict = match (metrics_a.get(name), metrics_b.get(name)) {
                (Some(x), Some(y)) => {
                    let (bound, better) = metrics::find(name)
                        .map_or((Bound::None, Better::Lower), |d| (d.bound, d.better));
                    let v = judge(bound, better, x.value, y.value, &x.per_pass, &y.per_pass);
                    let change = if x.value != 0.0 {
                        format!("{:+.1}%", 100.0 * (y.value - x.value) / x.value.abs())
                    } else {
                        "-".to_string()
                    };
                    println!(
                        "{:<13} {:<34} {:>14.4} {:>14.4} {:>9} {:>7.1}% {:>7.1}%  {} {}",
                        workload,
                        name,
                        x.value,
                        y.value,
                        change,
                        100.0 * iqr_share(&x.per_pass),
                        100.0 * iqr_share(&y.per_pass),
                        v.label(),
                        x.unit
                    );
                    v
                }
                _ => {
                    println!("{workload:<13} {name:<34} present in one file only");
                    Verdict::Missing
                }
            };
            *counts.entry(verdict.label()).or_default() += 1;
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        println!("{workload:<13} present in {path_b} only");
        *counts.entry(Verdict::Missing.label()).or_default() += 1;
    }
    println!("summary: {counts:?}");
    let bad = |v: Verdict| counts.get(v.label()).copied().unwrap_or(0) > 0;
    if bad(Verdict::Regressed) || bad(Verdict::Differs) || bad(Verdict::Missing) {
        1
    } else if bad(Verdict::Unresolved) {
        3
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_must_repeat_exactly() {
        assert_eq!(
            judge(Bound::Exact, Better::Lower, 58.9, 58.9, &[], &[]),
            Verdict::Ok
        );
        assert_eq!(
            judge(Bound::Exact, Better::Lower, 58.9, 58.9001, &[], &[]),
            Verdict::Differs
        );
        assert_eq!(
            judge(Bound::Exact, Better::Lower, 0.0, 0.0, &[], &[]),
            Verdict::Ok
        );
    }

    #[test]
    fn timings_use_the_bound_in_the_worse_direction() {
        let tight = [100.0, 101.0, 99.0, 100.5];
        let j = |a, b| judge(Bound::Share(0.10), Better::Lower, a, b, &tight, &tight);
        assert_eq!(j(100.0, 109.0), Verdict::Ok);
        assert_eq!(j(100.0, 111.0), Verdict::Regressed);
        assert_eq!(j(100.0, 85.0), Verdict::Improved);
        let up = judge(
            Bound::Share(0.10),
            Better::Higher,
            100.0,
            85.0,
            &tight,
            &tight,
        );
        assert_eq!(up, Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let wide = [80.0, 100.0, 120.0, 140.0];
        let tight = [100.0, 100.0, 100.0, 100.0];
        assert_eq!(
            judge(
                Bound::Share(0.10),
                Better::Lower,
                100.0,
                100.0,
                &wide,
                &tight
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Bound::None, Better::Lower, 1.0, 2.0, &wide, &wide),
            Verdict::Info
        );
    }
}
