//! `lapbench compare old.jsonl new.jsonl`: marks every (metric, workload)
//! pair as improved, worse, unchanged or unresolved.
//!
//! Each file holds the `{"detail": …}` lines of repeated runs (stdout of
//! `lapbench`, or `--out`); other lines are ignored. Runs pair up by
//! position within a workload. The rules are the benchmark's own:
//!
//! * **improved** — the new side wins at least 9 in 10 of at least ten
//!   pairs (ties count for neither side), and the medians differ by more
//!   than the old side's interquartile distance;
//! * **worse** — an end-to-end median is worse than the old median by
//!   more than the metric's bound in `BENCHMARK.json`; for a per-layer
//!   metric (no bound), the old side wins 9 in 10 pairs and the medians
//!   differ by more than the old interquartile distance;
//! * **unresolved** — the old side's own spread is wider than the bound
//!   and not every new run beats every old run, or there are too few
//!   pairs to claim a gain;
//! * **unchanged** — none of the above.
//!
//! Before any of these, a workload's failures decide: when the new runs
//! failed a larger share of their requests than the old ones, every pair
//! of that workload is **worse**; when any run on either side failed at
//! all, its figures prove nothing and every pair is **unresolved**.

use crate::stats::{median, quartiles};
use lap::obs::{json, Json};
use std::collections::BTreeMap;

/// What `BENCHMARK.json` says about one metric.
struct Rule {
    lower_is_better: bool,
    bound: Option<f64>,
}

/// (workload, metric) → values in run order.
type Series = BTreeMap<(String, String), Vec<f64>>;

/// Requests attempted and failed over one workload's runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Failures {
    attempted: u64,
    failed: u64,
}

impl Failures {
    fn frac(self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One side of a comparison: the metric series and each workload's
/// failures.
struct Runs {
    series: Series,
    failures: BTreeMap<String, Failures>,
}

pub fn run(args: &[String]) -> Result<(), String> {
    let mut files = Vec::new();
    let mut bench_json = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bench-json" {
            bench_json = it.next().ok_or("--bench-json needs a value")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [old, new] = files.as_slice() else {
        return Err(
            "usage: lapbench compare <old.jsonl> <new.jsonl> [--bench-json <file>]".to_owned(),
        );
    };
    let rules = load_rules(&bench_json)?;
    let (old, new) = (load_runs(old)?, load_runs(new)?);
    for (workload, before) in &old.failures {
        let after = new.failures.get(workload).copied().unwrap_or_default();
        if before.failed > 0 || after.failed > 0 {
            println!(
                "{workload}: failed {}/{} old, {}/{} new",
                before.failed, before.attempted, after.failed, after.attempted
            );
        }
    }
    let mut worse = 0;
    println!(
        "{:<18} {:<28} {:>12} {:>25} {:>12} {:>8}  verdict",
        "workload", "metric", "old median", "old [q1, q3]", "new median", "change"
    );
    for (key, before) in &old.series {
        let Some(after) = new.series.get(key) else {
            continue;
        };
        let Some(rule) = rules.get(&key.1) else {
            continue;
        };
        let failures = |runs: &Runs| runs.failures.get(&key.0).copied().unwrap_or_default();
        let verdict = verdict(before, after, rule, failures(&old), failures(&new));
        if verdict == "worse" {
            worse += 1;
        }
        let (q1, q3) = quartiles(before).unwrap_or((f64::NAN, f64::NAN));
        let (m_old, m_new) = (median(before), median(after));
        let change = if m_old != 0.0 {
            (m_new - m_old) / m_old.abs() * 100.0
        } else {
            f64::NAN
        };
        println!(
            "{:<18} {:<28} {:>12.4} {:>25} {:>12.4} {:>7.1}%  {verdict} ({} pairs)",
            key.0,
            key.1,
            m_old,
            format!("[{q1:.4}, {q3:.4}]"),
            m_new,
            change,
            before.len().min(after.len()),
        );
    }
    if worse > 0 {
        return Err(format!("{worse} (metric, workload) pair(s) got worse"));
    }
    Ok(())
}

fn verdict(
    before: &[f64],
    after: &[f64],
    rule: &Rule,
    old_failures: Failures,
    new_failures: Failures,
) -> &'static str {
    if new_failures.frac() > old_failures.frac() {
        return "worse";
    }
    if old_failures.failed > 0 || new_failures.failed > 0 {
        return "unresolved";
    }
    let better = |a: f64, b: f64| if rule.lower_is_better { a < b } else { a > b };
    let pairs = before.len().min(after.len());
    let new_wins = (0..pairs).filter(|&i| better(after[i], before[i])).count();
    let old_wins = (0..pairs).filter(|&i| better(before[i], after[i])).count();
    let (m_old, m_new) = (median(before), median(after));
    let iqr = quartiles(before).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    let apart = (m_new - m_old).abs() > iqr;
    let nine_in_ten = |wins: usize| pairs >= 10 && wins * 10 >= pairs * 9;
    if nine_in_ten(new_wins) && apart {
        return "improved";
    }
    match rule.bound {
        Some(bound) => {
            let worse_by = if rule.lower_is_better {
                m_new - m_old
            } else {
                m_old - m_new
            };
            let spread = if m_old != 0.0 {
                iqr / m_old.abs()
            } else {
                f64::INFINITY
            };
            let all_new_better = after.iter().all(|&a| before.iter().all(|&b| better(a, b)));
            if spread > bound && !all_new_better {
                "unresolved"
            } else if worse_by > bound * m_old.abs() {
                "worse"
            } else if new_wins > old_wins && apart {
                "unresolved"
            } else {
                "unchanged"
            }
        }
        None if nine_in_ten(old_wins) && apart => "worse",
        None if pairs < 10 && apart => "unresolved",
        None => "unchanged",
    }
}

fn load_rules(path: &str) -> Result<BTreeMap<String, Rule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut rules = BTreeMap::new();
    for list in ["end_to_end", "per_layer"] {
        for m in doc.get(list).and_then(Json::as_arr).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("{path}: metric without a name"))?;
            rules.insert(
                name.to_owned(),
                Rule {
                    lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                    bound: m.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    Ok(rules)
}

fn load_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_runs(path, &text)
}

/// The detail lines of `text`, read from `path`.
fn parse_runs(path: &str, text: &str) -> Result<Runs, String> {
    let mut series = Series::new();
    let mut failures: BTreeMap<String, Failures> = BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with("{\"detail\"")) {
        let doc = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let detail = doc
            .get("detail")
            .ok_or(format!("{path}: detail line without detail"))?;
        let workload = detail
            .get("provenance")
            .and_then(|p| p.get("workload"))
            .and_then(Json::as_str)
            .ok_or(format!("{path}: detail line without a workload"))?;
        let count = |key: &str| {
            detail
                .get(key)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or(format!("{path}: detail line without {key:?}"))
        };
        let tally = failures.entry(workload.to_owned()).or_default();
        tally.attempted += count("attempted")?;
        tally.failed += count("failed")?;
        let Some(Json::Obj(metrics)) = detail.get("metrics") else {
            return Err(format!("{path}: detail line without metrics"));
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            series
                .entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    if series.is_empty() {
        return Err(format!("{path}: no lapbench detail lines"));
    }
    Ok(Runs { series, failures })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        lower_is_better: true,
        bound: Some(0.1),
    };

    const CLEAN: Failures = Failures {
        attempted: 1000,
        failed: 0,
    };

    fn verdict(before: &[f64], after: &[f64], rule: &Rule) -> &'static str {
        super::verdict(before, after, rule, CLEAN, CLEAN)
    }

    #[test]
    fn a_clear_win_on_ten_pairs_is_improved() {
        let old: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let new: Vec<f64> = old.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&old, &new, &LOWER), "improved");
        assert_eq!(verdict(&new, &old, &LOWER), "worse");
    }

    #[test]
    fn noise_within_the_bound_is_unchanged_and_wide_spread_is_unresolved() {
        let old = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let new = [
            100.4, 99.6, 100.3, 99.7, 100.0, 100.1, 99.9, 100.2, 99.8, 100.0,
        ];
        assert_eq!(verdict(&old, &new, &LOWER), "unchanged");
        let wide = [
            50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0,
        ];
        assert_eq!(verdict(&wide, &new, &LOWER), "unresolved");
    }

    #[test]
    fn few_pairs_never_claim_a_gain() {
        let old = [100.0, 100.5, 99.5];
        let new = [80.0, 80.5, 79.5];
        assert_ne!(verdict(&old, &new, &LOWER), "improved");
    }

    #[test]
    fn failures_override_the_figures() {
        let old: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let new: Vec<f64> = old.iter().map(|v| v * 0.8).collect();
        let some = |failed| Failures {
            attempted: 1000,
            failed,
        };
        // A clear win that fails more requests is a regression.
        assert_eq!(super::verdict(&old, &new, &LOWER, CLEAN, some(1)), "worse");
        assert_eq!(
            super::verdict(&old, &new, &LOWER, some(1), some(2)),
            "worse"
        );
        // Failures on either side leave the figures unresolved.
        assert_eq!(
            super::verdict(&old, &new, &LOWER, some(2), some(2)),
            "unresolved"
        );
        assert_eq!(
            super::verdict(&old, &new, &LOWER, some(2), CLEAN),
            "unresolved"
        );
    }

    #[test]
    fn detail_lines_carry_their_failures() {
        let line = |failed: u64| {
            format!(
                r#"{{"detail":{{"provenance":{{"workload":"w"}},"attempted":50,"failed":{failed},"metrics":{{"m":{{"value":1.0}}}}}}}}"#
            )
        };
        let text = format!("{}\nnot a detail line\n{}\n", line(0), line(3));
        let runs = parse_runs("runs.jsonl", &text).unwrap();
        assert_eq!(
            runs.failures["w"],
            Failures {
                attempted: 100,
                failed: 3
            }
        );
        assert_eq!(runs.series[&("w".to_owned(), "m".to_owned())], [1.0, 1.0]);
    }
}
