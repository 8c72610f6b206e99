//! The metrics a run reports, by name and unit, and the result lines.

use crate::traced::Replay;
use lap::obs::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("obs.snapshot_us", "us"),
    ("obs.fold_us", "us"),
    ("obs.snapshot_events", "count"),
    ("obs.fold_yield", "ratio"),
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("proto.request_bytes", "B"),
    ("proto.response_bytes", "B"),
    ("daemon.gate_wait_us_p99", "us"),
    ("daemon.request_us_p50", "us"),
    ("daemon.request_us_p99", "us"),
    ("daemon.outside_handle_us", "us"),
    ("daemon.connect_us", "us"),
    ("client.latency_p99_ms", "ms"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("cache.lookup_us", "us"),
    ("ir.parse_us", "us"),
    ("core.plan_star_us", "us"),
    ("core.feasible_us_p50", "us"),
    ("core.feasible_us_p99", "us"),
    ("containment.decisions", "count"),
    ("containment.memo_hit_rate", "ratio"),
    ("containment.recursive_calls", "count"),
    ("feasible.containment_share", "ratio"),
    ("engine.lower_us", "us"),
    ("engine.facts_parse_us", "us"),
    ("engine.facts_bytes", "B"),
    ("engine.execute_under_us", "us"),
    ("engine.execute_over_us", "us"),
    ("engine.source_calls", "count"),
    ("engine.tuples_transferred", "count"),
    ("engine.tuples_per_answer", "ratio"),
    ("core.render_us", "us"),
    ("core.answer_bytes", "B"),
    ("lapq.process_overhead_ms", "ms"),
    ("mem.peak_rss_mb", "MiB"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Whether `name` uses only the characters a metric name may hold.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run measured.
#[derive(Default)]
pub struct Measured {
    /// Metric name → (value, sample count).
    values: BTreeMap<String, (f64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Extra records for the detail line (daemon stats, attributions).
    pub notes: Vec<(String, Json)>,
}

impl Measured {
    pub fn put(&mut self, name: &str, value: f64, samples: u64) {
        self.values.insert(name.to_owned(), (value, samples));
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_owned(), value));
    }

    pub fn absorb_replay(&mut self, replay: Replay) {
        self.attempted += replay.attempted;
        self.failed += replay.failed;
        if replay.failed > 0 {
            self.errors.push(format!(
                "{} replayed answer(s) differ from the reference",
                replay.failed
            ));
        }
        for (name, value) in replay.metrics {
            self.put(name, value, replay.attempted);
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Fails unless exactly the `declared` metrics were measured.
    pub fn check_names(&self, declared: &[(&str, &str)]) -> Result<(), String> {
        let want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
        if let Some(bad) = want.iter().find(|n| !valid_name(n)) {
            return Err(format!("invalid metric name {bad:?}"));
        }
        let have: Vec<&str> = self.values.keys().map(String::as_str).collect();
        let missing: Vec<&&str> = want.iter().filter(|n| !have.contains(n)).collect();
        let extra: Vec<&&str> = have.iter().filter(|n| !want.contains(n)).collect();
        if missing.is_empty() && extra.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "metric set mismatch: missing {missing:?}, unexpected {extra:?}"
            ))
        }
    }

    /// The contract's last line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self, declared: &[(&str, &str)], correct: bool) -> Json {
        let metrics = declared
            .iter()
            .map(|(name, unit)| {
                let value = self.values.get(*name).map_or(0.0, |v| v.0);
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::num(self.attempted)),
            ("failed", Json::num(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Every metric with its unit and sample count.
    pub fn detail_json(&self, declared: &[(&str, &str)]) -> Json {
        Json::Obj(
            declared
                .iter()
                .map(|(name, unit)| {
                    let (value, samples) = self.values.get(*name).copied().unwrap_or((0.0, 0));
                    (
                        name.to_string(),
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::str(*unit)),
                            ("samples", Json::num(samples)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The human-readable table printed on stderr.
    pub fn table(&self, declared: &[(&str, &str)], workload: &str, traced: bool) -> String {
        let mut out = format!(
            "lapbench {workload} ({}): {} attempted, {} failed (failed_frac {:.4})\n",
            if traced { "traced" } else { "end to end" },
            self.attempted,
            self.failed,
            self.failed_frac()
        );
        for (name, unit) in declared {
            let (value, samples) = self.values.get(*name).copied().unwrap_or((0.0, 0));
            let _ = writeln!(out, "  {name:<30} {value:>14.4} {unit:<6} n={samples}");
        }
        for (key, value) in &self.notes {
            if key == "gap_attribution" {
                let _ = writeln!(out, "  gap attribution: {}", value.to_compact());
            }
        }
        out
    }
}

/// FNV-1a over the program's sources (`Cargo.toml`, `Cargo.lock`, `src/`
/// and `crates/`), identifying the build when no git commit is at hand.
pub fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let name = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in name.bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap::obs::json;

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
    }

    /// `BENCHMARK.json` names exactly the metrics a run emits.
    #[test]
    fn benchmark_json_matches_the_emitted_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("workload name")
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, crate::workload::WORKLOADS);
    }

    #[test]
    fn a_run_must_emit_every_declared_metric() {
        let mut m = Measured::default();
        for (name, _) in END_TO_END {
            m.put(name, 1.0, 1);
        }
        assert!(m.check_names(END_TO_END).is_ok());
        m.put("surprise", 1.0, 1);
        assert!(m.check_names(END_TO_END).is_err());
        assert!(m.check_names(PER_LAYER).is_err());
    }
}
