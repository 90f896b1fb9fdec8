//! The one record writer: every run of every workload produces one record
//! with the same envelope, and `compare` reads them back.

use serde::{Number, Value};
use std::path::{Path, PathBuf};

/// Benchmark name stamped into every record.
pub const BENCH: &str = "archer2-benchmark";

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// One workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub commit: String,
    pub nproc: u64,
    pub smoke: bool,
    pub trace: bool,
    pub seconds: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Telemetry digest of the workload's store (same seed ⇒ same digest).
    pub digest: String,
    /// Digest of the first replies of a closed loop, where the replies are
    /// a pure function of the seed; `None` for the open loop.
    pub reply_digest: Option<String>,
    /// One line per failed correctness gate.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

fn u(x: u64) -> Value {
    Value::Num(Number::U(x))
}

fn s(x: &str) -> Value {
    Value::Str(x.to_string())
}

/// `{"name": {"value": v, "unit": u}, …}` — the shape of the result line.
pub fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| {
                let v = Value::Map(vec![
                    ("value".into(), Value::Num(Number::F(m.value))),
                    ("unit".into(), s(&m.unit)),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

impl Record {
    /// The last line a run prints: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let v = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), u(self.attempted)),
            ("failed".into(), u(self.failed)),
            ("metrics".into(), metrics_value(&self.metrics)),
        ]);
        serde_json::to_string(&v).expect("metrics are finite")
    }

    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("bench".into(), s(BENCH)),
            ("workload".into(), s(&self.workload)),
            ("seed".into(), u(self.seed)),
            ("commit".into(), s(&self.commit)),
            ("nproc".into(), u(self.nproc)),
            ("smoke".into(), Value::Bool(self.smoke)),
            ("trace".into(), Value::Bool(self.trace)),
            ("seconds".into(), u(self.seconds)),
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), u(self.attempted)),
            ("failed".into(), u(self.failed)),
            ("digest".into(), s(&self.digest)),
            (
                "reply_digest".into(),
                self.reply_digest.as_deref().map_or(Value::Null, s),
            ),
            (
                "errors".into(),
                Value::Seq(self.errors.iter().map(|e| s(e)).collect()),
            ),
            ("metrics".into(), metrics_value(&self.metrics)),
        ])
    }

    pub fn from_value(v: &Value) -> Result<Record, String> {
        let map = v.as_map().ok_or("record is not an object")?;
        let get = |k: &str| serde::value::map_get(map, k).ok_or(format!("record has no {k:?}"));
        let text = |k: &str| -> Result<String, String> {
            get(k)?
                .as_str()
                .map(String::from)
                .ok_or(format!("{k:?} is not a string"))
        };
        let num = |k: &str| -> Result<u64, String> {
            match get(k)? {
                Value::Num(Number::U(x)) => Ok(*x),
                other => Err(format!("{k:?} is not a whole number: {other:?}")),
            }
        };
        let flag = |k: &str| -> Result<bool, String> {
            match get(k)? {
                Value::Bool(b) => Ok(*b),
                other => Err(format!("{k:?} is not a bool: {other:?}")),
            }
        };
        if text("bench")? != BENCH {
            return Err(format!("not a {BENCH} record"));
        }
        let metrics = get("metrics")?
            .as_map()
            .ok_or("metrics is not an object")?
            .iter()
            .map(|(name, m)| {
                let m = m
                    .as_map()
                    .ok_or(format!("metric {name} is not an object"))?;
                let value = match serde::value::map_get(m, "value") {
                    Some(Value::Num(n)) => n.as_f64(),
                    _ => return Err(format!("metric {name} has no numeric value")),
                };
                let unit = serde::value::map_get(m, "unit")
                    .and_then(Value::as_str)
                    .ok_or(format!("metric {name} has no unit"))?;
                Ok(Metric {
                    name: name.clone(),
                    value,
                    unit: unit.to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let errors = get("errors")?
            .as_seq()
            .ok_or("errors is not an array")?
            .iter()
            .map(|e| {
                e.as_str()
                    .map(String::from)
                    .ok_or("error entry is not a string".to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Record {
            workload: text("workload")?,
            seed: num("seed")?,
            commit: text("commit")?,
            nproc: num("nproc")?,
            smoke: flag("smoke")?,
            trace: flag("trace")?,
            seconds: num("seconds")?,
            correct: flag("correct")?,
            attempted: num("attempted")?,
            failed: num("failed")?,
            digest: text("digest")?,
            reply_digest: match get("reply_digest")? {
                Value::Null => None,
                other => Some(
                    other
                        .as_str()
                        .ok_or("reply_digest is not a string")?
                        .to_string(),
                ),
            },
            errors,
            metrics,
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Write `record` into `dir` as `<workload>-s<seed>[-trace]-<NNN>.json`,
/// taking the first unused index so repeated runs accumulate side by side.
pub fn write(dir: &Path, record: &Record) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let json = serde_json::to_string_pretty(&record.to_value()).expect("metrics are finite");
    let kind = if record.trace { "-trace" } else { "" };
    for n in 0.. {
        let path = dir.join(format!(
            "{}-s{}{kind}-{n:03}.json",
            record.workload, record.seed
        ));
        if !path.exists() {
            std::fs::write(&path, json)?;
            return Ok(path);
        }
    }
    unreachable!("the index space is unbounded")
}

/// Every record in `dir` (trace files excluded), in file-name order — the
/// order the runs were made in.
pub fn read_dir(dir: &Path) -> Result<Vec<Record>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && !name.ends_with(".trace.json")
        })
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let v = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            Record::from_value(&v).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// The commit being measured, or `unknown` outside a git checkout. Git
/// looks only in `./.git`, never in a repository around the working
/// directory, so a copy of the tree that is not a checkout reads `unknown`.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(workload: &str, value: f64) -> Record {
        Record {
            workload: workload.into(),
            seed: 2022,
            commit: "0123456789ab".into(),
            nproc: 2,
            smoke: false,
            trace: false,
            seconds: 10,
            correct: true,
            attempted: 1_000,
            failed: 0,
            digest: "00ff00ff00ff00ff".into(),
            reply_digest: None,
            errors: vec!["a \"quoted\" gate".into()],
            metrics: vec![
                Metric {
                    name: "setup_s".into(),
                    value,
                    unit: "s".into(),
                },
                Metric {
                    name: "query_p50_us".into(),
                    value: 57.25,
                    unit: "us".into(),
                },
            ],
        }
    }

    #[test]
    fn record_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join(format!("bench-record-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = sample("query_history", 0.8125);
        let mut b = sample("query_history", 0.1);
        b.reply_digest = Some("abc".into());
        b.trace = true;
        let pa = write(&dir, &a).unwrap();
        let pb = write(&dir, &a).unwrap();
        write(&dir, &b).unwrap();
        assert_ne!(pa, pb, "a second run must not overwrite the first");
        std::fs::write(dir.join("query_history.trace.json"), "{}").unwrap();
        let back = read_dir(&dir).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], a);
        assert_eq!(back[1], a);
        assert_eq!(back[2], b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = sample("campaign_paper", 1.5).result_line();
        let v = serde_json::parse_value(&line).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
    }
}
