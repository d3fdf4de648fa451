//! What a run produces: named metrics, the attempted/failed tally, and the
//! two text forms (one tab-separated line per metric, one JSON object).

use serde_json::{json, Value};

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Running tally of operations and output checks.
///
/// `failed` counts everything that did not go as a user wants: an op that
/// produced a non-finite loss, a request refused or expired, a wrong
/// answer. `wrong` is the subset that is an *incorrect output* (a check
/// of the program's results did not hold); only that subset flips
/// `correct` and the exit code, so a host stall that expires one request
/// is reported without calling the program wrong.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count `n` operations that went well.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one output check; a failed one is a wrong output.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            self.wrong += 1;
            self.note(what());
        }
    }

    /// Count `n` operations that failed without producing a wrong output
    /// (refused, expired, errored).
    pub fn unserved(&mut self, n: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += n;
        if n > 0 {
            self.note(what());
        }
    }

    fn note(&mut self, text: String) {
        // Keep the first few: a systematic failure repeats the same line.
        if self.notes.len() < 8 {
            self.notes.push(text);
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0
    }
}

/// One run of one workload.
#[derive(Debug)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub tally: Tally,
    /// The metrics `BENCHMARK.json` names: every end-to-end metric for an
    /// untraced run, every per-layer metric for a traced one.
    pub gated: Vec<Metric>,
    /// Reported but never gated: quartiles, sample counts, raw wall
    /// figures, the Fig. 6 ratio.
    pub extra: Vec<Metric>,
}

impl Outcome {
    /// `workload<TAB>metric<TAB>value<TAB>unit`, one line per metric.
    pub fn text_lines(&self) -> String {
        let mut out = String::new();
        for m in self.gated.iter().chain(&self.extra) {
            // `{:?}` keeps every digit and switches to an exponent for
            // the tiny error figures.
            out.push_str(&format!(
                "{}\t{}\t{:?}\t{}\n",
                self.workload, m.name, m.value, m.unit
            ));
        }
        out
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        json!({
            "correct": (self.tally.correct()),
            "attempted": (self.tally.attempted),
            "failed": (self.tally.failed),
            "metrics": (metrics_object(&self.gated)),
        })
        .to_string()
    }

    /// The full record `--out` writes and `ledger compare` reads.
    pub fn record(&self, machine: Value) -> Value {
        json!({
            "workload": (self.workload.clone()),
            "seed": (self.seed.to_string()),
            "traced": (self.traced),
            "correct": (self.tally.correct()),
            "attempted": (self.tally.attempted),
            "failed": (self.tally.failed),
            "notes": (self.tally.notes.clone()),
            "metrics": (metrics_object(&self.gated)),
            "extra": (metrics_object(&self.extra)),
            "machine": machine,
        })
    }
}

fn metrics_object(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    json!({"value": (m.value), "unit": (m.unit)}),
                )
            })
            .collect(),
    )
}

/// `name → value` of a record's `metrics` object (as written by
/// [`Outcome::record`]).
pub fn metrics_of(record: &Value) -> Vec<(String, f64)> {
    record["metrics"]
        .as_object()
        .map(|entries| {
            entries
                .iter()
                .filter_map(|(k, v)| v["value"].as_f64().map(|x| (k.clone(), x)))
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        let mut tally = Tally::default();
        tally.ok(98);
        tally.check(true, || unreachable!());
        tally.unserved(1, || "1 request expired".into());
        Outcome {
            workload: "serve_open_planned".into(),
            seed: u64::MAX,
            traced: false,
            tally,
            gated: vec![
                metric("op_ms_typical", 4.8125, "ms"),
                metric("max_rel_error", 1.25e-7, "ratio"),
            ],
            extra: vec![metric("op_ms_p50_wall", 5.5, "ms")],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = sample();
        let v: Value = serde_json::from_str(&out.result_line()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"], Value::Bool(true));
        assert_eq!(v["attempted"].as_u64(), Some(100));
        assert_eq!(v["failed"].as_u64(), Some(1));
        assert_eq!(
            v["metrics"]["op_ms_typical"]["value"].as_f64(),
            Some(4.8125)
        );
        assert_eq!(v["metrics"]["op_ms_typical"]["unit"].as_str(), Some("ms"));
        assert!(v["metrics"]["op_ms_p50_wall"].is_null(), "extras stay out");
    }

    #[test]
    fn record_round_trips_through_the_json_shim() {
        let out = sample();
        let text = serde_json::to_string_pretty(&out.record(json!({"nproc": 2}))).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["workload"].as_str(), Some("serve_open_planned"));
        // u64 seeds do not fit an f64: they travel as strings.
        assert_eq!(
            back["seed"].as_str().unwrap().parse::<u64>().unwrap(),
            u64::MAX
        );
        assert_eq!(back["notes"][0].as_str(), Some("1 request expired"));
        assert_eq!(back["machine"]["nproc"].as_u64(), Some(2));
        let metrics = metrics_of(&back);
        assert_eq!(
            metrics,
            vec![
                ("op_ms_typical".to_string(), 4.8125),
                ("max_rel_error".to_string(), 1.25e-7)
            ]
        );
        // Tiny values keep all their digits through text.
        assert_eq!(
            back["metrics"]["max_rel_error"]["value"].as_f64(),
            Some(1.25e-7)
        );
    }

    #[test]
    fn a_wrong_output_flips_correct_an_unserved_op_does_not() {
        let mut t = Tally::default();
        t.unserved(3, || "refused".into());
        assert!(t.correct());
        assert_eq!((t.attempted, t.failed, t.wrong), (3, 3, 0));
        t.check(false, || "loss rose".into());
        assert!(!t.correct());
        assert_eq!((t.attempted, t.failed, t.wrong), (4, 4, 1));
        assert_eq!(t.notes, ["refused", "loss rose"]);
    }

    #[test]
    fn text_lines_are_tab_separated() {
        let text = sample().text_lines();
        let first = text.lines().next().unwrap();
        assert_eq!(first, "serve_open_planned\top_ms_typical\t4.8125\tms");
        assert_eq!(text.lines().count(), 3);
    }
}
