//! What a workload run produces, the metric dictionary, and the two
//! output forms: JSON lines on stdout, a table on stderr.

use std::path::PathBuf;
use std::time::Duration;

use crate::calib::Clock;
use crate::stats::{median, percentile, tail_is_resolved, valid_metric_name, Digest};
use crate::trace::Tracer;

/// End-to-end metrics: `(name, unit)`, reported by every workload with
/// tracing off.
pub const END_TO_END: [(&str, &str); 3] = [
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`, reported by every workload's
/// traced run (see `probe.rs`).
pub const PER_LAYER: [(&str, &str); 11] = [
    ("json.parse_request_us_p50", "us"),
    ("ir.parse_us_p50", "us"),
    ("ir.lower_us_p50", "us"),
    ("prepare.ms_p50", "ms"),
    ("simulator.baseline_ms_p50", "ms"),
    ("simulator.minstr_per_s", "Minstr/s"),
    ("partition.compute_ms_p50", "ms"),
    ("json.render_us_p50", "us"),
    ("serve.handle_us_p50", "us"),
    ("serve.transport_ms_p50", "ms"),
    ("serve.response_kb_mean", "kB"),
];

/// Everything a workload needs to know about the run.
#[derive(Debug)]
pub struct Ctx {
    /// The input seed.
    pub seed: u64,
    /// How long the measured phase runs.
    pub run_for: Duration,
    /// Span recorder (disabled unless `--trace 1`).
    pub tracer: Tracer,
    /// Where the run may write files (inside the checkout).
    pub scratch: PathBuf,
}

impl Ctx {
    /// Whether this is the traced (per-layer) run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// The raw measurements of one workload run.
#[derive(Debug, Default)]
pub struct Run {
    /// The workload's exact sizes, for the record.
    pub sizes: Vec<(&'static str, u64)>,
    /// Operations attempted in the measured phase. An operation is the
    /// unit the workload checks: a round, a pass or a request.
    pub attempted: u64,
    /// Operations that failed (missing, malformed or mismatched
    /// answers, transport errors).
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
    /// FNV-64 over the run's deterministic result bytes.
    pub digest: Digest,
    /// Duration of each set-up, seconds. Set-ups are spread over the
    /// run (at the start of every segment), so their median is not one
    /// burst of host noise.
    pub setup_s: Vec<f64>,
    /// Latency of each correct measured operation, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Units of completed work (commands, apps, requests).
    pub items: u64,
    /// Length of the measured phases, seconds, set-ups excluded.
    pub measured_s: f64,
    /// Per-layer metrics of a traced run, by name.
    pub layers: Vec<(&'static str, f64)>,
    /// Workload-specific numbers beside the metrics, by name.
    pub details: Vec<(String, f64)>,
}

impl Run {
    /// Records a correctness problem (the first few verbatim).
    pub fn problem(&mut self, what: impl Into<String>) {
        const KEEP: usize = 20;
        if self.problems.len() < KEEP {
            self.problems.push(what.into());
        } else if self.problems.len() == KEEP {
            self.problems.push("... (further problems omitted)".into());
        }
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.problem(what);
    }

    /// Adds a workload-specific detail.
    pub fn detail(&mut self, name: &str, value: f64) {
        self.details.push((name.to_owned(), value));
    }

    /// Records how fast the host ran, for a workload whose times were
    /// scaled by `clock` (see `calib.rs`).
    pub fn host_speed(&mut self, clock: &Clock) {
        self.detail("host.reference_ms_p50", clock.reference_p50_ms());
    }
}

/// The host block of every result.
#[derive(Debug)]
pub struct Host {
    /// Available CPUs.
    pub nproc: usize,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// `rustc -V`.
    pub rustc: String,
}

impl Host {
    /// Probes the host.
    pub fn probe() -> Host {
        let run = |cmd: &str, args: &[&str]| {
            std::process::Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
                .unwrap_or_else(|| "unknown".into())
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            git_rev: run("git", &["rev-parse", "HEAD"]),
            rustc: run("rustc", &["-V"]),
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of a run, in [`END_TO_END`] order.
pub fn end_to_end(run: &Run) -> Vec<(&'static str, f64)> {
    vec![
        ("latency_p50_ms", median(&run.latencies_ms)),
        (
            "throughput_per_s",
            run.items as f64 / run.measured_s.max(1e-9),
        ),
        ("setup_s", median(&run.setup_s)),
    ]
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn esc(s: &str) -> String {
    corepart::json::json_escape(s)
}

fn metrics_json(metrics: &[(&str, f64)], units: &[(&str, &str)]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            let unit = units.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                esc(name),
                num(*v),
                unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

/// A finished workload run, ready to print.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Measured-phase length asked for.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Host block.
    pub host: Host,
    /// The measurements.
    pub run: Run,
    /// End-to-end metrics (traced runs report them as details, to show
    /// the tracing overhead).
    pub end_to_end: Vec<(&'static str, f64)>,
}

impl Report {
    /// Assembles the report and checks the metric set is the declared
    /// one.
    pub fn new(
        workload: &'static str,
        seed: u64,
        seconds: u64,
        traced: bool,
        mut run: Run,
    ) -> Self {
        let end_to_end = end_to_end(&run);
        let layer_names: Vec<&str> = run.layers.iter().map(|(n, _)| *n).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        if traced && layer_names != declared {
            run.problem(format!(
                "layer metrics {layer_names:?} differ from the declared set"
            ));
        }
        let invalid: Vec<String> = end_to_end
            .iter()
            .chain(&run.layers)
            .filter(|(name, v)| !valid_metric_name(name) || !v.is_finite())
            .map(|(name, v)| format!("metric `{name}` is invalid ({v})"))
            .collect();
        for problem in invalid {
            run.problem(problem);
        }
        if run.attempted == 0 {
            run.problem("no operation was attempted");
        }
        // Recorded, not gated: on a shared host these swing by more than
        // any bound a regression gate could use, and the failure share
        // is 0 in every correct run (see README.md).
        let tail = |p| percentile(&run.latencies_ms, p).unwrap_or(0.0);
        let (p90, p99) = (tail(90.0), tail(99.0));
        run.detail("latency_p90_ms", p90);
        run.detail("latency_p99_ms", p99);
        run.detail("peak_rss_mb", peak_rss_mb());
        run.detail(
            "failed_share",
            run.failed as f64 / run.attempted.max(1) as f64,
        );
        Report {
            workload,
            seed,
            seconds,
            traced,
            host: Host::probe(),
            run,
            end_to_end,
        }
    }

    /// Whether every output was checked and found correct.
    pub fn correct(&self) -> bool {
        self.run.problems.is_empty() && self.run.failed == 0
    }

    /// The full record: host, sizes, digest, every metric, details.
    pub fn detail_json(&self) -> String {
        let r = &self.run;
        let sizes: Vec<String> = r
            .sizes
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let details: Vec<String> = r
            .details
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", esc(k), num(*v)))
            .collect();
        let problems: Vec<String> = r
            .problems
            .iter()
            .map(|p| format!("\"{}\"", esc(p)))
            .collect();
        let samples = r.latencies_ms.len();
        format!(
            concat!(
                "{{\"corebench\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},",
                "\"host\":{{\"nproc\":{},\"git_rev\":\"{}\",\"rustc\":\"{}\"}},",
                "\"sizes\":{{{}}},\"output_digest\":\"{}\",",
                "\"latency_samples\":{},\"p90_has_10_beyond\":{},\"p99_has_10_beyond\":{},",
                "\"end_to_end\":{},\"per_layer\":{},\"details\":{{{}}},\"problems\":[{}]}}}}"
            ),
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.host.nproc,
            esc(&self.host.git_rev),
            esc(&self.host.rustc),
            sizes.join(","),
            r.digest.hex(),
            samples,
            tail_is_resolved(samples, 90.0),
            tail_is_resolved(samples, 99.0),
            metrics_json(&self.end_to_end, &END_TO_END),
            metrics_json(&r.layers, &PER_LAYER),
            details.join(","),
            problems.join(","),
        )
    }

    /// The result line: end-to-end metrics untraced, per-layer metrics
    /// traced.
    pub fn result_json(&self) -> String {
        let metrics = if self.traced {
            metrics_json(&self.run.layers, &PER_LAYER)
        } else {
            metrics_json(&self.end_to_end, &END_TO_END)
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.run.attempted,
            self.run.failed,
            metrics
        )
    }

    /// A human-readable table.
    pub fn table(&self) -> String {
        let r = &self.run;
        let mut out = format!(
            "corebench {} seed={} seconds={} trace={} nproc={} rev={}\n",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.host.nproc,
            self.host.git_rev
        );
        let sizes: Vec<String> = r.sizes.iter().map(|(k, v)| format!("{k}={v}")).collect();
        out += &format!("  sizes: {}\n", sizes.join(" "));
        let setups: Vec<String> = r.setup_s.iter().map(|s| format!("{s:.4}")).collect();
        out += &format!("  set-ups (s): {}\n", setups.join(" "));
        let mut row = |name: &str, v: f64, unit: &str| {
            out += &format!("  {name:<28} {v:>14.4} {unit}\n");
        };
        for (name, v) in &self.end_to_end {
            let unit = END_TO_END
                .iter()
                .find(|(n, _)| n == name)
                .map_or("", |u| u.1);
            row(name, *v, unit);
        }
        for (name, v) in &r.layers {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| n == name)
                .map_or("", |u| u.1);
            row(name, *v, unit);
        }
        for (name, v) in &r.details {
            row(name, *v, "");
        }
        out += &format!(
            "  attempted={} failed={} correct={} digest={} samples={}\n",
            r.attempted,
            r.failed,
            self.correct(),
            r.digest.hex(),
            r.latencies_ms.len()
        );
        for p in &r.problems {
            out += &format!("  problem: {p}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corepart::json::{parse_json, JsonValue};

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |m: &[(&str, &str)]| -> Vec<(String, String)> {
            m.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_required_keys() {
        let run = Run {
            attempted: 3,
            latencies_ms: vec![1.0, 2.0, 3.0],
            items: 3,
            measured_s: 1.5,
            setup_s: vec![0.25, 0.5, 9.0, 0.75],
            ..Run::default()
        };
        let report = Report::new("paper-flow", 1, 1, false, run);
        let line = report.result_json();
        let doc = parse_json(&line).expect("valid JSON");
        let JsonValue::Obj(top) = &doc else {
            panic!("an object");
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        let metrics = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(unit));
            assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
        }
        let value = |name| {
            metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
        };
        assert_eq!(value("throughput_per_s"), Some(2.0));
        // The median set-up ignores one slow outlier.
        assert_eq!(value("setup_s"), Some(0.5));
        assert!(parse_json(&report.detail_json()).is_ok());
    }
}
