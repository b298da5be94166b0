//! End-to-end and per-layer benchmark of the advice pipeline and the decode
//! server. See `README.md` next to this crate for the workloads, the
//! metrics and why each exists.

pub mod heap;
pub mod pipeline;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = [
    "pipeline-plain",
    "pipeline-memo",
    "serve-hits",
    "serve-mixed",
];

/// End-to-end metrics every workload reports in an untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics every workload reports in a traced run, with units.
/// A layer a workload does not run reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for s in pipeline::SCHEMAS {
        for layer in [
            "core.{}.encode_s",
            "core.{}.advice_bits",
            "core.{}.deliver_s",
            "runtime.{}.decode_s",
            "runtime.{}.probe_s",
            "runtime.{}.sweep_s",
            "runtime.{}.key_s",
            "runtime.{}.eval_s",
            "runtime.{}.hit_rate",
            "runtime.{}.fp_reject_rate",
            "runtime.{}.classes",
            "runtime.{}.plans_memo",
            "runtime.{}.plans_plain",
            "graph.{}.verify_s",
            "pipeline.{}.nodes_per_s",
            "pipeline.{}.unattributed_s",
        ] {
            names.push(layer.replace("{}", s));
        }
    }
    names.push("graph.build_s".into());
    for layer in [
        "serve.rtt_us",
        "serve.latency_p99_ms",
        "serve.frame_us",
        "serve.handle_request_us",
        "serve.handle_batch_us",
        "serve.answer_query_us",
        "serve.request_self_us",
        "serve.batch_self_us",
        "serve.unattributed_us",
        "core.served.parse_us",
        "core.served.key_us",
        "core.served.bind_us",
        "core.served.eval_us",
        "serve.hits",
        "serve.misses",
        "serve.verified",
        "serve.appended",
        "serve.errors",
        "serve.hit_rate",
        "serve.verify_share",
        "runtime.store.open_s",
        "runtime.store.save_s",
        "runtime.store.bytes",
        "runtime.store.classes_start",
        "runtime.store.classes_end",
        "core.served.train_s",
        "gen.lag_p99_ms",
        "gen.requests",
        "gen.queries",
        "trace.outputs_per_s",
        "trace.spans",
        "trace.overhead_share",
    ] {
        names.push(layer.into());
    }
    names
        .into_iter()
        .map(|n| {
            let unit = unit_of(&n);
            (n, unit)
        })
        .collect()
}

/// A per-layer metric's unit, read off its name.
fn unit_of(name: &str) -> &'static str {
    const SUFFIXES: [(&str, &str); 8] = [
        ("_per_s", "1/s"),
        ("_us", "us"),
        ("_ms", "ms"),
        ("_s", "s"),
        ("_bits", "bits"),
        ("bytes", "bytes"),
        ("_rate", "ratio"),
        ("_share", "ratio"),
    ];
    SUFFIXES
        .iter()
        .find(|(suffix, _)| name.ends_with(suffix))
        .map_or("count", |&(_, unit)| unit)
}

/// What one run measured and checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations attempted: schema runs for pipelines, queries for serving.
    pub attempted: u64,
    /// Attempted operations that errored or gave a wrong answer.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// An outcome of `attempted` operations, none failed yet.
    pub fn new(attempted: u64) -> Self {
        Outcome {
            attempted,
            failed: 0,
            metrics: BTreeMap::new(),
        }
    }

    /// Sets metric `name`.
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: every metric of the run's kind, by name with unit.
    /// Per-layer metrics a workload does not produce read 0; a missing or
    /// non-finite end-to-end metric is an error.
    ///
    /// # Errors
    ///
    /// Names the end-to-end metric that was not measured.
    pub fn to_json(&self, traced: bool) -> Result<String, String> {
        let listed: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut fields = Vec::new();
        for (name, unit) in listed {
            let value = match self.metrics.get(&name) {
                Some(v) if v.is_finite() => *v,
                _ if traced => 0.0,
                _ => return Err(format!("end-to-end metric {name} was not measured")),
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Runs workload `name` with `seed` for about `seconds`, traced or not.
///
/// # Errors
///
/// An unknown workload, or a failure that leaves nothing to measure.
pub fn run(
    name: &str,
    seed: u64,
    seconds: u64,
    tracer: &mut trace::Tracer,
) -> Result<Outcome, String> {
    match name {
        "pipeline-plain" => Ok(pipeline::run(
            &pipeline::shape(pipeline::Ids::Permuted, seconds),
            seed,
            tracer,
        )),
        "pipeline-memo" => Ok(pipeline::run(
            &pipeline::shape(pipeline::Ids::RowMajor, seconds),
            seed,
            tracer,
        )),
        "serve-hits" | "serve-mixed" => {
            let mix = if name == "serve-hits" {
                serve::Mix::Hits
            } else {
                serve::Mix::Mixed
            };
            let exe =
                std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
            serve::run(&exe, &serve::plan(mix, seconds), seed, tracer)
        }
        _ => Err(format!(
            "unknown workload {name:?} (have: {})",
            WORKLOADS.join(", ")
        )),
    }
}
