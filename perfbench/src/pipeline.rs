//! The `pipeline-*` workloads: encode → decode → check, one schema at a
//! time, on seeded torus instances.
//!
//! `pipeline-plain` labels each torus with Feistel-permuted uids
//! (`torus_net`), so no two balls share a canonical class and the planner
//! takes the plain parallel path. `pipeline-memo` labels tori row-major
//! from a seeded origin, so balls repeat classes and the planner takes the
//! memo path. The schemas and checkers are the same on both.

use crate::stats::{median, ratio, timed, Rng};
use crate::trace::{SpanId, Tracer};
use crate::Outcome;
use lad_core::balanced::BalancedOrientationSchema;
use lad_core::cluster_coloring::ClusterColoringSchema;
use lad_core::delta_coloring::DeltaColoringSchema;
use lad_core::schema::AdviceSchema;
use lad_core::torus_stream::torus_net;
use lad_graph::{coloring, generators, IdAssignment};
use lad_runtime::{MemoStats, Network};
use std::hint::black_box;
use std::time::Instant;

/// The schemas every pipeline workload runs, in run order.
pub const SCHEMAS: [&str; 3] = ["balanced", "cluster", "delta"];

/// How the instances' uids are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ids {
    /// Feistel-permuted uids (`torus_net`): every ball is its own class.
    Permuted,
    /// Row-major uids counted from a seeded origin: balls repeat classes.
    RowMajor,
}

/// Instance shape for one pipeline workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Uid layout.
    pub ids: Ids,
    /// Torus side.
    pub side: usize,
    /// Instances per run.
    pub instances: usize,
}

/// Torus side of both pipeline workloads (n = 16,384). Many mid-sized
/// instances rather than a few large ones: the reported figures are
/// medians over instances, and a median over many short jobs shrugs off a
/// burst of background load that would move one long job. The memo path's
/// hit rate depends on the exact side lengths, so the seed varies the uids
/// and never the size: otherwise the seed, not the program, would move
/// the figures.
const SIDE: usize = 128;
/// Seconds one instance takes through all three schemas on a 2-core x86-64
/// box, by uid layout; it turns `--seconds` into a fixed instance count,
/// so every count the program makes repeats exactly for a seed.
const PLAIN_INSTANCE_SECONDS: f64 = 2.8;
const MEMO_INSTANCE_SECONDS: f64 = 3.5;
/// Times the instances are built to take the median set-up time; building
/// takes milliseconds, so many repeats keep the median steady.
const SETUP_REPEATS: usize = 15;

/// The instance shape of workload `ids` for a run of `seconds`. The count
/// is odd so the median instance is an instance, not a mean of two.
pub fn shape(ids: Ids, seconds: u64) -> Shape {
    let per_instance = match ids {
        Ids::Permuted => PLAIN_INSTANCE_SECONDS,
        Ids::RowMajor => MEMO_INSTANCE_SECONDS,
    };
    let fit = (seconds as f64 / per_instance).round().max(1.0) as usize;
    Shape {
        ids,
        side: SIDE,
        instances: if fit.is_multiple_of(2) { fit - 1 } else { fit },
    }
}

/// The uid seeds of a run's instances, derived from the workload seed
/// alone: the Feistel key of `torus_net`, or the origin of the row-major
/// count.
pub fn instance_seeds(shape: &Shape, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 1);
    (0..shape.instances).map(|_| rng.next_u64()).collect()
}

/// Builds one `side × side` torus instance.
pub fn build(shape: &Shape, uid_seed: u64) -> Network {
    let side = shape.side;
    match shape.ids {
        Ids::Permuted => torus_net(side, side, uid_seed),
        Ids::RowMajor => {
            let (r0, c0) = (
                (uid_seed as usize) % side,
                ((uid_seed >> 32) as usize) % side,
            );
            let uids = (0..side * side)
                .map(|i| {
                    let (r, c) = (i / side, i % side);
                    (((r + side - r0) % side) * side + (c + side - c0) % side + 1) as u64
                })
                .collect();
            Network::with_ids(
                generators::grid2d(side, side, true),
                IdAssignment::from_uids(uids),
            )
        }
    }
}

/// The memo executor's counters over one call of `f`. This is the only
/// reader of the process-wide memo counters, and only the traced run calls
/// it: the counters are global state that a per-run statistics value is
/// meant to replace.
fn with_memo_counters<R>(f: impl FnOnce() -> R) -> (R, MemoStats) {
    lad_runtime::memo_stats_reset();
    let out = f();
    (out, lad_runtime::memo_stats())
}

/// One schema run on one instance.
#[derive(Debug, Clone, Default)]
struct Job {
    schema: usize,
    n: usize,
    encode_s: f64,
    deliver_s: f64,
    decode_s: f64,
    verify_s: f64,
    advice_bits: u64,
    memo: MemoStats,
    span: Option<SpanId>,
    ok: bool,
}

impl Job {
    /// What a user waits for: encode, decode and check. Delivery is timed
    /// on its own in the traced run only, because decode repeats it.
    fn latency_s(&self) -> f64 {
        self.encode_s + self.decode_s + self.verify_s
    }
}

fn run_job<S: AdviceSchema>(
    schema_index: usize,
    schema: &S,
    net: &Network,
    check: impl Fn(&S::Output) -> bool,
    tracer: &mut Tracer,
    instance: u64,
) -> Job {
    let name = SCHEMAS[schema_index];
    let mut job = Job {
        schema: schema_index,
        n: net.graph().n(),
        ..Job::default()
    };
    let job_start = Instant::now();
    let mut children = Vec::new();

    let start = Instant::now();
    let advice = schema.encode(net);
    job.encode_s = start.elapsed().as_secs_f64();
    children.push(tracer.record("encode", None, instance, start));
    let advice = match advice {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{name}: encode failed on instance {instance}: {e}");
            return job;
        }
    };
    job.advice_bits = advice.total_bits() as u64;

    if tracer.enabled() {
        let start = Instant::now();
        black_box(net.with_inputs(black_box(advice.strings())));
        job.deliver_s = start.elapsed().as_secs_f64();
        children.push(tracer.record("deliver", None, instance, start));
    }

    let start = Instant::now();
    let (decoded, memo) = if tracer.enabled() {
        with_memo_counters(|| schema.decode(net, &advice))
    } else {
        (schema.decode(net, &advice), MemoStats::default())
    };
    job.decode_s = start.elapsed().as_secs_f64();
    job.memo = memo;
    children.push(tracer.record("decode", None, instance, start));
    let output = match decoded {
        Ok((output, _rounds)) => output,
        Err(e) => {
            eprintln!("{name}: decode failed on instance {instance}: {e}");
            return job;
        }
    };

    let start = Instant::now();
    job.ok = check(&output);
    job.verify_s = start.elapsed().as_secs_f64();
    children.push(tracer.record("verify", None, instance, start));
    if !job.ok {
        eprintln!("{name}: output failed its checker on instance {instance}");
    }

    let span = tracer.record(name, None, instance, job_start);
    for child in children {
        tracer.set_parent(child, span);
    }
    job.span = Some(span);
    job
}

/// Runs one pipeline workload and returns its outcome.
pub fn run(shape: &Shape, seed: u64, tracer: &mut Tracer) -> Outcome {
    let seeds = instance_seeds(shape, seed);
    let mut setup = Vec::new();
    let mut build_s = Vec::new();
    let mut nets = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (built, elapsed) = timed(|| {
            seeds
                .iter()
                .map(|&uid_seed| {
                    let (net, s) = timed(|| build(shape, uid_seed));
                    build_s.push(s);
                    net
                })
                .collect::<Vec<_>>()
        });
        setup.push(elapsed);
        nets = built;
    }

    let balanced = BalancedOrientationSchema::default();
    let cluster = ClusterColoringSchema::default();
    let delta = DeltaColoringSchema::default();
    let run_start = Instant::now();
    let mut jobs: Vec<Job> = Vec::new();
    let mut instance_spans = Vec::new();
    let mut instance_heap = Vec::new();
    for (i, net) in nets.iter().enumerate() {
        let id = i as u64;
        crate::heap::reset_peak();
        let g = net.graph();
        let max_degree = g.max_degree();
        let start = Instant::now();
        let first = jobs.len();
        jobs.push(run_job(
            0,
            &balanced,
            net,
            |o| o.is_almost_balanced(g),
            tracer,
            id,
        ));
        jobs.push(run_job(
            1,
            &cluster,
            net,
            |c| coloring::is_proper_k_coloring(g, c, max_degree + 1),
            tracer,
            id,
        ));
        jobs.push(run_job(
            2,
            &delta,
            net,
            |c| coloring::is_proper_k_coloring(g, c, max_degree),
            tracer,
            id,
        ));
        let span = tracer.record("instance", None, id, start);
        for job in &jobs[first..] {
            if let Some(child) = job.span {
                tracer.set_parent(child, span);
            }
        }
        instance_spans.push(span);
        instance_heap.push(crate::heap::peak_mb());
    }
    let run_s = run_start.elapsed().as_secs_f64();

    let mut out = Outcome::new(jobs.len() as u64);
    out.failed = jobs.iter().filter(|j| !j.ok).count() as u64;

    // One request is one graph answered for all three schemas.
    let instance_s: Vec<f64> = jobs
        .chunks(SCHEMAS.len())
        .map(|c| c.iter().map(Job::latency_s).sum())
        .collect();
    let latencies_ms: Vec<f64> = instance_s.iter().map(|t| t * 1e3).collect();
    out.put("setup_s", median(&setup));
    out.put("peak_heap_mb", median(&instance_heap));
    out.put("latency_p50_ms", median(&latencies_ms));

    if tracer.enabled() {
        layer_metrics(&mut out, &jobs, tracer);
        out.put("graph.build_s", median(&build_s));
        let outputs = (SCHEMAS.len() * shape.side * shape.side) as f64;
        out.put("trace.outputs_per_s", ratio(outputs, median(&instance_s)));
        out.put("trace.spans", tracer.len() as f64);
        out.put(
            "trace.overhead_share",
            ratio(tracer.len() as f64 * crate::trace::span_cost_s(), run_s),
        );
    }
    out
}

fn layer_metrics(out: &mut Outcome, jobs: &[Job], tracer: &Tracer) {
    let self_s = tracer.self_times_s();
    let unattributed: Vec<f64> = jobs
        .iter()
        .map(|j| j.span.map_or(0.0, |id| self_s[id]))
        .collect();
    for (s, name) in SCHEMAS.iter().enumerate() {
        let mine: Vec<&Job> = jobs.iter().filter(|j| j.schema == s).collect();
        let med = |f: &dyn Fn(&Job) -> f64| median(&mine.iter().map(|j| f(j)).collect::<Vec<_>>());
        let sum = |f: &dyn Fn(&MemoStats) -> u64| mine.iter().map(|j| f(&j.memo)).sum::<u64>();
        let secs = |ns: u64| ns as f64 / 1e9;
        out.put(&format!("core.{name}.encode_s"), med(&|j| j.encode_s));
        out.put(
            &format!("core.{name}.advice_bits"),
            mine.iter().map(|j| j.advice_bits).sum::<u64>() as f64,
        );
        out.put(&format!("core.{name}.deliver_s"), med(&|j| j.deliver_s));
        out.put(&format!("runtime.{name}.decode_s"), med(&|j| j.decode_s));
        out.put(
            &format!("runtime.{name}.probe_s"),
            med(&|j| secs(j.memo.probe_ns)),
        );
        out.put(
            &format!("runtime.{name}.sweep_s"),
            med(&|j| secs(j.memo.sweep_ns)),
        );
        out.put(
            &format!("runtime.{name}.key_s"),
            med(&|j| secs(j.memo.key_ns)),
        );
        out.put(
            &format!("runtime.{name}.eval_s"),
            med(&|j| secs(j.memo.eval_ns)),
        );
        out.put(
            &format!("runtime.{name}.hit_rate"),
            ratio(sum(&|m| m.hits) as f64, sum(&|m| m.lookups) as f64),
        );
        out.put(
            &format!("runtime.{name}.fp_reject_rate"),
            ratio(sum(&|m| m.fp_rejects) as f64, sum(&|m| m.classes) as f64),
        );
        out.put(
            &format!("runtime.{name}.classes"),
            sum(&|m| m.classes) as f64,
        );
        out.put(
            &format!("runtime.{name}.plans_memo"),
            sum(&|m| m.plans_memo) as f64,
        );
        out.put(
            &format!("runtime.{name}.plans_plain"),
            sum(&|m| m.plans_plain) as f64,
        );
        out.put(&format!("graph.{name}.verify_s"), med(&|j| j.verify_s));
        out.put(
            &format!("pipeline.{name}.nodes_per_s"),
            med(&|j| ratio(j.n as f64, j.latency_s())),
        );
        let own: Vec<f64> = jobs
            .iter()
            .zip(&unattributed)
            .filter(|(j, _)| j.schema == s)
            .map(|(_, &u)| u)
            .collect();
        out.put(&format!("pipeline.{name}.unattributed_s"), median(&own));
    }
}
