//! The benchmark's inputs and the program's counts repeat exactly for a
//! seed, and another seed gives other inputs. Short runs on small inputs.

use perfbench::pipeline::{self, Ids, Shape};
use perfbench::serve::{self, Mix, Plan};
use perfbench::trace::Tracer;
use perfbench::Outcome;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// One workload run at a time: the traced pipeline run reads the runtime's
/// process-wide memo counters, and the open loop's validity check needs a
/// generator that is not competing with another run for the cores.
fn one_run_at_a_time() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Metrics that are counts made by the program, not times.
fn counts(out: &Outcome) -> Vec<(String, f64)> {
    let count_like = |name: &str| {
        [
            "classes",
            "plans_memo",
            "plans_plain",
            "advice_bits",
            "hit_rate",
            "fp_reject_rate",
        ]
        .iter()
        .any(|s| name.ends_with(s))
            || name.starts_with("serve.hits")
            || [
                "serve.misses",
                "serve.verified",
                "serve.appended",
                "serve.errors",
            ]
            .contains(&name)
            || name.starts_with("runtime.store.classes")
            || name.starts_with("gen.requests")
            || name.starts_with("gen.queries")
    };
    out.metrics
        .iter()
        .filter(|(name, _)| count_like(name))
        .map(|(name, &v)| (name.clone(), v))
        .collect()
}

fn small_shape(ids: Ids) -> Shape {
    Shape {
        ids,
        side: 32,
        instances: 2,
    }
}

#[test]
fn pipeline_counts_repeat_for_a_seed() {
    let _serial = one_run_at_a_time();
    for ids in [Ids::Permuted, Ids::RowMajor] {
        let shape = small_shape(ids);
        let a = pipeline::run(&shape, 7, &mut Tracer::new(true));
        let b = pipeline::run(&shape, 7, &mut Tracer::new(true));
        assert!(a.correct() && b.correct(), "{ids:?}: {a:?}");
        assert_eq!(a.attempted, 6);
        let (ca, cb) = (counts(&a), counts(&b));
        assert!(ca.len() >= 18, "{ca:?}");
        assert_eq!(ca, cb, "{ids:?}");
    }
}

#[test]
fn pipeline_paths_follow_the_uid_layout() {
    let _serial = one_run_at_a_time();
    // One instance at the workloads' own size: the planner's choice
    // depends on it.
    let plain = pipeline::run(
        &pipeline::shape(Ids::Permuted, 1),
        3,
        &mut Tracer::new(true),
    );
    let memo = pipeline::run(
        &pipeline::shape(Ids::RowMajor, 1),
        3,
        &mut Tracer::new(true),
    );
    assert!(plain.correct() && memo.correct());
    for s in pipeline::SCHEMAS {
        let m = |o: &Outcome, layer: &str| o.metrics[&format!("runtime.{s}.{layer}")];
        assert_eq!(m(&plain, "plans_memo"), 0.0, "{s}");
        assert!(m(&plain, "plans_plain") > 0.0, "{s}");
        for layer in ["sweep_s", "key_s", "eval_s", "hit_rate"] {
            assert_eq!(m(&plain, layer), 0.0, "{s} {layer}");
        }
        assert!(m(&memo, "plans_memo") > 0.0, "{s}");
        assert_eq!(m(&memo, "plans_plain"), 0.0, "{s}");
        for layer in ["sweep_s", "key_s", "eval_s"] {
            assert!(m(&memo, layer) > 0.0, "{s} {layer}");
        }
        assert!(m(&memo, "hit_rate") >= 0.8, "{s}: {}", m(&memo, "hit_rate"));
    }
}

#[test]
fn pipeline_inputs_change_with_the_seed() {
    for ids in [Ids::Permuted, Ids::RowMajor] {
        let shape = small_shape(ids);
        assert_eq!(
            pipeline::instance_seeds(&shape, 1),
            pipeline::instance_seeds(&shape, 1)
        );
        let uids = |seed| {
            let net = pipeline::build(&shape, pipeline::instance_seeds(&shape, seed)[0]);
            net.graph().nodes().map(|v| net.uid(v)).collect::<Vec<_>>()
        };
        assert_eq!(uids(1), uids(1), "{ids:?}");
        assert_ne!(uids(1), uids(2), "{ids:?}");
    }
}

fn small_plan(mix: Mix) -> Plan {
    Plan {
        mix,
        closed_requests: 30,
        open_requests: 60,
        open_rate: 100.0,
        train_nets: 3,
        train_size: 48,
        hit_pool: 24,
        min_classes: 1,
        warm_hits: 2,
    }
}

fn exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_perfbench"))
}

#[test]
fn serving_counts_repeat_for_a_seed() {
    let _serial = one_run_at_a_time();
    for mix in [Mix::Hits, Mix::Mixed] {
        let plan = small_plan(mix);
        let a = serve::run(exe(), &plan, 5, &mut Tracer::new(true)).expect("traced run");
        let b = serve::run(exe(), &plan, 5, &mut Tracer::new(true)).expect("traced run");
        let (ca, cb) = (counts(&a), counts(&b));
        assert_eq!(ca, cb, "{mix:?}");
        let m = &a.metrics;
        assert_eq!(m["serve.errors"], 0.0, "{mix:?}");
        assert_eq!(m["serve.appended"], m["serve.misses"], "{mix:?}");
        if mix == Mix::Hits {
            assert_eq!(m["serve.misses"], 0.0);
        } else {
            assert!(m["serve.misses"] > 0.0);
            assert_eq!(
                m["runtime.store.classes_end"] - m["runtime.store.classes_start"],
                m["serve.appended"]
            );
        }
        assert!(a.correct(), "{mix:?}: {a:?}");
    }
}

#[test]
fn untraced_serving_reports_every_end_to_end_metric() {
    let _serial = one_run_at_a_time();
    let out = serve::run(exe(), &small_plan(Mix::Hits), 9, &mut Tracer::new(false))
        .expect("untraced run");
    assert!(out.correct(), "{out:?}");
    let line = out.to_json(false).expect("every metric measured");
    for (name, unit) in perfbench::END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        assert!(out.metrics[name] > 0.0, "{name}");
    }
}

#[test]
fn serving_inputs_change_with_the_seed() {
    let plan = small_plan(Mix::Mixed);
    assert_eq!(serve::schedule(&plan, 1, 40), serve::schedule(&plan, 1, 40));
    assert_ne!(serve::schedule(&plan, 1, 40), serve::schedule(&plan, 2, 40));
    let words = |seed| {
        serve::training_nets(&plan, seed)
            .iter()
            .map(|n| n.graph().nodes().map(|v| n.uid(v)).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    };
    assert_eq!(words(1), words(1));
    assert_ne!(words(1), words(2));
}
