//! The benchmark's own guarantees: a seeded, per-client-disjoint served
//! schedule; the ten-beyond tail-percentile rule; and a metric catalogue
//! that is legal and matches `BENCHMARK.json`.

use std::collections::BTreeSet;

use tvs_e2ebench::metrics::{valid_name, valid_unit, MetricDef, END_TO_END, PER_LAYER};
use tvs_e2ebench::schedule::{served_schedule, Kind, MIX};
use tvs_e2ebench::stats::{beyond, highest_tail_percentile, percentile};
use tvs_e2ebench::WORKLOADS;
use tvs_serve::json::{self, Value};

#[test]
fn schedule_is_a_pure_function_of_the_seed() {
    let a = served_schedule(7, 100, 2, 4);
    assert_eq!(a, served_schedule(7, 100, 2, 4));
    assert_ne!(a, served_schedule(8, 100, 2, 4));
}

#[test]
fn schedule_has_the_documented_mix_and_balance() {
    for seed in 0..20 {
        let plans = served_schedule(seed, 100, 2, 4);
        assert_eq!(plans.len(), 2);
        for steps in &plans {
            assert_eq!(steps.len(), 50);
            assert_eq!(steps[0].kind, Kind::Cold, "a client starts with a key");
            let count = |k: Kind| steps.iter().filter(|s| s.kind == k).count();
            assert_eq!(count(Kind::Cold), 50 * MIX.0 / 100);
            assert_eq!(count(Kind::Edit), 50 * MIX.1 / 100);
            // Cold submissions spread evenly over the base circuits.
            for circuit in 0..4 {
                let colds = steps
                    .iter()
                    .filter(|s| s.kind == Kind::Cold && s.circuit == circuit)
                    .count();
                assert_eq!(colds, 5, "seed {seed} circuit {circuit}");
            }
        }
    }
}

#[test]
fn clients_only_touch_their_own_keys() {
    for seed in 0..20 {
        let plans = served_schedule(seed, 100, 2, 4);
        let mut seeds_by_client: Vec<BTreeSet<u64>> = Vec::new();
        for steps in &plans {
            let mut created = 0usize;
            let mut seeds = BTreeSet::new();
            for step in steps {
                match step.kind {
                    Kind::Cold | Kind::Edit => {
                        assert_eq!(step.key, created, "keys are created in order");
                        created += 1;
                    }
                    Kind::Resubmit => assert!(step.key < created, "resubmits an own key"),
                }
                if let Some(parent) = step.parent {
                    assert!(parent < step.key, "edits an own earlier key");
                }
                if step.kind == Kind::Cold {
                    assert!(seeds.insert(step.config_seed), "cold seeds are fresh");
                }
                seeds.insert(step.config_seed);
            }
            seeds_by_client.push(seeds);
        }
        // No configuration (hence no key) is shared between clients, so
        // no request can attach to another client's in-flight run.
        assert!(seeds_by_client[0].is_disjoint(&seeds_by_client[1]));
    }
}

#[test]
fn p90_is_the_highest_percentile_with_ten_samples_beyond_at_100() {
    assert_eq!(beyond(100, 90), 10);
    assert_eq!(beyond(100, 91), 9);
    assert_eq!(highest_tail_percentile(100, 10, 99), Some(90));
    assert_eq!(highest_tail_percentile(100, 10, 90), Some(90));
    // Fewer samples push the admissible tail down, then out of reach.
    assert_eq!(highest_tail_percentile(50, 10, 90), Some(80));
    assert_eq!(highest_tail_percentile(21, 10, 90), Some(52));
    assert_eq!(highest_tail_percentile(19, 10, 90), None);
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 90), 90.0);
    assert_eq!(xs.iter().filter(|&&x| x > percentile(&xs, 90)).count(), 10);
}

fn check_catalogue(defs: &[MetricDef], listed: &Value, with_bound: bool) {
    let Value::Arr(listed) = listed else {
        panic!("metric list is not an array")
    };
    let names: Vec<&str> = listed
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let declared: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, declared, "BENCHMARK.json and the catalogue disagree");
    let mut seen = BTreeSet::new();
    for (def, entry) in defs.iter().zip(listed) {
        assert!(valid_name(def.name), "bad metric name {}", def.name);
        assert!(valid_unit(def.unit), "bad unit {}", def.unit);
        assert!(seen.insert(def.name), "duplicate metric {}", def.name);
        assert!(matches!(def.better, "lower" | "higher"));
        assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
        assert_eq!(
            entry.get("better").and_then(Value::as_str),
            Some(def.better)
        );
        let keys = match entry {
            Value::Obj(pairs) => pairs.len(),
            _ => 0,
        };
        assert_eq!(keys, if with_bound { 4 } else { 3 }, "{}", def.name);
        if with_bound {
            let bound: f64 = match entry.get("bound") {
                Some(Value::Num(s)) => s.parse().expect("bound"),
                _ => panic!("{} lacks a bound", def.name),
            };
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", def.name);
        }
    }
}

#[test]
fn metric_names_are_legal_and_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    check_catalogue(END_TO_END, doc.get("end_to_end").expect("end_to_end"), true);
    check_catalogue(PER_LAYER, doc.get("per_layer").expect("per_layer"), false);
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    let Some(Value::Arr(workloads)) = doc.get("workloads") else {
        panic!("workloads")
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
}
