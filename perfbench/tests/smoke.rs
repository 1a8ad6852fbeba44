//! The benchmark's own tests: tiny runs of every workload print every
//! metric `BENCHMARK.json` names, with its unit, and a perturbed oracle
//! is counted as a failed operation.

use perfbench::{metrics, Config, WORKLOADS};
use std::path::PathBuf;

fn tiny(seed: u64, trace: bool) -> Config {
    let mut cfg = Config::new(seed, 0.05, trace);
    cfg.tiny = true;
    cfg.worker = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    cfg.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    cfg
}

/// The quoted strings following each `"<key>": "` in `text`.
fn strings<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let pat = format!("\"{key}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

/// The array under `key` in `BENCHMARK.json`, as text.
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    &json[start..start + json[start..].find(']').expect("array end")]
}

/// `(name, unit)` of every metric in one array of `BENCHMARK.json`.
fn section<'a>(json: &'a str, key: &str) -> Vec<(&'a str, &'a str)> {
    let body = array(json, key);
    strings(body, "name")
        .into_iter()
        .zip(strings(body, "unit"))
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
}

#[test]
fn catalogue_matches_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(strings(array(&json, "workloads"), "name"), WORKLOADS);
    assert_eq!(section(&json, "end_to_end"), metrics::END_TO_END);
    assert_eq!(section(&json, "per_layer"), metrics::PER_LAYER);
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let json = benchmark_json();
    for trace in [false, true] {
        let wanted = section(&json, if trace { "per_layer" } else { "end_to_end" });
        for w in WORKLOADS {
            let m = perfbench::run(w, &tiny(7, trace)).expect("known workload");
            assert_eq!(m.failed, 0, "{w}: {:?}", m.lines);
            let line = metrics::result_line(&m, trace);
            assert!(line.starts_with("{\"correct\": true, "), "{w}: {line}");
            for (name, unit) in &wanted {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{w} misses {name}"));
                let rest = &line[at + entry.len()..];
                let unit_at = rest.find("\"unit\": \"").expect("unit follows value");
                assert!(
                    rest[unit_at + 9..].starts_with(&format!("{unit}\"")),
                    "{w} {name}"
                );
            }
            if !trace {
                assert!(
                    metrics::end_to_end(&m).iter().all(|&v| v > 0.0),
                    "{w}: {line}"
                );
            }
        }
    }
}

#[test]
fn a_perturbed_oracle_counts_in_failed_frac() {
    let failed_frac = metrics::PER_LAYER
        .iter()
        .position(|(n, _)| *n == "failed_frac")
        .expect("failed_frac is a per-layer metric");
    for w in WORKLOADS {
        let mut cfg = tiny(9, false);
        cfg.perturb_oracle = true;
        let m = perfbench::run(w, &cfg).expect("known workload");
        assert!(m.failed > 0, "{w}: the wrong oracle went unnoticed");
        assert!(metrics::per_layer(&m)[failed_frac] > 0.0, "{w}");
        assert!(metrics::result_line(&m, false).starts_with("{\"correct\": false, "));
    }
}

#[test]
fn amr3d_final_checksum_repeats_for_a_seed() {
    let cfg = tiny(5, false);
    let a = perfbench::amr3d::final_checksum(&cfg, 4);
    assert_eq!(a, perfbench::amr3d::final_checksum(&cfg, 4));
    assert_ne!(a, perfbench::amr3d::final_checksum(&tiny(6, false), 4));
}
