//! Command line of the quadforest benchmark.
//!
//! ```text
//! perfbench --workload <amr3d|advect2d|serve|paper_kernels> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints provenance, the human-readable report and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer with `--trace 1`).

use perfbench::{metrics, Config, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument: {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", args.seconds));
    }
    Ok(args)
}

/// `HEAD` of the enclosing git checkout, read from `.git` directly.
fn git_head() -> String {
    let mut dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf();
    loop {
        let git = dir.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(name) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            if let Ok(id) = std::fs::read_to_string(git.join(name)) {
                return id.trim().to_string();
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
            return packed
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
                .unwrap_or_else(|| format!("unresolved {name}"));
        }
        if !dir.pop() {
            return "none (not a git checkout)".to_string();
        }
    }
}

fn main() -> ExitCode {
    // spawned socket ranks run their program and exit here
    if quadforest_comm::maybe_run_socket_child(&perfbench::registry()) {
        return ExitCode::SUCCESS;
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::new(args.seed, args.seconds, args.trace);
    // Socket rank processes meet on a Unix socket in the temp directory.
    // Keep it inside the checkout, and short: socket paths are limited to
    // about 100 bytes. Set before any thread starts.
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("perfbench: {}: {e}", cfg.out_dir.display());
        return ExitCode::FAILURE;
    }
    let tmp = std::env::current_dir()
        .ok()
        .and_then(|cwd| cfg.out_dir.strip_prefix(cwd).ok().map(|p| p.to_path_buf()))
        .unwrap_or_else(|| cfg.out_dir.clone());
    std::env::set_var("TMPDIR", tmp);
    let m = perfbench::run(&args.workload, &cfg).expect("workload name checked by parse");
    println!(
        "provenance: git {} | nproc {} | simd {} | profile {} | workload {} | backend {} | seed {} | seconds {} | trace {}",
        git_head(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        quadforest_core::simd::active_features(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.workload,
        m.backend,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let q = |v: &[f64], p: f64| perfbench::stats::quantile(v, p) * 1e3;
    println!(
        "op wall (ms): n {} | p25 {:.3} | p50 {:.3} | p75 {:.3} | max {:.3}",
        m.op_s.len(),
        q(&m.op_s, 0.25),
        q(&m.op_s, 0.5),
        q(&m.op_s, 0.75),
        q(&m.op_s, 1.0)
    );
    for line in &m.lines {
        println!("{line}");
    }
    print!("{}", metrics::table(&m));
    println!("{}", metrics::result_line(&m, args.trace));
    ExitCode::SUCCESS
}
