//! The benchmark every performance or simplicity claim about this
//! reproduction is measured with. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! benchmark [--seed N] [--seconds S] [--only W] [--aa]      every workload, timed then traced
//! benchmark --print-contract                                renders BENCHMARK.json
//! ```
//!
//! Each timed repetition is one set-up plus one measured phase in a fresh
//! single-threaded subprocess (this binary with `--child`), with
//! `SIMNET_SHARDS` and `NEWSWIRE_DELTAS` scrubbed from its environment, so
//! `peak_rss_mb` is per repetition and the mode is pinned by explicit
//! configuration. Repetitions run until their measured phases add up to
//! `--seconds`; medians are reported.

mod alloc;
mod kernels;
mod metrics;
mod probe;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use metrics::{Better, Metric, END_TO_END, PER_LAYER};
use workloads::Sample;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Fewest repetitions a timed run reports a median of.
const MIN_REPS: usize = 3;
/// Stop adding repetitions once a run has taken this long, whatever
/// `--seconds` says: the driver allows 180 s per run.
const RUN_BUDGET_S: f64 = 120.0;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `--trace 0|1`; its presence with `--workload` is the driver's form.
    trace: Option<bool>,
    child: bool,
    aa: bool,
    print_contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { seed: 1, seconds: metrics::RUN_SECONDS as f64, ..Args::default() };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" | "--only" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = Some(value()? == "1"),
            "--child" => a.child = true,
            "--aa" => a.aa = true,
            "--print-contract" => a.print_contract = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?} (expected one of {:?})", workloads::NAMES));
        }
    }
    Ok(a)
}

/// `--child`: one repetition in this process; prints `key value` lines.
fn child(a: &Args) -> Result<(), String> {
    let workload = a.workload.as_deref().ok_or("--child needs --workload")?;
    let s = workloads::run(workload, a.seed, false, a.trace == Some(true))?;
    println!("attempted {}", s.attempted);
    println!("failed {}", s.failed);
    for (k, v) in &s.values {
        println!("{k} {v}");
    }
    Ok(())
}

/// Runs one repetition in a fresh subprocess and parses what it printed.
fn spawn_rep(workload: &str, seed: u64, traced: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .env_remove("SIMNET_SHARDS")
        .env_remove("NEWSWIRE_DELTAS");
    // `output` waits for the child to end and collects its streams.
    let out = cmd.output().map_err(|e| format!("starting a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} repetition failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let mut s = Sample::default();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let (k, v) = line.split_once(' ').ok_or_else(|| format!("bad child line {line:?}"))?;
        match k {
            "attempted" => s.attempted = v.parse().map_err(|e| format!("{line:?}: {e}"))?,
            "failed" => s.failed = v.parse().map_err(|e| format!("{line:?}: {e}"))?,
            _ => s.set(k, v.parse().map_err(|e| format!("{line:?}: {e}"))?),
        }
    }
    Ok(s)
}

/// Python's `statistics.quantiles(v, n=4)` (the exclusive method), which is
/// what the acceptance rule is stated in.
fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return [v[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// All repetitions of one mode must agree on every simulated metric and
/// count; allocation counts are expected to, and only warn when they do not.
fn check_repeatable(workload: &str, reps: &[Sample]) -> Result<(), String> {
    let first = &reps[0];
    for other in &reps[1..] {
        if (first.attempted, first.failed) != (other.attempted, other.failed) {
            return Err(format!("{workload}: attempted/failed differ between repetitions"));
        }
        for (k, v) in &first.values {
            let same = other.values.get(k) == Some(v);
            if !same && metrics::must_repeat(k) {
                return Err(format!(
                    "{workload}: {k} differs between repetitions of one seed: {v} vs {:?}",
                    other.values.get(k)
                ));
            }
        }
    }
    let allocs: Vec<f64> = reps.iter().map(|r| r.values["host.allocs"]).collect();
    let (lo, hi) = allocs.iter().fold((f64::MAX, f64::MIN), |(lo, hi), a| (lo.min(*a), hi.max(*a)));
    if lo != hi {
        eprintln!("warning: {workload}: host.allocs did not repeat exactly ({lo} to {hi})");
    }
    Ok(())
}

/// One driver run's result.
struct Report {
    attempted: u64,
    failed: u64,
    /// The metrics the contract asks for in this mode.
    metrics: Vec<(Metric, f64)>,
    /// Extra lines for people: sample counts, repetitions.
    notes: Vec<String>,
}

fn pick(table: &[Metric], values: &BTreeMap<String, f64>) -> Result<Vec<(Metric, f64)>, String> {
    table
        .iter()
        .map(|m| match values.get(m.name) {
            Some(v) if v.is_finite() => Ok((*m, *v)),
            other => Err(format!("metric {} missing or not finite: {other:?}", m.name)),
        })
        .collect()
}

/// Host-noise keys take the median over repetitions; the rest are identical
/// across repetitions (checked), so the first stands for all.
fn combine(reps: &[Sample]) -> BTreeMap<String, f64> {
    let mut out = reps[0].values.clone();
    for (k, v) in &mut out {
        if metrics::is_host_key(k) {
            let all: Vec<f64> = reps.iter().filter_map(|r| r.values.get(k).copied()).collect();
            *v = median(&all);
        }
    }
    out
}

fn walls(reps: &[Sample]) -> Vec<f64> {
    reps.iter().map(|r| r.values["wall_s"]).collect()
}

/// `--trace 0`: timed repetitions until their measured phases add up to
/// `seconds`; end-to-end metrics as medians.
fn timed_run(workload: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let started = Instant::now();
    let mut reps: Vec<Sample> = Vec::new();
    while reps.len() < MIN_REPS
        || (walls(&reps).iter().sum::<f64>() < seconds
            && started.elapsed().as_secs_f64() < RUN_BUDGET_S)
    {
        reps.push(spawn_rep(workload, seed, false)?);
    }
    check_repeatable(workload, &reps)?;
    let values = combine(&reps);
    let n = reps.len() as u64;
    Ok(Report {
        attempted: reps[0].attempted * n,
        failed: reps[0].failed * n,
        metrics: pick(END_TO_END, &values)?,
        notes: vec![
            format!("repetitions {n} (medians of host metrics)"),
            format!(
                "deliver samples {} per repetition; deliver_p999_ms is p{}",
                values["deliver_samples"], values["deliver_top_pct"]
            ),
            format!(
                "wanted deliveries {} per repetition, {} missing",
                reps[0].attempted, reps[0].failed
            ),
        ],
    })
}

/// `--trace 1`: untraced and traced repetitions interleaved, then the
/// kernels; per-layer metrics. End-to-end numbers never come from here.
fn traced_run(workload: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let started = Instant::now();
    let (mut bare, mut traced): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    while bare.len() < 2
        || (walls(&bare).iter().chain(&walls(&traced)).sum::<f64>() < seconds
            && started.elapsed().as_secs_f64() < RUN_BUDGET_S)
    {
        bare.push(spawn_rep(workload, seed, false)?);
        traced.push(spawn_rep(workload, seed, true)?);
    }
    check_repeatable(workload, &bare)?;
    check_repeatable(workload, &traced)?;

    // The probe must perturb nothing: same events, same simulated outcome.
    for (k, v) in &bare[0].values {
        if metrics::must_repeat(k) && traced[0].values.get(k) != Some(v) {
            return Err(format!(
                "{workload}: {k} is {v} untraced but {:?} traced — the probe perturbed the run",
                traced[0].values.get(k)
            ));
        }
    }

    // Trace-only keys come from the traced repetitions; everything the
    // untraced repetitions also measured comes from them, probe-free.
    let mut values = combine(&traced);
    values.extend(combine(&bare));
    let (wb, wt) = (walls(&bare), walls(&traced));
    let q = quartiles(&wb);
    values.insert("host.wall_s_min".into(), wb.iter().copied().fold(f64::INFINITY, f64::min));
    values.insert("host.wall_s_iqr".into(), q[2] - q[0]);
    values.insert(
        "host.trace_overhead_pct".into(),
        100.0 * (median(&wt) - median(&wb)) / median(&wb),
    );
    values.extend(kernels::run(workload, seed));

    let n = bare.len() as u64;
    Ok(Report {
        attempted: bare[0].attempted * 2 * n,
        failed: bare[0].failed * 2 * n,
        metrics: pick(PER_LAYER, &values)?,
        notes: vec![format!("repetitions {n} untraced + {n} traced, interleaved")],
    })
}

fn print_report(workload: &str, r: &Report) {
    println!("# {workload}");
    for (m, v) in &r.metrics {
        println!("{:<40} {:>18} {}", m.name, format!("{v:.6}"), m.unit);
    }
    for note in &r.notes {
        println!("# {note}");
    }
}

/// The contract's last line: one JSON object with exactly these keys.
fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(m, v)| format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit))
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// `(workload, metric name)` → the metric's contract and its value.
type Results = BTreeMap<(String, String), (Metric, f64)>;

/// Every metric of every (selected) workload: timed runs first, traced after.
fn whole_benchmark(a: &Args) -> Result<Results, String> {
    let mut all = BTreeMap::new();
    for workload in workloads::NAMES {
        if a.workload.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        for traced in [false, true] {
            let r = if traced {
                traced_run(workload, a.seed, a.seconds)?
            } else {
                timed_run(workload, a.seed, a.seconds)?
            };
            print_report(workload, &r);
            for (m, v) in r.metrics {
                all.insert((workload.to_owned(), m.name.to_owned()), (m, v));
            }
        }
    }
    Ok(all)
}

/// `--aa`: the whole benchmark twice on one build and seed. Simulated
/// metrics and counts must be identical; host metrics must agree within
/// their bounds.
fn aa(a: &Args) -> Result<(), String> {
    let first = whole_benchmark(a)?;
    let second = whole_benchmark(a)?;
    let mut bad = Vec::new();
    println!("# A/A: same build, same seed, run twice");
    println!(
        "{:<20} {:<36} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A", "A'", "diff", "bound"
    );
    for ((workload, name), (m, x)) in &first {
        let (_, y) = second[&(workload.clone(), name.clone())];
        let base = x.abs().max(f64::MIN_POSITIVE);
        let worse = if m.better == Better::Lower { y - x } else { x - y } / base;
        let spread = (y - x).abs() / base;
        let is_e2e = m.bound > 0.0;
        if is_e2e || *x != y {
            println!(
                "{workload:<20} {name:<36} {x:>16.6} {y:>16.6} {:>8.2}% {:>6.1}%",
                100.0 * spread,
                100.0 * m.bound
            );
        }
        if is_e2e && worse.abs() > m.bound {
            bad.push(format!("{workload}/{name}: {x} vs {y} exceeds the {} bound", m.bound));
        } else if metrics::must_repeat(name) && *x != y {
            bad.push(format!("{workload}/{name}: simulated metric differs: {x} vs {y}"));
        }
    }
    if bad.is_empty() {
        println!("# A/A passed");
        Ok(())
    } else {
        Err(format!("A/A failed:\n  {}", bad.join("\n  ")))
    }
}

fn run(a: &Args) -> Result<(), String> {
    if a.print_contract {
        print!("{}", metrics::contract_json());
        return Ok(());
    }
    if a.child {
        return child(a);
    }
    if a.aa {
        return aa(a);
    }
    // The driver's form names one workload and a trace mode; anything less
    // runs the whole benchmark.
    let (Some(workload), Some(trace)) = (a.workload.as_deref(), a.trace) else {
        return whole_benchmark(a).map(|_| ());
    };
    let r = if trace {
        traced_run(workload, a.seed, a.seconds)?
    } else {
        timed_run(workload, a.seed, a.seconds)?
    };
    print_report(workload, &r);
    println!("{}", result_line(&r));
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    /// Every name in the contract is produced by something: end-to-end
    /// metrics by an untraced repetition, per-layer metrics by a traced
    /// repetition, the kernels, or the parent's own wall statistics.
    #[test]
    fn every_contract_metric_has_a_source() {
        let bare = workloads::run("lossy_revisions", 5, true, false).expect("valid");
        for m in END_TO_END {
            assert!(bare.values.contains_key(m.name), "no repetition reports {}", m.name);
        }
        let traced = workloads::run("lossy_revisions", 5, true, true).expect("valid");
        let kernels = kernels::run("lossy_revisions", 5);
        assert!(kernels.values().all(|v| v.is_finite() && *v > 0.0), "{kernels:?}");
        let parent = ["host.wall_s_min", "host.wall_s_iqr", "host.trace_overhead_pct"];
        for m in PER_LAYER {
            let sources = [
                traced.values.contains_key(m.name),
                kernels.contains_key(m.name),
                parent.contains(&m.name),
            ];
            assert_eq!(sources.iter().filter(|s| **s).count(), 1, "{}: {sources:?}", m.name);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = Report {
            attempted: 7,
            failed: 0,
            metrics: vec![(END_TO_END[0], 0.8127), (END_TO_END[1], 1.25)],
            notes: vec![],
        };
        assert_eq!(
            result_line(&r),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
