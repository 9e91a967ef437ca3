//! Time-to-coverage benchmark.
//!
//! ```text
//! ttcbench --workload <rocket-evolve|rocket-lm|boom-spool-fleet>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is an ensemble of independent campaigns (or fleets)
//! whose seeds derive from `--seed`. With `--trace 0` the run measures
//! the end-to-end metrics with no instrumentation, then re-runs members
//! until `--seconds` have passed to check that every run of a member
//! reproduces its `report::json_canonical` byte for byte. With
//! `--trace 1` it runs the ensemble untraced, re-runs some members
//! through timing wrappers (`Dut`, `InputGenerator`, a lease observer),
//! replays a sample of their inputs through the per-test layers, and
//! reports the per-layer metrics. Spans are written to
//! `.ttcbench/spans-<workload>-<seed>.jsonl`.
//!
//! Human-readable lines go to stdout first; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.

mod replay;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use spans::{Span, SpanCtx, Tracer};
use stats::{derive_seed, mean, median, spread};
use workloads::{nproc, run_member, Kind, Member, TraceHooks, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds `{value}`"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(5),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// Per-member samples behind the value, for the table's median,
    /// spread and count (empty when the value is a single measurement).
    samples: Vec<f64>,
    /// Printed in the table only, not in the JSON result.
    table_only: bool,
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn push(&mut self, name: &str, unit: &'static str, value: f64, samples: Vec<f64>) {
        let name = name.to_string();
        self.metrics.push(Metric { name, unit, value, samples, table_only: false });
    }

    /// A metric for the table only: one that can legitimately be 0 on a
    /// workload (no bugs on BOOM), so it carries no relative bound.
    fn note(&mut self, name: &str, unit: &'static str, value: f64, samples: Vec<f64>) {
        let name = name.to_string();
        self.metrics.push(Metric { name, unit, value, samples, table_only: true });
    }
}

/// Runs one member, turning a panic into `None`.
fn try_member(workload: &Workload, seed: u64, hooks: Option<&TraceHooks>) -> Option<Member> {
    catch_unwind(AssertUnwindSafe(|| run_member(workload, seed, hooks))).ok()
}

/// Per-member output checks that need no second run.
fn member_ok(workload: &Workload, member: &Member) -> bool {
    member.tests == workload.tests
        && member.history.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1)
        && member.final_pct > 0.0
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`;
/// zeros where it cannot be read.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .map(|rest| rest.split_whitespace().filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The untraced ensemble: every member once, in index order.
fn run_ensemble(workload: &Workload, seed: u64, outcome: &mut Outcome) -> Vec<Option<Member>> {
    (0..workload.members)
        .map(|k| {
            outcome.attempted += 1;
            let member = try_member(workload, derive_seed(seed, k), None);
            let good = member.as_ref().is_some_and(|m| member_ok(workload, m));
            if !good {
                outcome.failed += 1;
            }
            if let Some(m) = &member {
                outcome.attempted += m.lease_attempts;
                outcome.failed += m.lease_failures;
            }
            member.filter(|_| good)
        })
        .collect()
}

fn end_to_end(workload: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome { attempted: 0, failed: 0, metrics: Vec::new() };
    let started = Instant::now();
    let ensemble = run_ensemble(workload, seed, &mut outcome);
    let members: Vec<&Member> = ensemble.iter().flatten().collect();
    // Output check: re-run members until the time is up (at least one);
    // every re-run must reproduce its first run's canonical report.
    let mut reruns = 0;
    while reruns == 0 || started.elapsed().as_secs_f64() < seconds {
        let k = reruns % workload.members;
        reruns += 1;
        outcome.attempted += 1;
        let again = try_member(workload, derive_seed(seed, k), None);
        let same = match (&ensemble[k], &again) {
            (Some(first), Some(second)) => first.canonical == second.canonical,
            _ => false,
        };
        if !same {
            outcome.failed += 1;
        }
    }

    let total_bins = members.first().map_or(1, |m| m.total_bins) as f64;
    let histories: Vec<Vec<(usize, usize)>> = members.iter().map(|m| m.history.clone()).collect();
    let target_bins = workload.target_pct / 100.0 * total_bins;
    let crossing = stats::mean_curve_crossing(&histories, target_bins);
    if crossing.is_none() || members.len() != workload.members {
        outcome.failed += 1;
    }
    let tests_to_target = crossing.unwrap_or(workload.tests as f64);
    let walls: Vec<f64> = members.iter().filter_map(|m| m.wall_at(tests_to_target)).collect();
    let setups: Vec<f64> = members.iter().map(|m| m.setup_s).collect();
    let rates: Vec<f64> = members.iter().map(|m| m.tests as f64 / m.fuzz_s).collect();
    let cycle_rates: Vec<f64> = members.iter().map(|m| m.cycles as f64 / m.fuzz_s).collect();
    let fuzz_s: f64 = members.iter().map(|m| m.fuzz_s).sum();
    let tests: usize = members.iter().map(|m| m.tests).sum();
    let cycles: u64 = members.iter().map(|m| m.cycles).sum();
    let finals: Vec<f64> = members.iter().map(|m| m.final_pct).collect();
    let bugs: Vec<f64> = members.iter().map(|m| m.bugs as f64).collect();

    outcome.push("setup_s", "s", median(&setups), setups);
    outcome.push("wall_s_to_target", "s", mean(&walls), walls);
    outcome.push("tests_per_s", "tests/s", tests as f64 / fuzz_s, rates);
    outcome.push("sim_cycles_per_s", "cycles/s", cycles as f64 / fuzz_s, cycle_rates);
    outcome.push("tests_to_target", "tests", tests_to_target, Vec::new());
    outcome.push("final_coverage_pct", "%", mean(&finals), finals);
    outcome.push("peak_rss_mb", "MiB", peak_rss_mb(), Vec::new());
    outcome.note("bugs_found", "count", mean(&bugs), bugs);
    println!(
        "# {}: {} members x {} tests, {} re-runs checked, target {:.2}% of {} bins",
        workload.name, workload.members, workload.tests, reruns, workload.target_pct, total_bins
    );
    outcome
}

/// Sum of span seconds and counts per span name.
fn totals(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64, usize)> {
    let mut out: BTreeMap<&'static str, (f64, u64, usize)> = BTreeMap::new();
    for s in spans {
        let entry = out.entry(s.name).or_default();
        entry.0 += s.secs();
        entry.1 += s.count;
        entry.2 += 1;
    }
    out
}

/// Fleet critical path and skew: per fleet, leases grouped into
/// generations by start order; a generation's critical path is its
/// longest lease. Returns (Σ critical-path seconds, per-generation
/// max−min lease seconds).
fn lease_critical_path(spans: &[Span]) -> (f64, Vec<f64>) {
    let mut by_run: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "orchestrate.lease") {
        by_run.entry(s.run).or_default().push(s);
    }
    let mut critical = 0.0;
    let mut skews = Vec::new();
    for leases in by_run.values_mut() {
        leases.sort_by_key(|s| s.start_ns);
        for generation in leases.chunks(workloads::FAN_OUT) {
            let secs: Vec<f64> = generation.iter().map(|s| s.secs()).collect();
            let max = secs.iter().copied().fold(0.0, f64::max);
            let min = secs.iter().copied().fold(f64::INFINITY, f64::min);
            critical += max;
            skews.push(max - min);
        }
    }
    (critical, skews)
}

/// The traced run: untraced ensemble, traced re-runs of the first
/// `traced_members`, replay, per-layer metrics.
fn per_layer(workload: &Workload, seed: u64) -> Outcome {
    let mut outcome = Outcome { attempted: 0, failed: 0, metrics: Vec::new() };
    let ensemble = run_ensemble(workload, seed, &mut outcome);
    let traced_n = workload.traced_members.min(workload.members);

    let tracer = Tracer::new();
    let sample = Arc::new(Mutex::new(Vec::new()));
    let batches_per_member = workload.tests.div_ceil(workloads::BATCH) as u64;
    let sample_every = (batches_per_member * traced_n as u64 / 128).max(1);
    // Each traced member runs right after an untraced re-run of itself,
    // so the overhead pairs runs made under the same machine load; both
    // must reproduce the ensemble's canonical report.
    let mut traced = Vec::new();
    let mut paired = Vec::new();
    for (k, first) in ensemble.iter().enumerate().take(traced_n) {
        outcome.attempted += 2;
        let untraced = try_member(workload, derive_seed(seed, k), None);
        let run = k as u64 + 1;
        let parent = tracer.open("bench.member", run, 0);
        let hooks = TraceHooks {
            ctx: SpanCtx { tracer: Arc::clone(&tracer), run, parent },
            sample_every,
            sample: Arc::clone(&sample),
        };
        let member = try_member(workload, derive_seed(seed, k), Some(&hooks));
        tracer.close(parent);
        for rerun in [&untraced, &member] {
            let same = match (first, rerun) {
                (Some(first), Some(again)) => first.canonical == again.canonical,
                _ => false,
            };
            if !same {
                outcome.failed += 1;
            }
        }
        traced.extend(member);
        paired.extend(untraced);
    }
    let spans = tracer.spans();
    let path = workloads::out_dir().join(format!("spans-{}-{seed}.jsonl", workload.name));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }

    let make = match workload.kind {
        Kind::BoomSpoolFleet => workloads::boom,
        _ => workloads::rocket,
    };
    let bodies = std::mem::take(&mut *sample.lock().expect("input sample poisoned"));
    let costs = replay::replay(&bodies, workloads::BATCH, make);

    let t = totals(&spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let us_per = |name: &str| {
        let (secs, count, _) = get(name);
        if count == 0 {
            0.0
        } else {
            secs * 1e6 / count as f64
        }
    };
    let traced_tests: usize = traced.iter().map(|m| m.tests).sum();
    let traced_fuzz: f64 = traced.iter().map(|m| m.fuzz_s).sum();
    let (rtl_s, rtl_n, _) = get("rtl.run_into");
    let (execute_s, execute_tests, batches) = get("core.campaign.execute");
    let main_thread_s = ["baselines.random.next_batch", "evolve.next_batch", "lm.next_batch"]
        .iter()
        .chain(&["baselines.random.observe", "evolve.observe", "lm.observe"])
        .chain(&["core.generator.seed_exchange"])
        .map(|name| get(name).0)
        .sum::<f64>();
    let replayed_s = execute_tests as f64 * costs.main_thread();
    let (critical_s, skews) = lease_critical_path(&spans);
    let (lease_s, _, leases) = get("orchestrate.lease");
    // The campaigns' main threads run for the whole fuzzing wall; in a
    // fleet they are the lease campaigns' main threads.
    let main_wall = if leases > 0 { lease_s } else { traced_fuzz };
    // Pool wait: the execute interval minus what the replay says its
    // harness, diff and scoring cost. The remainder is main-thread
    // bookkeeping no span covers (scheduler, history, observers).
    let wait_share = (execute_s - replayed_s) / main_wall;
    let unattributed = 1.0 - (main_thread_s + execute_s) / main_wall;
    let (lm_s, lm_tests, _) = get("lm.next_batch");
    let (_, lm_tokens, _) = get("lm.tokens");
    let (publish_s, _, publishes) = get("lm.publish");
    let (seed_s, _, _) = get("core.generator.seed_exchange");

    outcome.push("rtl.run_into_us_per_test", "us", us_per("rtl.run_into"), Vec::new());
    outcome.push(
        "rtl.busy_share",
        "ratio",
        if rtl_n == 0 { 0.0 } else { rtl_s / (nproc() as f64 * traced_fuzz) },
        Vec::new(),
    );
    outcome.push("softcore.run_into_us_per_test", "us", costs.softcore * 1e6, Vec::new());
    outcome.push("core.harness.build_into_us_per_test", "us", costs.harness * 1e6, Vec::new());
    outcome.push("core.mismatch.diff_traces_us_per_test", "us", costs.diff * 1e6, Vec::new());
    outcome.push("coverage.score_us_per_test", "us", costs.score * 1e6, Vec::new());
    outcome.push("core.campaign.wait_share", "ratio", wait_share, Vec::new());
    outcome.push("bench.unattributed_share", "ratio", unattributed, Vec::new());
    for (metric, span) in [
        ("baselines.random.next_batch_us_per_test", "baselines.random.next_batch"),
        ("evolve.next_batch_us_per_test", "evolve.next_batch"),
        ("evolve.observe_us_per_test", "evolve.observe"),
        ("lm.next_batch_us_per_test", "lm.next_batch"),
    ] {
        outcome.push(metric, "us", us_per(span), Vec::new());
    }
    outcome.push(
        "lm.tokens_per_s",
        "tokens/s",
        if lm_tests == 0 { 0.0 } else { lm_tokens as f64 / lm_s },
        Vec::new(),
    );
    outcome.push("lm.observe_us_per_test", "us", us_per("lm.observe"), Vec::new());
    outcome.push(
        "lm.publish_s_per_epoch",
        "s",
        if publishes == 0 { 0.0 } else { publish_s / publishes as f64 },
        Vec::new(),
    );
    outcome.push(
        "core.generator.seed_exchange_us_per_batch",
        "us",
        if batches == 0 { 0.0 } else { seed_s * 1e6 / batches as f64 },
        Vec::new(),
    );

    // Per-arm useful work, from every untraced member's statistics.
    let members: Vec<&Member> = ensemble.iter().flatten().collect();
    let bugs: Vec<f64> = members.iter().map(|m| m.bugs as f64).collect();
    outcome.push("core.mismatch.bugs_found", "count", mean(&bugs), bugs);
    let all_tests: usize = members.iter().map(|m| m.tests).sum::<usize>().max(1);
    for arm in ["random", "evolve", "chatfuzz"] {
        let (mut tests, mut bins) = (0usize, 0usize);
        for stats in members.iter().flat_map(|m| &m.arms).filter(|s| s.name == arm) {
            tests += stats.tests;
            bins += stats.new_bins;
        }
        let per_k = if tests == 0 { 0.0 } else { 1000.0 * bins as f64 / tests as f64 };
        let prefix = format!("baselines.schedule.{arm}");
        outcome.push(&format!("{prefix}.new_bins_per_ktest"), "bins/ktest", per_k, Vec::new());
        outcome.push(
            &format!("{prefix}.test_share"),
            "ratio",
            tests as f64 / all_tests as f64,
            Vec::new(),
        );
    }

    let (save_s, load_s, bytes) = match traced.last().and_then(|m| m.snapshot.as_ref()) {
        Some(snapshot) => workloads::persist_replay(snapshot, &workloads::out_dir(), 5),
        None => (0.0, 0.0, 0),
    };
    outcome.push("core.persist.save_ms", "ms", save_s * 1e3, Vec::new());
    outcome.push("core.persist.load_ms", "ms", load_s * 1e3, Vec::new());
    outcome.push("core.persist.snapshot_kb", "KiB", bytes as f64 / 1024.0, Vec::new());

    let fleet_wall: f64 = if leases > 0 { traced_fuzz } else { 0.0 };
    outcome.push(
        "orchestrate.coordination_share",
        "ratio",
        if leases > 0 { 1.0 - critical_s / fleet_wall } else { 0.0 },
        Vec::new(),
    );
    outcome.push("orchestrate.lease_skew_s", "s", mean(&skews), Vec::new());

    // Trace overhead: traced vs untraced throughput on the same members.
    let untraced_rate = paired.iter().map(|m| m.tests).sum::<usize>() as f64
        / paired.iter().map(|m| m.fuzz_s).sum::<f64>();
    let traced_rate = traced_tests as f64 / traced_fuzz;
    outcome.push("bench.trace_overhead", "ratio", traced_rate / untraced_rate - 1.0, Vec::new());

    println!(
        "# {}: traced {} of {} members, replayed {} sampled tests, spans in {}",
        workload.name,
        traced.len(),
        workload.members,
        costs.tests,
        path.display()
    );
    if leases > 0 {
        // Coordination is defined as the wall the critical path leaves
        // over, so the fleet identity holds by construction.
        println!(
            "# attribution (fleet): critical-path leases {:.3} s + coordination {:.3} s = \
             fleet wall {:.3} s over {} leases",
            critical_s,
            fleet_wall - critical_s,
            fleet_wall,
            leases
        );
    }
    println!(
        "# attribution (main thread): generators+seeds {:.3} s + replayed harness/diff/score \
         {:.3} s + pool wait {:.3} s of {:.3} s; unattributed {:+.1}%{}",
        main_thread_s,
        replayed_s,
        wait_share * main_wall,
        main_wall,
        100.0 * unattributed,
        if unattributed.abs() <= 0.10 || leases > 0 { "" } else { "  (EXCEEDS 10%)" }
    );
    // The main-thread check applies to the campaign workloads; a fleet's
    // lease wall also holds lease set-up, checkpoints and result writes,
    // and its check is the lease critical path above.
    if unattributed.abs() > 0.10 && leases == 0 {
        outcome.failed += 1;
    }
    outcome
}

fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_outcome(workload: &Workload, outcome: &Outcome) {
    println!("# == {} ==", workload.name);
    println!(
        "# {:<44} {:>10} {:>16} {:>12} {:>8} {:>4}",
        "metric", "unit", "value", "median", "spread", "n"
    );
    for m in &outcome.metrics {
        let (med, spr, n) = if m.samples.is_empty() {
            (m.value, 0.0, 1)
        } else {
            (median(&m.samples), spread(&m.samples), m.samples.len())
        };
        println!(
            "# {:<44} {:>10} {:>16.6} {:>12.6} {:>8.4} {:>4}",
            m.name, m.unit, m.value, med, spr, n
        );
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "# {:<44} {:>10} {:>16.6} {:>12} {:>8} {:>4}   ({} failed of {} attempted)",
        "error_rate", "ratio", error_rate, "", "", "", outcome.failed, outcome.attempted
    );
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().filter(|m| !m.table_only).enumerate() {
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            format_value(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ttcbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(workload) = workloads::workload(&args.workload) else {
        eprintln!("ttcbench: unknown workload `{}`", args.workload);
        std::process::exit(2);
    };
    println!(
        "# ttcbench seed {} seconds {} trace {} nproc {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    let ticks = cpu_ticks();
    let outcome = if args.trace {
        per_layer(&workload, args.seed)
    } else {
        end_to_end(&workload, args.seed, args.seconds)
    };
    // CPU time the hypervisor gave to other guests: on a shared host it
    // explains most of the run-to-run drift of the wall-clock metrics.
    let (steal, total) = cpu_ticks();
    println!(
        "# host_steal_share {:.4}",
        (steal - ticks.0) as f64 / (total - ticks.1).max(1) as f64
    );
    print_outcome(&workload, &outcome);
}
