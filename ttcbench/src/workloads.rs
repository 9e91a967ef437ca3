//! The three workloads, each an ensemble of independent campaigns (or
//! fleets) seeded from the benchmark seed. One ensemble member is one
//! complete run from set-up to its test budget; the ensemble's mean
//! coverage curve gives the time-to-target figures.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use chatfuzz::campaign::{
    BatchOutcome, CampaignBuilder, CampaignObserver, CampaignSnapshot, DutFactory, GeneratorStats,
    StopCondition,
};
use chatfuzz::generator::{LmGenerator, LmGeneratorConfig};
use chatfuzz::report::json_canonical;
use chatfuzz::ShardSpec;
use chatfuzz_baselines::{InputGenerator, RandomRegression, Ucb1};
use chatfuzz_corpus::{CorpusConfig, CorpusGenerator};
use chatfuzz_evolve::{EvolveConfig, EvolveGenerator};
use chatfuzz_lm::{Gpt, GptConfig, Tokenizer};
use chatfuzz_orchestrate::{FleetConfig, LeaseBuilder, Orchestrator, SpoolTransport, SpoolWorker};
use chatfuzz_rl::PpoConfig;
use chatfuzz_rtl::{Boom, BoomConfig, Dut, Rocket, RocketConfig};
use chatfuzz_telemetry::TelemetrySink;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::spans::{InputSample, SpanCtx, TimedDut, TimedGenerator, Tracer};

/// Tests per batch in every campaign and lease.
pub const BATCH: usize = 32;
/// Leases per fleet generation.
pub const FAN_OUT: usize = 2;
/// Merge-then-continue generations per fleet.
const GENERATIONS: usize = 4;
/// Worker auto-checkpoint cadence, in batches.
const CHECKPOINT_EVERY: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RocketEvolve,
    RocketLm,
    BoomSpoolFleet,
}

/// One workload: what runs, how many ensemble members, how long each
/// member runs, and the mean-coverage target.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Independent members (campaigns or fleets) per run.
    pub members: usize,
    /// Test budget of each member.
    pub tests: usize,
    /// Coverage target (% of bins) for the ensemble-mean curve.
    pub target_pct: f64,
    /// Members re-run with tracing on in the traced run.
    pub traced_members: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "rocket-evolve",
        kind: Kind::RocketEvolve,
        members: 64,
        tests: 4096,
        target_pct: 80.0,
        traced_members: 16,
    },
    Workload {
        name: "rocket-lm",
        kind: Kind::RocketLm,
        members: 20,
        tests: 1024,
        target_pct: 76.0,
        traced_members: 6,
    },
    Workload {
        name: "boom-spool-fleet",
        kind: Kind::BoomSpoolFleet,
        members: 40,
        tests: 4096,
        target_pct: 85.3,
        traced_members: 8,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// Worker threads: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where runs keep spool directories and span files, inside the
/// directory the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".ttcbench")
}

pub fn rocket() -> Box<dyn Dut> {
    Box::new(Rocket::new(RocketConfig::default()))
}

pub fn boom() -> Box<dyn Dut> {
    Box::new(Boom::new(BoomConfig::default()))
}

/// Instrumentation handed to a traced member.
#[derive(Clone)]
pub struct TraceHooks {
    pub ctx: SpanCtx,
    /// Every `sample_every`-th batch's inputs land in `sample`.
    pub sample_every: u64,
    pub sample: InputSample,
}

impl TraceHooks {
    fn factory(&self, make: fn() -> Box<dyn Dut>) -> DutFactory {
        let ctx = self.ctx.clone();
        Arc::new(move || Box::new(TimedDut { inner: make(), ctx: ctx.clone() }) as Box<dyn Dut>)
    }

    fn wrap(&self, generator: Box<dyn InputGenerator>) -> Box<dyn InputGenerator> {
        Box::new(TimedGenerator::new(
            generator,
            self.ctx.clone(),
            self.sample_every,
            Arc::clone(&self.sample),
        ))
    }

    fn with_parent(&self, parent: u64) -> TraceHooks {
        let mut hooks = self.clone();
        hooks.ctx.parent = parent;
        hooks
    }
}

/// Everything one ensemble member produced.
pub struct Member {
    pub setup_s: f64,
    pub fuzz_s: f64,
    pub tests: usize,
    pub cycles: u64,
    /// Exact `(tests, covered_bins)` coverage crossings.
    pub history: Vec<(usize, usize)>,
    /// `(tests executed, seconds since fuzzing started)` progress marks:
    /// one per batch (campaigns) or per merge (fleets).
    pub progress: Vec<(usize, f64)>,
    pub total_bins: usize,
    pub final_pct: f64,
    pub bugs: usize,
    /// `report::json_canonical` of the final report (wall clock excluded).
    pub canonical: String,
    pub arms: Vec<GeneratorStats>,
    /// Lease attempts issued and lost (revoked or quarantined); 0 for
    /// campaigns.
    pub lease_attempts: usize,
    pub lease_failures: usize,
    /// Final (merged) snapshot, kept by traced members for the
    /// persistence replay.
    pub snapshot: Option<CampaignSnapshot>,
}

impl Member {
    /// Seconds since fuzzing started at which this member had executed
    /// `tests` tests, linear between progress marks.
    pub fn wall_at(&self, tests: f64) -> Option<f64> {
        let marks: Vec<(f64, f64)> = self.progress.iter().map(|&(t, s)| (t as f64, s)).collect();
        crate::stats::interpolate(&marks, tests)
    }
}

/// The two-arm line-up every workload schedules with UCB1: the workload's
/// main arm plus the evolutionary corpus.
fn evolve_arm(seed: u64) -> Box<dyn InputGenerator> {
    Box::new(EvolveGenerator::new(EvolveConfig { seed, ..Default::default() }))
}

/// The LM arm: corpus → 192-token BPE → compact GPT, actor/learner with
/// publishes every 16 batches over 16 replayed rollouts.
fn lm_arm(seed: u64, total_bins: usize) -> Box<dyn InputGenerator> {
    let mut corpus = CorpusGenerator::new(CorpusConfig { seed, ..Default::default() });
    let programs = corpus.generate_words(64);
    let tokenizer = Tokenizer::train(&programs, 192);
    let mut init = ChaCha8Rng::seed_from_u64(seed);
    let model = Gpt::new(GptConfig::compact(tokenizer.vocab_size() as usize), &mut init);
    Box::new(LmGenerator::new(
        tokenizer,
        model,
        PpoConfig { max_new_tokens: 48, top_k: 24, temperature: 0.9, ..Default::default() },
        programs,
        LmGeneratorConfig {
            seed,
            total_bins,
            samples_per_input: 1,
            publish_every: 16,
            learner_batch: 16,
            ..Default::default()
        },
    ))
}

/// Runs one ensemble member of `workload` from set-up to its budget.
pub fn run_member(workload: &Workload, seed: u64, hooks: Option<&TraceHooks>) -> Member {
    match workload.kind {
        Kind::RocketEvolve | Kind::RocketLm => campaign_member(workload, seed, hooks),
        Kind::BoomSpoolFleet => fleet_member(workload, seed, hooks),
    }
}

fn campaign_member(workload: &Workload, seed: u64, hooks: Option<&TraceHooks>) -> Member {
    let start = Instant::now();
    let total_bins = rocket().space().total_bins();
    let factory: DutFactory = match hooks {
        Some(hooks) => hooks.factory(rocket),
        None => Arc::new(rocket),
    };
    let main_arm = match workload.kind {
        Kind::RocketLm => lm_arm(seed, total_bins),
        _ => Box::new(RandomRegression::new(seed, 16)),
    };
    let mut builder = CampaignBuilder::from_factory(factory)
        .batch_size(BATCH)
        .workers(nproc())
        .detect_mismatches(true)
        .scheduler(Ucb1::new(0.5).cost_normalised());
    for arm in [main_arm, evolve_arm(seed)] {
        builder = builder.generator_boxed(match hooks {
            Some(hooks) => hooks.wrap(arm),
            None => arm,
        });
    }
    let progress = Arc::new(Mutex::new(Vec::new()));
    let marks = Arc::clone(&progress);
    let mut campaign = builder
        .observer(move |outcome: &BatchOutcome| {
            marks
                .lock()
                .expect("progress marks poisoned")
                .push((outcome.tests_total, outcome.wall.as_secs_f64()));
        })
        .build();
    let setup_s = start.elapsed().as_secs_f64();
    let fuzz = Instant::now();
    let report = campaign.run_until(&[StopCondition::Tests(workload.tests)]);
    let fuzz_s = fuzz.elapsed().as_secs_f64();
    let snapshot = hooks.map(|_| campaign.snapshot());
    drop(campaign);
    let progress = std::mem::take(&mut *progress.lock().expect("progress marks poisoned"));
    Member {
        setup_s,
        fuzz_s,
        tests: report.tests_run,
        cycles: report.total_cycles,
        history: report.history.iter().map(|p| (p.tests, p.covered_bins)).collect(),
        progress,
        total_bins,
        final_pct: report.final_coverage_pct,
        bugs: report.bugs.len(),
        canonical: json_canonical(&report),
        arms: report.generator_stats,
        lease_attempts: 0,
        lease_failures: 0,
        snapshot,
    }
}

/// A lease campaign's observer that closes the lease's span when the
/// campaign, which owns its observers, is dropped at the end of the lease.
struct LeaseSpan {
    tracer: Arc<Tracer>,
    id: u64,
}

impl CampaignObserver for LeaseSpan {
    fn on_batch(&mut self, _: &BatchOutcome) {}
}

impl Drop for LeaseSpan {
    fn drop(&mut self) {
        self.tracer.close(self.id);
    }
}

/// The per-lease campaign template: BOOM, one worker, the random and
/// evolve arms under cost-normalised UCB1.
fn lease_template(spec: ShardSpec, hooks: Option<&TraceHooks>) -> CampaignBuilder<'static> {
    let arms = [
        Box::new(RandomRegression::new(spec.seed, 16)) as Box<dyn InputGenerator>,
        evolve_arm(spec.seed),
    ];
    let mut builder = match hooks {
        None => CampaignBuilder::from_factory(Arc::new(boom)),
        Some(hooks) => {
            let lease = hooks.ctx.tracer.open("orchestrate.lease", hooks.ctx.run, hooks.ctx.parent);
            let hooks = hooks.with_parent(lease);
            let span = LeaseSpan { tracer: Arc::clone(&hooks.ctx.tracer), id: lease };
            CampaignBuilder::from_factory(hooks.factory(boom)).observer(span)
        }
    };
    builder = builder.batch_size(BATCH).workers(1).scheduler(Ucb1::new(0.5).cost_normalised());
    for arm in arms {
        builder = builder.generator_boxed(match hooks {
            Some(hooks) => hooks.wrap(arm),
            None => arm,
        });
    }
    builder
}

fn fleet_member(workload: &Workload, seed: u64, hooks: Option<&TraceHooks>) -> Member {
    // Spool workers report to the process-global sink, as a production
    // fleet's do.
    chatfuzz_telemetry::install_global(TelemetrySink::enabled());
    let start = Instant::now();
    let root = out_dir().join(format!("spool-{}-{seed:016x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let space = boom().space().clone();
    let lease_hooks = hooks.cloned();
    let build: LeaseBuilder =
        Arc::new(move |spec: ShardSpec| lease_template(spec, lease_hooks.as_ref()));
    let transport = SpoolTransport::new(&root).expect("spool directories can be created");
    let workers: Vec<_> = (0..nproc())
        .map(|_| {
            let worker =
                SpoolWorker::new(&root).register(workload.name, Arc::clone(&space), build.clone());
            std::thread::spawn(move || worker.serve())
        })
        .collect();
    let mut orchestrator = Orchestrator::new(transport);
    let lease_tests = workload.tests / (FAN_OUT * GENERATIONS);
    let fleet = orchestrator.register(FleetConfig {
        fan_out: FAN_OUT,
        lease_tests,
        total_tests: workload.tests,
        checkpoint_every: CHECKPOINT_EVERY,
        heartbeat_deadline: Duration::from_secs(60),
        telemetry: TelemetrySink::enabled(),
        ..FleetConfig::new(workload.name, seed, Arc::clone(&space), build)
    });
    let setup_s = start.elapsed().as_secs_f64();

    // A fleet's coverage only moves at merges, so its progress marks are
    // the merges: (tests merged so far, seconds since fuzzing started).
    let fuzz = Instant::now();
    let mut progress = Vec::new();
    let mut generation = 0;
    let mut lease_failures = 0;
    let result = orchestrator.run_streaming(|status| {
        let campaign = &status.campaigns[0];
        if campaign.done {
            progress.push((workload.tests, fuzz.elapsed().as_secs_f64()));
        } else if campaign.generation != generation {
            generation = campaign.generation;
            let merged = generation as usize * FAN_OUT * lease_tests;
            progress.push((merged, fuzz.elapsed().as_secs_f64()));
        }
        lease_failures = (campaign.revoked_leases + campaign.quarantined_leases) as usize;
    });
    let fuzz_s = fuzz.elapsed().as_secs_f64();
    for worker in workers {
        worker.join().expect("spool worker thread panicked");
    }
    result.expect("fleet runs to completion");
    let snapshot =
        orchestrator.final_snapshot(fleet).expect("finished fleet has a snapshot").clone();
    drop(orchestrator);
    let _ = std::fs::remove_dir_all(&root);

    let report = snapshot.report();
    Member {
        setup_s,
        fuzz_s,
        tests: report.tests_run,
        cycles: report.total_cycles,
        history: report.history.iter().map(|p| (p.tests, p.covered_bins)).collect(),
        progress,
        total_bins: space.total_bins(),
        final_pct: report.final_coverage_pct,
        bugs: report.bugs.len(),
        canonical: json_canonical(&report),
        arms: report.generator_stats,
        lease_attempts: FAN_OUT * GENERATIONS + lease_failures,
        lease_failures,
        snapshot: hooks.map(|_| snapshot),
    }
}

/// Persists `snapshot` and loads it back `reps` times; returns the median
/// save and load seconds and the file size in bytes.
pub fn persist_replay(snapshot: &CampaignSnapshot, dir: &Path, reps: usize) -> (f64, f64, u64) {
    std::fs::create_dir_all(dir).expect("replay directory can be created");
    let path = dir.join(format!("persist-replay-{}.json", std::process::id()));
    let space = Arc::clone(snapshot.coverage().space());
    let expected = json_canonical(&snapshot.report());
    let mut saves = Vec::with_capacity(reps);
    let mut loads = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        chatfuzz::save_snapshot(&path, snapshot).expect("snapshot saves");
        saves.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let loaded = chatfuzz::load_snapshot(&path, &space).expect("snapshot loads");
        loads.push(t.elapsed().as_secs_f64());
        assert_eq!(json_canonical(&loaded.report()), expected, "snapshot round trip changed it");
    }
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&path);
    (crate::stats::median(&saves), crate::stats::median(&loads), bytes)
}
