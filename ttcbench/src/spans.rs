//! The traced run's instrumentation, kept entirely outside the program:
//! an in-memory span recorder plus wrapper types that time a layer's
//! public trait calls (`Dut`, `InputGenerator`) from the outside.
//!
//! A span has a name, start, end, the id of the span that caused it, a
//! per-workload run id (the ensemble member), the thread that ran it and
//! a work count (tests or tokens). Spans stay in memory until the run
//! ends and are then written out as JSON lines.

use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use chatfuzz_baselines::{Feedback, GeneratorState, InputGenerator};
use chatfuzz_coverage::Space;
use chatfuzz_rtl::{Dut, DutRun};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub run: u64,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (tests, tokens), 0 when not counted.
    pub count: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Shared in-memory span store.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static THREAD_ID: u64 = {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        h.finish()
    };
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) })
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        run: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> u64 {
        let thread = THREAD_ID.with(|t| *t);
        let mut spans = self.spans.lock().expect("span store poisoned by a panicking thread");
        let id = spans.len() as u64 + 1;
        spans.push(Span { id, parent, run, name, thread, start_ns, end_ns, count });
        id
    }

    /// Starts a span that [`Tracer::close`] ends; returns its id, so
    /// spans it causes can name it as their parent.
    pub fn open(&self, name: &'static str, run: u64, parent: u64) -> u64 {
        let now = self.now();
        self.record(name, run, parent, now, now, 0)
    }

    /// Ends a span started by [`Tracer::open`].
    pub fn close(&self, id: u64) {
        let now = self.now();
        let mut spans = self.spans.lock().expect("span store poisoned by a panicking thread");
        spans[id as usize - 1].end_ns = now;
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned by a panicking thread").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"thread\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.id, s.parent, s.run, s.name, s.thread, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

/// Where a wrapper's spans belong: the tracer, the run id and the parent
/// span (the ensemble member's run span).
#[derive(Clone)]
pub struct SpanCtx {
    pub tracer: Arc<Tracer>,
    pub run: u64,
    pub parent: u64,
}

impl SpanCtx {
    fn record(&self, name: &'static str, start_ns: u64, count: u64) -> u64 {
        let end = self.tracer.now();
        self.tracer.record(name, self.run, self.parent, start_ns, end, count)
    }
}

/// Times every simulation of the wrapped DUT (`rtl.run_into`).
pub struct TimedDut {
    pub inner: Box<dyn Dut>,
    pub ctx: SpanCtx,
}

impl Dut for TimedDut {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn space(&self) -> &Arc<Space> {
        self.inner.space()
    }

    fn run(&mut self, program: &[u8]) -> DutRun {
        let start = self.ctx.tracer.now();
        let run = self.inner.run(program);
        self.ctx.record("rtl.run_into", start, 1);
        run
    }

    fn run_into(&mut self, program: &[u8], out: &mut DutRun) {
        let start = self.ctx.tracer.now();
        self.inner.run_into(program, out);
        self.ctx.record("rtl.run_into", start, 1);
    }
}

/// Span names of one generator arm, keyed by the crate/module that
/// implements it.
struct ArmNames {
    next_batch: &'static str,
    observe: &'static str,
    publish: &'static str,
    /// Whether `next_batch` also records the tokens it sampled.
    tokens: bool,
}

fn arm_names(generator: &str) -> ArmNames {
    match generator {
        "random" => ArmNames {
            next_batch: "baselines.random.next_batch",
            observe: "baselines.random.observe",
            publish: "baselines.random.publish",
            tokens: false,
        },
        "evolve" => ArmNames {
            next_batch: "evolve.next_batch",
            observe: "evolve.observe",
            publish: "evolve.publish",
            tokens: false,
        },
        "chatfuzz" => ArmNames {
            next_batch: "lm.next_batch",
            observe: "lm.observe",
            publish: "lm.publish",
            tokens: true,
        },
        other => panic!("no span names for generator `{other}`"),
    }
}

/// A sample of the generated inputs, kept for the replay pass.
pub type InputSample = Arc<Mutex<Vec<Vec<u8>>>>;

/// Times the wrapped generator's calls. Besides `next_batch`/`observe`
/// it records `core.campaign.execute` — the main-thread interval between
/// a batch being generated and its feedback arriving (harness build,
/// dispatch, waiting on the worker pool, diff and scoring) — and the
/// cross-arm seed exchange. Every call delegates unchanged, so a traced
/// campaign produces exactly the untraced result.
pub struct TimedGenerator {
    inner: Box<dyn InputGenerator>,
    names: ArmNames,
    ctx: SpanCtx,
    batch_end_ns: u64,
    batches: u64,
    sample_every: u64,
    sample: InputSample,
}

impl TimedGenerator {
    /// Wraps `inner`; every `sample_every`-th batch's inputs are copied
    /// into `sample`.
    pub fn new(
        inner: Box<dyn InputGenerator>,
        ctx: SpanCtx,
        sample_every: u64,
        sample: InputSample,
    ) -> TimedGenerator {
        let names = arm_names(inner.name());
        TimedGenerator { inner, names, ctx, batch_end_ns: 0, batches: 0, sample_every, sample }
    }
}

impl InputGenerator for TimedGenerator {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_batch(&mut self, n: usize) -> Vec<Vec<u8>> {
        let start = self.ctx.tracer.now();
        let batch = self.inner.next_batch(n);
        self.ctx.record(self.names.next_batch, start, n as u64);
        if self.names.tokens {
            // One token per 4-byte instruction word.
            let tokens: usize = batch.iter().map(|b| b.len() / 4).sum();
            self.ctx.record("lm.tokens", start, tokens as u64);
        }
        self.batch_end_ns = self.ctx.tracer.now();
        if self.batches.is_multiple_of(self.sample_every) {
            self.sample.lock().expect("input sample poisoned").extend(batch.iter().cloned());
        }
        self.batches += 1;
        batch
    }

    fn observe(&mut self, batch: &[Vec<u8>], feedback: &[Feedback]) {
        let start = self.ctx.tracer.now();
        self.ctx.tracer.record(
            "core.campaign.execute",
            self.ctx.run,
            self.ctx.parent,
            self.batch_end_ns,
            start,
            batch.len() as u64,
        );
        let epoch = self.inner.weight_epoch();
        self.inner.observe(batch, feedback);
        self.ctx.record(self.names.observe, start, batch.len() as u64);
        if self.inner.weight_epoch() != epoch {
            self.ctx.record(self.names.publish, start, 1);
        }
    }

    fn export_state(&self) -> Option<GeneratorState> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &GeneratorState) {
        self.inner.import_state(state);
    }

    fn weight_epoch(&self) -> Option<u64> {
        self.inner.weight_epoch()
    }

    fn seeds_revision(&self) -> u64 {
        self.inner.seeds_revision()
    }

    fn contribute_seeds(&self, out: &mut Vec<Vec<u32>>) {
        let start = self.ctx.tracer.now();
        self.inner.contribute_seeds(out);
        self.ctx.record("core.generator.seed_exchange", start, 0);
    }

    fn absorb_seeds(&mut self, seeds: &[Vec<u32>]) {
        let start = self.ctx.tracer.now();
        self.inner.absorb_seeds(seeds);
        self.ctx.record("core.generator.seed_exchange", start, 0);
    }
}
