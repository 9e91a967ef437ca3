//! The replay pass: re-executes a recorded sample of a run's inputs
//! through the public per-test layers the campaign's main thread and
//! workers call, timing each layer in isolation on one thread.

use std::hint::black_box;
use std::time::Instant;

use chatfuzz::harness::{HarnessConfig, PrecompiledHarness};
use chatfuzz::mismatch::diff_traces;
use chatfuzz_coverage::Calculator;
use chatfuzz_rtl::{Dut, DutRun};
use chatfuzz_softcore::trace::Trace;
use chatfuzz_softcore::{SoftCoreConfig, SoftCoreRunner};

/// Seconds per test of each replayed layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    pub tests: usize,
    /// `PrecompiledHarness::build_into`.
    pub harness: f64,
    /// `SoftCoreRunner::run_into` (the golden model).
    pub softcore: f64,
    /// `diff_traces` of golden against DUT trace.
    pub diff: f64,
    /// `CovMap::content_hash` plus `Calculator::score_batch_iter`.
    pub score: f64,
}

impl LayerCosts {
    /// Per-test seconds the campaign's main thread spends in these layers
    /// (the golden model runs on the workers, not the main thread).
    pub fn main_thread(&self) -> f64 {
        self.harness + self.diff + self.score
    }
}

/// Replays `bodies` in batches of `batch` through the default harness,
/// a fresh DUT from `make`, the default golden model, the trace diff and
/// a coverage calculator.
pub fn replay(bodies: &[Vec<u8>], batch: usize, make: fn() -> Box<dyn Dut>) -> LayerCosts {
    let harness = PrecompiledHarness::new(HarnessConfig::default());
    let mut dut = make();
    let space = dut.space().clone();
    let mut golden = SoftCoreRunner::new(SoftCoreConfig::default());
    let mut calculator = Calculator::new(&space);
    let mut image = Vec::new();
    let mut golden_trace = Trace::scratch();
    let mut runs: Vec<DutRun> = (0..batch).map(|_| DutRun::scratch(&space)).collect();
    let (mut harness_s, mut softcore_s, mut diff_s, mut score_s) = (0.0, 0.0, 0.0, 0.0);
    for chunk in bodies.chunks(batch) {
        for (body, run) in chunk.iter().zip(runs.iter_mut()) {
            let t = Instant::now();
            harness.build_into(body, &mut image);
            harness_s += t.elapsed().as_secs_f64();
            dut.run_into(&image, run);
            let t = Instant::now();
            golden.run_into(&image, &mut golden_trace);
            softcore_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(diff_traces(&golden_trace, &run.trace));
            diff_s += t.elapsed().as_secs_f64();
        }
        let t = Instant::now();
        for run in &runs[..chunk.len()] {
            black_box(run.coverage.content_hash());
        }
        black_box(calculator.score_batch_iter(runs[..chunk.len()].iter().map(|r| &r.coverage)));
        score_s += t.elapsed().as_secs_f64();
    }
    let n = bodies.len().max(1) as f64;
    LayerCosts {
        tests: bodies.len(),
        harness: harness_s / n,
        softcore: softcore_s / n,
        diff: diff_s / n,
        score: score_s / n,
    }
}
