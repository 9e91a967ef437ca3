//! Integration: end-to-end determinism — identical seeds give identical
//! campaigns, traces, coverage and mismatch counts across the whole stack.

use chatfuzz::campaign::{CampaignBuilder, StopCondition};
use chatfuzz::harness::{wrap, HarnessConfig};
use chatfuzz::persist::snapshot_json;
use chatfuzz::report::json_canonical;
use chatfuzz_baselines::{MutatorConfig, RandomRegression, TheHuzz, Ucb1};
use chatfuzz_corpus::{CorpusConfig, CorpusGenerator};
use chatfuzz_evolve::{EvolveConfig, EvolveGenerator};
use chatfuzz_isa::encode_program;
use chatfuzz_rtl::{Boom, BoomConfig, Dut, Rocket, RocketConfig};
use chatfuzz_softcore::{SoftCore, SoftCoreConfig};
use chatfuzz_tests::{rocket_factory, run_budget};
use proptest::prelude::*;

/// `snapshot_json` minus what two runs of one campaign may differ in:
/// the leading checksum and every wall-clock reading.
fn without_wall(json: &str) -> String {
    let (_checksum, payload) = json.split_once(',').expect("snapshots lead with a checksum");
    let parts = payload.split("\"wall_nanos\":");
    parts.map(|part| part.trim_start_matches(|c: char| c.is_ascii_digit())).collect()
}

/// The worker-count law: a campaign's report and snapshot never depend
/// on how many lanes ran it — for every batch size, including batches
/// smaller than the lane count, with the mismatch detector on or off.
#[test]
fn campaigns_replay_bit_identically() {
    let run = |workers: usize| {
        let generator = TheHuzz::new(MutatorConfig { seed: 77, ..Default::default() });
        run_budget(&rocket_factory(), generator, 96, 32, workers)
    };
    let a = run(2);
    let b = run(6);
    assert_eq!(a.final_coverage_pct, b.final_coverage_pct);
    assert_eq!(a.raw_mismatches, b.raw_mismatches);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(
        a.history.iter().map(|p| p.covered_bins).collect::<Vec<_>>(),
        b.history.iter().map(|p| p.covered_bins).collect::<Vec<_>>()
    );

    for detect in [true, false] {
        for batch in [1, 7, 32, 33] {
            let run = |workers: usize| {
                let mut campaign = CampaignBuilder::from_factory(rocket_factory())
                    .batch_size(batch)
                    .workers(workers)
                    .detect_mismatches(detect)
                    .scheduler(Ucb1::new(0.5).cost_normalised())
                    .generator(RandomRegression::new(11, 16))
                    .generator(EvolveGenerator::new(EvolveConfig {
                        seed: 11,
                        ..Default::default()
                    }))
                    .build();
                let report = campaign.run_until(&[StopCondition::Tests(100)]);
                (json_canonical(&report), without_wall(&snapshot_json(&campaign.snapshot())))
            };
            let reference = run(1);
            if detect {
                assert!(reference.0.contains("\"signature\""), "the buggy Rocket mismatches");
            }
            for workers in [2, 3, 8] {
                assert!(
                    run(workers) == reference,
                    "workers {workers} diverged from workers 1 (batch {batch}, detect {detect})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any corpus program, wrapped, produces identical traces on repeated
    /// runs of every simulator (golden, Rocket, BOOM).
    #[test]
    fn simulators_are_deterministic_on_corpus_programs(seed in 0u64..500) {
        let mut corpus = CorpusGenerator::new(CorpusConfig { seed, ..Default::default() });
        let body = encode_program(&corpus.generate_function()).unwrap();
        let image = wrap(&body, HarnessConfig::default());

        let golden = SoftCore::new(SoftCoreConfig::default());
        prop_assert_eq!(golden.run(&image), golden.run(&image));

        let mut rocket = Rocket::new(RocketConfig::default());
        let r1 = rocket.run(&image);
        let r2 = rocket.run(&image);
        prop_assert_eq!(r1.trace, r2.trace);
        prop_assert_eq!(r1.cycles, r2.cycles);
        prop_assert_eq!(r1.coverage.covered_bins(), r2.coverage.covered_bins());

        let mut boom = Boom::new(BoomConfig::default());
        let b1 = boom.run(&image);
        let b2 = boom.run(&image);
        prop_assert_eq!(b1.trace, b2.trace);
        prop_assert_eq!(b1.cycles, b2.cycles);
    }

    /// Corpus programs never desync the wrapped golden/BOOM pair (BOOM is
    /// bug-free, so the *entire corpus surface* must be divergence-free).
    #[test]
    fn boom_never_diverges_on_corpus(seed in 0u64..300) {
        let mut corpus = CorpusGenerator::new(CorpusConfig { seed, ..Default::default() });
        let body = encode_program(&corpus.generate_function()).unwrap();
        let image = wrap(&body, HarnessConfig::default());
        let golden = SoftCore::new(SoftCoreConfig::default()).run(&image);
        let mut boom = Boom::new(BoomConfig::default());
        let run = boom.run(&image);
        let mismatches = chatfuzz::mismatch::diff_traces(&golden, &run.trace);
        prop_assert!(mismatches.is_empty(), "unexpected divergence: {:?}", mismatches);
    }
}
