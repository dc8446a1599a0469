//! Equivalence of the streaming sampler→decoder pipeline with the
//! barrier path.
//!
//! The streamed estimator (`estimate_ler_streamed`) cuts a run into
//! packed tiles, overlaps sampling with decoding across producer and
//! consumer threads, and screens shots word-parallel so only Hamming
//! weight ≥ 3 syndromes reach the real decoder. None of that may change
//! a single bit of the result: tiles inherit the per-word-column seeding
//! contract (`qec_circuit::column_seed`), the HW ≤ 2 screen replays the
//! decoder through a memo cache, and every counter merges
//! order-independently. These properties hold for arbitrary tile sizes
//! (one word, odd sizes, whole-batch), producer/consumer splits, and
//! seeds — enforced by proptest against the barrier reference.

use astrea::prelude::*;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Distances × error rates covered by the properties; contexts are built
/// once and shared across cases (DEM extraction is the expensive part).
fn grid() -> &'static [ExperimentContext] {
    static GRID: OnceLock<Vec<ExperimentContext>> = OnceLock::new();
    GRID.get_or_init(|| {
        [(3, 2e-3), (3, 8e-3), (5, 2e-3), (5, 6e-3)]
            .into_iter()
            .map(|(d, p)| ExperimentContext::new(d, p))
            .collect()
    })
}

fn mwpm_factory() -> Box<astrea_experiments::DecoderFactory<'static>> {
    Box::new(|c: &ExperimentContext| Box::new(MwpmDecoder::new(c.gwt())) as Box<dyn Decoder + '_>)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn streamed_estimate_is_bit_identical_to_barrier(
        ctx_idx in 0usize..4,
        seed in any::<u64>(),
        tile_choice in 0usize..3,
        producers in 1usize..4,
        consumers in prop::sample::select(vec![1usize, 3, 8]),
        trials in 1u64..2_000,
        hard_cache_entries in prop::sample::select(vec![0usize, 2, 8192]),
    ) {
        let ctx = &grid()[ctx_idx];
        let factory = mwpm_factory();
        let barrier = estimate_ler_barrier(ctx, trials, 2, seed, &*factory);
        // Tile sizes from the spec: a single word, a small odd count, and
        // one tile covering the whole batch.
        let tile_words = [1, 7, (trials as usize).div_ceil(64)][tile_choice];
        let config = PipelineConfig {
            tile_words,
            producers,
            consumers,
            channel_depth: 2,
            source: SyndromeSource::Dem,
            hard_cache_entries,
        };
        let streamed = estimate_ler_streamed(ctx, trials, seed, &*factory, config);
        prop_assert_eq!(streamed, barrier, "config {:?}", config);
    }

    #[test]
    fn streamed_estimate_is_config_invariant_with_astrea(
        ctx_idx in 0usize..4,
        seed in any::<u64>(),
        tile_words in 1usize..20,
        consumers in 1usize..9,
    ) {
        // Astrea's cycle model and deferrals stress the accounting (the
        // screen must replay modeled cycles exactly); every pipeline shape
        // must agree with the single-threaded single-tile run.
        let ctx = &grid()[ctx_idx];
        let factory: Box<astrea_experiments::DecoderFactory> =
            Box::new(|c| Box::new(AstreaDecoder::new(c.gwt())));
        let trials = 1_001u64;
        let reference = estimate_ler_streamed(
            ctx,
            trials,
            seed,
            &*factory,
            PipelineConfig {
                tile_words: (trials as usize).div_ceil(64),
                producers: 1,
                consumers: 1,
                channel_depth: 1,
                source: SyndromeSource::Dem,
                hard_cache_entries: 0,
            },
        );
        let config = PipelineConfig {
            tile_words,
            producers: 2,
            consumers,
            channel_depth: 3,
            source: SyndromeSource::Dem,
            hard_cache_entries: 64,
        };
        let streamed = estimate_ler_streamed(ctx, trials, seed, &*factory, config);
        prop_assert_eq!(streamed, reference, "config {:?}", config);
    }
}

#[test]
fn every_hard_path_stage_absorbs_shots_at_the_operating_points() {
    // The operating points d ∈ {3, 5, 7} at p = 1e-3 and d = 7 at 5e-3:
    // the low-p points must exercise the trivial, easy and closed-form
    // tiers and the hard-cache probe, the high-p point the DP band and
    // the deep tail. A stage that goes idle here has been bypassed by a
    // dispatch change, not starved by the workload.
    let mut total = astrea_experiments::PipelineCounters::default();
    for (d, p) in [(3, 1e-3), (5, 1e-3), (7, 1e-3), (7, 5e-3)] {
        let ctx = ExperimentContext::new(d, p);
        let factory: Box<astrea_experiments::DecoderFactory> =
            Box::new(|c| Box::new(MwpmDecoder::new(c.gwt())));
        let trials = 2_000;
        let (_, c) = astrea_experiments::estimate_ler_streamed_counted(
            &ctx,
            trials,
            7,
            &*factory,
            PipelineConfig::for_threads(2),
        );
        assert_eq!(
            c.shots_screened, trials,
            "screen missed shots at d={d} p={p}"
        );
        assert_eq!(
            c.tier_sum(),
            trials,
            "tiers do not partition d={d} p={p}: {c:?}"
        );
        total.merge(&c);
    }
    assert!(total.trivial_shots > 0, "trivial tier idle: {total:?}");
    assert!(total.hw1_shots > 0, "HW-1 tier idle: {total:?}");
    assert!(total.hw2_shots > 0, "HW-2 tier idle: {total:?}");
    assert!(
        total.closed_form_shots > 0,
        "closed-form tier idle: {total:?}"
    );
    assert!(
        total.hard_cache_hits + total.hard_cache_misses > 0,
        "hard-syndrome cache never consulted: {total:?}"
    );
    assert!(total.dp_shots > 0, "subset-DP band idle: {total:?}");
    assert!(total.sparse_blossom_shots > 0, "deep tail idle: {total:?}");
    assert!(
        total.hw1_key_lookups > 0 && total.hw1_key_lookups <= total.hw1_shots,
        "packed HW-1 key resolution inconsistent: {total:?}"
    );
    assert!(
        total.hw2_key_lookups > 0 && total.hw2_key_lookups <= total.hw2_shots,
        "packed HW-2 key resolution inconsistent: {total:?}"
    );
}
