//! The `ler-*` workloads: streamed logical-error-rate estimation through
//! the public `estimate_ler` pipeline, at three points that load
//! different layers.

use std::time::Instant;

use astrea_core::pipeline::{
    decode_tile, tile_channel, PipelineCounters, StreamOutcome, TileQueue, TileScratch,
};
use astrea_experiments::{
    estimate_ler_barrier, estimate_ler_streamed_counted, sample_batch, DecoderFactory,
    ExperimentContext, LerResult, PipelineConfig,
};
use blossom_mwpm::MwpmDecoder;
use decoding_graph::{DecodeScratch, LocalWeightProvider, OndemandScratch, WeightSource};
use qec_circuit::TileLayout;

use crate::probe::{self, TimingDecoder};
use crate::trace::{self, Layer, ThreadTrace};
use crate::{another_setup, median, mix, ratio, Report, THREADS};

/// One `(d, p)` point and how much work each of its jobs does.
pub struct Point {
    pub name: &'static str,
    d: usize,
    p: f64,
    /// Shots per `estimate_ler` call: the unit of work a run repeats
    /// until its time is up.
    job_shots: u64,
    /// Shots of the bit-identity gate against `estimate_ler_barrier`,
    /// which also fixes the exact-count fingerprint.
    prefix_shots: u64,
}

pub const POINTS: &[Point] = &[
    Point {
        name: "ler-d7-p1e-3",
        d: 7,
        p: 1e-3,
        job_shots: 1 << 20,
        prefix_shots: 1 << 16,
    },
    Point {
        name: "ler-d7-p5e-3",
        d: 7,
        p: 5e-3,
        job_shots: 1 << 16,
        prefix_shots: 1 << 14,
    },
    // 512 shots fit in one 8192-shot tile, so each job keeps one of the
    // two consumers idle: the tile-granularity defect stays visible in
    // `harness.tiles` and `harness.consumer_busy_frac`.
    Point {
        name: "ler-d15-p1e-3",
        d: 15,
        p: 1e-3,
        job_shots: 512,
        prefix_shots: 256,
    },
];

/// Deep shots replayed through the benchmark's own on-demand provider
/// per traced run (a strided sample when there are more).
const MAX_DISCOVERY_REPLAYS: usize = 1024;

pub fn point(name: &str) -> Option<&'static Point> {
    POINTS.iter().find(|p| p.name == name)
}

/// Work and time of a sequence of jobs.
#[derive(Default)]
struct Phase {
    job_walls: Vec<f64>,
    shots: u64,
    failures: u64,
    wall_s: f64,
    cpu_s: f64,
    counters: PipelineCounters,
    start_ns: u64,
    end_ns: u64,
}

impl Phase {
    fn s_per_shot(&self) -> f64 {
        ratio(self.wall_s, self.shots as f64)
    }
}

/// One workload run's fixed inputs.
struct Runner<'r, 'a> {
    ctx: &'a ExperimentContext,
    point: &'r Point,
    seed: u64,
    factory: &'r DecoderFactory<'a>,
}

/// Runs jobs `first_job..` until `seconds` have passed, untraced through
/// `estimate_ler_streamed_counted` or traced through [`traced_job`].
fn run_jobs(r: &Runner, first_job: u64, seconds: f64, traced: bool, report: &mut Report) -> Phase {
    let (ctx, point, factory) = (r.ctx, r.point, r.factory);
    let cfg = PipelineConfig::for_threads(THREADS);
    let mut phase = Phase {
        start_ns: trace::now_ns(),
        ..Phase::default()
    };
    let cpu0 = probe::cpu_seconds();
    let t0 = Instant::now();
    for job in first_job.. {
        let job_seed = mix(r.seed, job);
        let t = Instant::now();
        let (failures, counters) = if traced {
            let (out, c) = traced_job(ctx, point.job_shots, job_seed, factory, cfg);
            (out.failures, c)
        } else {
            let (res, c) =
                estimate_ler_streamed_counted(ctx, point.job_shots, job_seed, factory, cfg);
            report.check(res.trials == point.job_shots, "job trial count");
            (res.failures, c)
        };
        phase.job_walls.push(t.elapsed().as_secs_f64());
        report.check(
            counters.tier_sum() == counters.shots_screened
                && counters.shots_screened == point.job_shots,
            "tier_sum() == shots_screened == job shots",
        );
        phase.shots += point.job_shots;
        phase.failures += failures;
        phase.counters.merge(&counters);
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phase.wall_s = t0.elapsed().as_secs_f64();
    phase.cpu_s = probe::cpu_seconds() - cpu0;
    phase.end_ns = trace::now_ns();
    phase
}

/// `estimate_ler_streamed_counted`'s producer/consumer loop rebuilt from
/// the same public pieces (sampler, bounded tile channel, `TileQueue`,
/// `decode_tile`), with a span around each call and the decoder wrapped
/// in a [`TimingDecoder`].
fn traced_job<'a>(
    ctx: &'a ExperimentContext,
    trials: u64,
    seed: u64,
    factory: &DecoderFactory<'a>,
    cfg: PipelineConfig,
) -> (StreamOutcome, PipelineCounters) {
    let layout = TileLayout::new(trials as usize, cfg.tile_words.max(1));
    let producers = cfg.producers.max(1).min(layout.num_tiles());
    let consumers = cfg.consumers.max(1);
    let keep_deep_lists = ctx.weight_source() == WeightSource::Local;
    let (tx, rx) = tile_channel(cfg.channel_depth);
    let queue = TileQueue::new(rx);
    std::thread::scope(|scope| {
        for p in 0..producers {
            let tx = tx.clone();
            scope.spawn(move || {
                {
                    let _root = trace::span(Layer::Producer, p as u64, 0);
                    let mut source = {
                        let _f = trace::span(Layer::Factory, p as u64, 0);
                        cfg.source.sampler(ctx)
                    };
                    let mut t = p;
                    while t < layout.num_tiles() {
                        let shots = layout.tile(t).1 as u64;
                        let tile = {
                            let _s = trace::span(Layer::Sample, t as u64, shots);
                            source.sample_tile(seed, &layout, t)
                        };
                        let sent = {
                            let _s = trace::span(Layer::SendWait, t as u64, shots);
                            tx.send(tile)
                        };
                        if sent.is_err() {
                            break;
                        }
                        t += producers;
                    }
                }
                trace::finish_thread();
            });
        }
        drop(tx);
        let handles: Vec<_> = (0..consumers)
            .map(|c| {
                let queue = queue.clone();
                scope.spawn(move || {
                    let result = {
                        let _root = trace::span(Layer::Consumer, c as u64, 0);
                        let mut decoder = {
                            let _f = trace::span(Layer::Factory, c as u64, 0);
                            TimingDecoder::new(factory(ctx), keep_deep_lists)
                        };
                        let mut scratch = DecodeScratch::new();
                        let mut tile_scratch = TileScratch::with_hard_cache(cfg.hard_cache_entries);
                        let mut out = StreamOutcome::default();
                        loop {
                            let tile = {
                                let _w = trace::span(Layer::QueueWait, c as u64, 0);
                                queue.next_tile()
                            };
                            let Some(tile) = tile else { break };
                            let id = (tile.first_word() / cfg.tile_words.max(1)) as u64;
                            let _d = trace::span(Layer::DecodeTile, id, tile.num_shots() as u64);
                            decode_tile(
                                &mut decoder,
                                &mut scratch,
                                &mut tile_scratch,
                                &tile,
                                &mut out,
                            );
                        }
                        (out, *tile_scratch.counters())
                    };
                    trace::finish_thread();
                    result
                })
            })
            .collect();
        let mut total = StreamOutcome::default();
        let mut counters = PipelineCounters::default();
        for h in handles {
            let (out, c) = h.join().expect("traced consumer panicked");
            total.merge(&out);
            counters.merge(&c);
        }
        (total, counters)
    })
}

/// The deterministic counts of a fixed run: tiers, failures, deep shots
/// and on-demand settles. `hard_cache_hits` and `dp_shots` are left out:
/// they depend on which consumer takes which tile.
fn fingerprint(name: &str, seed: u64, res: &LerResult, c: &PipelineCounters) -> String {
    format!(
        "fingerprint {name} seed={seed} shots={} trivial={} hw1={} hw2={} closed_form={} \
         deep={} failures={} ondemand_settled={}",
        res.trials,
        c.trivial_shots,
        c.hw1_shots,
        c.hw2_shots,
        c.closed_form_shots,
        c.sparse_blossom_shots,
        res.failures,
        c.ondemand.settled
    )
}

/// Offline correctness gate on the first `prefix_shots` of job 0: the
/// streamed pipeline must equal the barrier path bit for bit and account
/// for every screened shot. Returns the mean fired detectors per shot.
fn prefix_gate(r: &Runner, traced: bool, report: &mut Report) -> f64 {
    let (ctx, point, seed, factory) = (r.ctx, r.point, r.seed, r.factory);
    let cfg = PipelineConfig::for_threads(THREADS);
    let job_seed = mix(seed, 0);
    let (streamed, counters) =
        estimate_ler_streamed_counted(ctx, point.prefix_shots, job_seed, factory, cfg);
    let barrier = estimate_ler_barrier(ctx, point.prefix_shots, THREADS, job_seed, factory);
    report.check(
        streamed == barrier,
        "streamed LerResult == estimate_ler_barrier",
    );
    report.check(
        counters.tier_sum() == counters.shots_screened
            && counters.shots_screened == point.prefix_shots,
        "prefix tier_sum() == shots_screened",
    );
    if traced {
        // The rebuilt loop must decode exactly what the harness decodes.
        let (out, c) = traced_job(ctx, point.prefix_shots, job_seed, factory, cfg);
        report.check(
            out.failures == streamed.failures
                && out.deferred == streamed.deferred
                && out.stats == streamed.latency
                && c.tier_sum() == counters.tier_sum()
                && c.sparse_blossom_shots == counters.sparse_blossom_shots,
            "traced loop == estimate_ler_streamed_counted",
        );
    }
    println!("{}", fingerprint(point.name, seed, &streamed, &counters));
    let batch = sample_batch(ctx, point.prefix_shots, THREADS, job_seed);
    let defects: usize = (0..batch.len()).map(|i| batch.detectors(i).len()).sum();
    ratio(defects as f64, batch.len() as f64)
}

pub fn run(point: &Point, seed: u64, seconds: f64, traced: bool) -> (Report, Vec<ThreadTrace>) {
    let mut report = Report::default();
    let mut setup = Vec::new();
    let mut context = Vec::new();
    let mut ctx = None;
    while another_setup(&setup) {
        drop(ctx.take());
        let t = Instant::now();
        let c = ExperimentContext::new(point.d, point.p);
        context.push(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(MwpmDecoder::for_context(c.decoding())));
        setup.push(t.elapsed().as_secs_f64());
        ctx = Some(c);
    }
    let ctx = ctx.expect("at least one set-up");
    let factory: Box<DecoderFactory> =
        Box::new(|c| Box::new(MwpmDecoder::for_context(c.decoding())));
    report.set("setup_s", median(&setup));
    report.set("setup.context_s", median(&context));
    let r = Runner {
        ctx: &ctx,
        point,
        seed,
        factory: &*factory,
    };

    if !traced {
        let phase = run_jobs(&r, 0, seconds, false, &mut report);
        report.set("peak_rss_mb", probe::peak_rss_mb());
        let defects_per_shot = prefix_gate(&r, false, &mut report);
        // The median job, so a host stall over a minority of jobs does not
        // move it.
        report.set(
            "shots_per_s",
            ratio(point.job_shots as f64, median(&phase.job_walls)),
        );
        report.set(
            "defects_per_core_s",
            ratio(phase.shots as f64 * defects_per_shot, phase.cpu_s),
        );
        eprintln!(
            "perfbench: {} jobs, {} shots, {} failures, ler {:.3e}, cpu {:.2}s over {:.2}s wall",
            phase.job_walls.len(),
            phase.shots,
            phase.failures,
            ratio(phase.failures as f64, phase.shots as f64),
            phase.cpu_s,
            phase.wall_s
        );
        return (report, Vec::new());
    }

    let plain = run_jobs(&r, 0, seconds / 2.0, false, &mut report);
    trace::set_enabled(true);
    let tr = run_jobs(&r, 1 << 32, seconds / 2.0, true, &mut report);
    let mut threads = trace::take_all();
    let replay_start = trace::now_ns();
    if ctx.weight_source() == WeightSource::Local {
        replay_discovery(&ctx, &threads);
    }
    let replay_end = trace::now_ns();
    trace::finish_thread();
    trace::set_enabled(false);
    threads.extend(trace::take_all());
    prefix_gate(&r, true, &mut report);

    let tot = trace::totals(&threads, tr.start_ns, tr.end_ns);
    let get = |l| trace::get(&tot, l);
    let shots = tr.shots as f64;
    let cfg = PipelineConfig::for_threads(THREADS);
    let wall_ns = tr.wall_s * 1e9;
    let c = &tr.counters;
    report.set(
        "ler",
        ratio(
            (plain.failures + tr.failures) as f64,
            (plain.shots + tr.shots) as f64,
        ),
    );
    report.set(
        "sample.ns_per_shot",
        ratio(get(Layer::Sample).dur_ns as f64, shots),
    );
    let tiles = TileLayout::new(point.job_shots as usize, cfg.tile_words.max(1)).num_tiles();
    let producers = cfg.producers.max(1).min(tiles);
    report.set(
        "sample.busy_frac",
        ratio(get(Layer::Sample).dur_ns as f64, producers as f64 * wall_ns),
    );
    report.set(
        "harness.tiles",
        ratio(
            get(Layer::DecodeTile).count as f64,
            tr.job_walls.len() as f64,
        ),
    );
    let consumer_ns = cfg.consumers as f64 * wall_ns;
    report.set(
        "harness.consumer_busy_frac",
        ratio(get(Layer::DecodeTile).dur_ns as f64, consumer_ns),
    );
    report.set(
        "harness.queue_wait_frac",
        ratio(get(Layer::QueueWait).dur_ns as f64, consumer_ns),
    );
    report.set(
        "harness.send_wait_frac",
        ratio(
            get(Layer::SendWait).dur_ns as f64,
            producers as f64 * wall_ns,
        ),
    );
    report.set(
        "tile.self_ns_per_shot",
        ratio(get(Layer::DecodeTile).self_ns as f64, shots),
    );
    set_decoder_layers(&mut report, c, &tot);
    let discover = trace::get(
        &trace::totals(&threads, replay_start, replay_end),
        Layer::Discover,
    );
    let discover_ns = ratio(discover.dur_ns as f64, discover.count as f64);
    let deep = get(Layer::Deep);
    report.set("deep.discover_ns_per_shot", discover_ns);
    report.set(
        "deep.solve_ns_per_shot",
        ratio(deep.dur_ns as f64, deep.count as f64) - discover_ns,
    );
    report.set(
        "trace.overhead_frac",
        ratio(tr.s_per_shot(), plain.s_per_shot()) - 1.0,
    );
    let roots: u64 = tot
        .iter()
        .filter(|(l, _)| l.is_root())
        .map(|(_, t)| t.dur_ns)
        .sum();
    let layers: u64 = tot
        .iter()
        .filter(|(l, _)| !l.is_root())
        .map(|(_, t)| t.self_ns)
        .sum();
    report.set("trace.accounted_frac", ratio(layers as f64, roots as f64));
    (report, threads)
}

/// Per-layer metrics every workload shares: the easy tiers, closed forms,
/// subset DP, hard-syndrome cache and deep tail, from the pipeline
/// counters and the [`TimingDecoder`] spans.
pub fn set_decoder_layers(
    report: &mut Report,
    c: &PipelineCounters,
    tot: &[(Layer, trace::LayerTotals)],
) {
    let get = |l| trace::get(tot, l);
    report.set("easy.trivial", c.trivial_shots as f64);
    report.set("easy.hw1", c.hw1_shots as f64);
    report.set("easy.hw2", c.hw2_shots as f64);
    let cf = get(Layer::ClosedForm);
    report.set("closed_form.shots", c.closed_form_shots as f64);
    report.set("closed_form.calls", cf.count as f64);
    report.set(
        "closed_form.ns_per_shot",
        ratio(cf.dur_ns as f64, cf.shots as f64),
    );
    let dp = get(Layer::Dp);
    report.set("dp.shots", c.dp_shots as f64);
    report.set("dp.ns_per_shot", ratio(dp.dur_ns as f64, dp.count as f64));
    let lookups = c.hard_cache_hits + c.hard_cache_misses;
    report.set("hard_cache.lookups", lookups as f64);
    report.set(
        "hard_cache.hit_rate",
        ratio(c.hard_cache_hits as f64, lookups as f64),
    );
    let deep = get(Layer::Deep);
    report.set("deep.shots", c.sparse_blossom_shots as f64);
    report.set("deep.mean_k", ratio(deep.k_sum as f64, deep.count as f64));
    report.set(
        "deep.ns_per_shot",
        ratio(deep.dur_ns as f64, deep.count as f64),
    );
    report.set(
        "ondemand.settled_per_shot",
        ratio(c.ondemand.settled as f64, c.sparse_blossom_shots as f64),
    );
    let od = &c.ondemand;
    report.set(
        "ondemand.pruned_frac",
        ratio(
            (od.deadline_pruned + od.excluded) as f64,
            (od.collisions + od.deadline_pruned + od.excluded) as f64,
        ),
    );
}

/// Replays recorded deep detector lists through a provider the
/// benchmark owns, timing each `stage_ondemand` as a `Discover` span on
/// the calling thread.
fn replay_discovery(ctx: &ExperimentContext, threads: &[ThreadTrace]) {
    let lists: Vec<&[u32]> = threads
        .iter()
        .flat_map(|t| {
            let mut start = 0;
            t.deep_ends.iter().map(move |&end| {
                let list = &t.deep_dets[start..end];
                start = end;
                list
            })
        })
        .collect();
    let mut provider = LocalWeightProvider::new(ctx.graph(), ctx.decoding().boundary());
    let mut scratch = OndemandScratch::new();
    let stride = lists.len().div_ceil(MAX_DISCOVERY_REPLAYS).max(1);
    for (i, list) in lists.iter().enumerate().step_by(stride) {
        let _s = trace::span(Layer::Discover, i as u64, 1);
        provider.stage_ondemand(list, &mut scratch);
    }
}
