//! The `serve-d5-p5e-3` workload: one TCP connection speaking the wire
//! protocol to a `DecodeService` on the shipped defaults. An open-loop
//! phase at a fixed rate is followed by a saturated phase that keeps a
//! window of requests outstanding.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use astrea_core::{decode_slice, BatchDecoderFactory, SyndromeBatch};
use astrea_serve::wire::{OP_DECODE, OP_FLUSH, RESPONSE_FRAME_BYTES};
use astrea_serve::{
    build_workload, serve_tcp, ArrivalMode, DecodeService, LoadGenConfig, ServeConfig, WireServer,
};
use blossom_mwpm::MwpmDecoder;
use decoding_graph::{DecodeScratch, Decoder, DecodingContext, Prediction};
use qec_circuit::NoiseModel;
use surface_code::SurfaceCode;

use crate::probe::{self, TimingDecoder};
use crate::trace::{self, Layer, ThreadTrace};
use crate::{another_setup, median, mix, quantile, ratio, Report};

pub const NAME: &str = "serve-d5-p5e-3";
const DISTANCE: usize = 5;
const P: f64 = 5e-3;
/// Offered rate of the open-loop phase.
const OPEN_RATE: f64 = 10_000.0;
/// Share of requests that repeat an earlier shot of the stream, which is
/// what lets the hard-syndrome cache hit.
const REPLAY_FRACTION: f64 = 0.3;
/// Requests outstanding in the saturated phase: one full serving tile
/// (`ServeConfig::default().tile_words` × 64 shots).
const WINDOW: usize = 256;
/// Distinct shots the saturated phase cycles through: far more than the
/// hard-syndrome cache holds, so cycling adds no hits of its own, while
/// the benchmark's buffers stay small next to the service's memory.
const SAT_POOL: usize = 1 << 16;
/// Timer slack of the open-loop sending thread, so its sleeps end on time.
const SENDER_TIMER_SLACK_NS: u64 = 1;
/// The saturated phase is cut into windows this long and `shots_per_s` is
/// the median of their rates, so a host stall that covers a minority of
/// a run's windows does not move it.
const STAT_WINDOW_S: f64 = 0.5;

/// A running service, its wire front-end and the client's connection.
struct Server {
    service: Arc<DecodeService>,
    wire: WireServer,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Sequence number the next request on the connection gets.
    next_seq: u64,
}

impl Server {
    fn start(ctx: Arc<DecodingContext>, traced: bool) -> Server {
        let factory: Arc<BatchDecoderFactory> = if traced {
            Arc::new(|c: &DecodingContext| {
                Box::new(TimingDecoder::new(
                    Box::new(MwpmDecoder::for_context(c)),
                    false,
                )) as Box<dyn Decoder>
            })
        } else {
            Arc::new(|c: &DecodingContext| {
                Box::new(MwpmDecoder::for_context(c)) as Box<dyn Decoder>
            })
        };
        let service = Arc::new(DecodeService::new(ctx, ServeConfig::default(), factory));
        let wire = serve_tcp(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback listener");
        let addr = wire.local_addr().expect("TCP listener address");
        let writer = TcpStream::connect(addr).expect("connect to the wire server");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone the client socket"));
        Server {
            service,
            wire,
            writer,
            reader,
            next_seq: 0,
        }
    }

    /// Half-closes the connection, checks the server sends nothing more,
    /// then stops the front-end and the service.
    fn stop(mut self, report: &mut Report) {
        self.writer
            .shutdown(Shutdown::Write)
            .expect("half-close the client socket");
        let mut rest = Vec::new();
        let extra = self.reader.read_to_end(&mut rest).map_or(1, |n| n);
        report.check(extra == 0, "no response beyond one per request");
        self.wire.shutdown();
        self.service.shutdown();
    }
}

fn encode(buf: &mut Vec<u8>, dets: &[u32], actual: u32) {
    buf.clear();
    buf.push(OP_DECODE);
    buf.extend_from_slice(&actual.to_le_bytes());
    buf.extend_from_slice(&(dets.len() as u16).to_le_bytes());
    for &d in dets {
        buf.extend_from_slice(&d.to_le_bytes());
    }
}

fn read_response(r: &mut impl Read) -> (u64, Prediction) {
    let mut f = [0u8; RESPONSE_FRAME_BYTES];
    r.read_exact(&mut f).expect("read a response frame");
    let u64_at = |i: usize| u64::from_le_bytes(f[i..i + 8].try_into().expect("8 bytes"));
    (
        u64_at(0),
        Prediction {
            observables: u32::from_le_bytes(f[8..12].try_into().expect("4 bytes")),
            cycles: u64_at(12),
            deferred: f[20] != 0,
        },
    )
}

fn sleep_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        std::thread::sleep(target - now);
    }
}

/// The pre-sampled requests and their offline answers: shots
/// `..n_open` feed the open loop once each, and the saturated phase
/// cycles through the rest.
struct Workload {
    stream: SyndromeBatch,
    offline: Vec<Prediction>,
    n_open: usize,
}

impl Workload {
    fn new(ctx: &DecodingContext, seed: u64, n_open: usize) -> Workload {
        let stream = build_workload(
            ctx,
            &LoadGenConfig {
                clients: 1,
                shots_per_client: n_open + SAT_POOL,
                mode: ArrivalMode::Open {
                    shots_per_sec: OPEN_RATE,
                },
                replay_fraction: REPLAY_FRACTION,
                seed: mix(seed, 0),
            },
        )
        .pop()
        .expect("one client stream");
        let mut decoder = MwpmDecoder::for_context(ctx);
        let offline = decode_slice(
            &mut decoder,
            &mut DecodeScratch::new(),
            &stream,
            0..stream.len(),
        )
        .predictions;
        Workload {
            stream,
            offline,
            n_open,
        }
    }

    /// Stream index of the saturated phase's `j`-th request.
    fn sat_shot(&self, j: usize) -> usize {
        self.n_open + j % SAT_POOL
    }
}

/// What one phase saw.
struct PhaseOut {
    responses: usize,
    /// Fired detectors over the phase's requests.
    defects: usize,
    /// Response minus due time, open loop only.
    lat_ns: Vec<f64>,
    /// Send start minus due time, open loop only.
    late_ns: Vec<f64>,
    /// Response minus send completion, open loop only.
    send_to_recv_ns: Vec<f64>,
    wall_s: f64,
    /// Responses per second in each whole [`STAT_WINDOW_S`] window,
    /// saturated phase only.
    window_rates: Vec<f64>,
    cpu_s: f64,
    start_ns: u64,
    end_ns: u64,
    tiles: u64,
}

/// Reads one response and checks it is the next in order and equals
/// offline `decode_slice` of the same shot.
fn receive(server: &mut Server, w: &Workload, shot: usize, report: &mut Report) {
    let (seq, pred) = read_response(&mut server.reader);
    report.check(
        seq == server.next_seq && pred == w.offline[shot],
        "wire response in order and equal to offline decode_slice",
    );
    server.next_seq += 1;
}

/// Sends the open-loop shots at [`OPEN_RATE`] from a sending thread with
/// lowered timer slack; the calling thread receives.
fn open_phase(server: &mut Server, w: &Workload, report: &mut Report) -> PhaseOut {
    let n = w.n_open;
    let interval = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let tiles0 = server.service.stats().tiles;
    let start_ns = trace::now_ns();
    let cpu0 = probe::cpu_seconds();
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |j: usize| t0 + interval * j as u32;
    let first_seq = server.next_seq;
    let mut writer = server.writer.try_clone().expect("clone the client socket");
    let stream = &w.stream;
    let (recv_at, (late_ns, sent_at)) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            if !probe::set_thread_timer_slack_ns(SENDER_TIMER_SLACK_NS) {
                eprintln!("perfbench: could not lower the sender's timer slack");
            }
            let mut buf = Vec::new();
            let mut late = Vec::with_capacity(n);
            let mut sent_at = Vec::with_capacity(n);
            for j in 0..n {
                let d = due(j);
                sleep_until(d);
                late.push(d.elapsed().as_nanos() as f64);
                encode(&mut buf, stream.detectors(j), stream.observables(j));
                {
                    let _s = trace::span(Layer::WireSend, first_seq + j as u64, 1);
                    writer.write_all(&buf).expect("send a request");
                }
                sent_at.push(Instant::now());
            }
            writer.write_all(&[OP_FLUSH]).expect("send FLUSH");
            trace::finish_thread();
            (late, sent_at)
        });
        let mut recv_at = Vec::with_capacity(n);
        for j in 0..n {
            receive(server, w, j, report);
            recv_at.push(Instant::now());
        }
        (recv_at, sender.join().expect("open-loop sender panicked"))
    });
    let since = |from: &dyn Fn(usize) -> Instant| -> Vec<f64> {
        (0..n)
            .map(|j| recv_at[j].saturating_duration_since(from(j)).as_nanos() as f64)
            .collect()
    };
    PhaseOut {
        responses: n,
        defects: (0..n).map(|j| stream.detectors(j).len()).sum(),
        lat_ns: since(&due),
        late_ns,
        send_to_recv_ns: since(&|j| sent_at[j]),
        wall_s: t0.elapsed().as_secs_f64(),
        window_rates: Vec::new(),
        cpu_s: probe::cpu_seconds() - cpu0,
        start_ns,
        end_ns: trace::now_ns(),
        tiles: server.service.stats().tiles - tiles0,
    }
}

/// Keeps [`WINDOW`] requests outstanding until `seconds` have passed;
/// the calling thread receives and decides when to stop. Until it does,
/// the sender always has a request in flight or on its way, so every
/// blocking read is answered.
fn saturated_phase(
    server: &mut Server,
    w: &Workload,
    seconds: f64,
    report: &mut Report,
) -> PhaseOut {
    let tiles0 = server.service.stats().tiles;
    let start_ns = trace::now_ns();
    let first_seq = server.next_seq;
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let mut writer = server.writer.try_clone().expect("clone the client socket");
    let cpu0 = probe::cpu_seconds();
    let t0 = Instant::now();
    let (responses, last, marks) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut buf = Vec::new();
            let mut sent = 0;
            // A closed credit channel is the stop signal.
            while sent < WINDOW || credit_rx.recv().is_ok() {
                let i = w.sat_shot(sent);
                encode(&mut buf, w.stream.detectors(i), w.stream.observables(i));
                {
                    let _s = trace::span(Layer::WireSend, first_seq + sent as u64, 1);
                    writer.write_all(&buf).expect("send a request");
                }
                sent += 1;
            }
            writer.write_all(&[OP_FLUSH]).expect("send FLUSH");
            trace::finish_thread();
            sent
        });
        let mut received = 0;
        let mut last;
        // (elapsed seconds, responses so far) at each window boundary.
        let mut marks = vec![(0.0, 0usize)];
        loop {
            receive(server, w, w.sat_shot(received), report);
            received += 1;
            last = Instant::now();
            let elapsed = last.duration_since(t0).as_secs_f64();
            if elapsed >= marks[marks.len() - 1].0 + STAT_WINDOW_S {
                marks.push((elapsed, received));
            }
            if elapsed >= seconds {
                break;
            }
            credit_tx.send(()).expect("sender waits for credits");
        }
        drop(credit_tx);
        let sent = sender.join().expect("saturated sender panicked");
        while received < sent {
            receive(server, w, w.sat_shot(received), report);
            received += 1;
        }
        (received, last, marks)
    });
    PhaseOut {
        responses,
        defects: (0..responses)
            .map(|j| w.stream.detectors(w.sat_shot(j)).len())
            .sum(),
        lat_ns: Vec::new(),
        late_ns: Vec::new(),
        send_to_recv_ns: Vec::new(),
        wall_s: last.duration_since(t0).as_secs_f64(),
        window_rates: marks
            .windows(2)
            .map(|m| ratio((m[1].1 - m[0].1) as f64, m[1].0 - m[0].0))
            .collect(),
        cpu_s: probe::cpu_seconds() - cpu0,
        start_ns,
        end_ns: trace::now_ns(),
        tiles: server.service.stats().tiles - tiles0,
    }
}

/// The open-loop phase, its exact-count fingerprint, then the saturated
/// phase, on one connection.
fn run_phases(
    server: &mut Server,
    w: &Workload,
    seconds: f64,
    seed: u64,
    report: &mut Report,
) -> (PhaseOut, PhaseOut) {
    let open = open_phase(server, w, report);
    let s = server.service.stats();
    println!(
        "fingerprint {NAME} seed={seed} shots={} trivial={} hw1={} hw2={} closed_form={} \
         deep={} failures={}",
        s.counters.shots_screened,
        s.counters.trivial_shots,
        s.counters.hw1_shots,
        s.counters.hw2_shots,
        s.counters.closed_form_shots,
        s.counters.sparse_blossom_shots,
        s.outcome.failures
    );
    let sat = saturated_phase(server, w, seconds, report);
    (open, sat)
}

fn build_context() -> Arc<DecodingContext> {
    let code = SurfaceCode::new(DISTANCE).expect("valid surface code distance");
    Arc::new(DecodingContext::for_memory_experiment(
        &code,
        NoiseModel::depolarizing(P),
    ))
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> (Report, Vec<ThreadTrace>) {
    let mut report = Report::default();
    // Untraced runs give each phase half the time; traced runs repeat
    // both phases untraced and traced, a quarter each.
    let phase_s = if traced { seconds / 4.0 } else { seconds / 2.0 };
    let mut setup = Vec::new();
    let mut context = Vec::new();
    let mut server: Option<Server> = None;
    let mut ctx = None;
    while another_setup(&setup) {
        if let Some(s) = server.take() {
            s.stop(&mut report);
        }
        let t = Instant::now();
        let c = build_context();
        context.push(t.elapsed().as_secs_f64());
        server = Some(Server::start(Arc::clone(&c), false));
        setup.push(t.elapsed().as_secs_f64());
        ctx = Some(c);
    }
    let (mut server, ctx) = (
        server.expect("at least one set-up"),
        ctx.expect("at least one set-up"),
    );
    report.set("setup_s", median(&setup));
    report.set("setup.context_s", median(&context));
    let w = Workload::new(&ctx, seed, (OPEN_RATE * phase_s).round() as usize);

    let (open, sat) = run_phases(&mut server, &w, phase_s, seed, &mut report);
    let counters = server.service.stats().counters;
    server.stop(&mut report);
    eprintln!(
        "perfbench: open {} req p50 {:.1}us (generator late p50 {:.1}us), saturated {} req in {:.2}s \
         ({:.1} per tile, window rates {:?}), {} hard-cache hits of {}",
        open.responses,
        median(&open.lat_ns) / 1e3,
        median(&open.late_ns) / 1e3,
        sat.responses,
        sat.wall_s,
        ratio(sat.responses as f64, sat.tiles as f64),
        sat.window_rates.iter().map(|r| *r as u64).collect::<Vec<_>>(),
        counters.hard_cache_hits,
        counters.hard_cache_hits + counters.hard_cache_misses
    );
    if !traced {
        report.set("peak_rss_mb", probe::peak_rss_mb());
        report.set("shots_per_s", median(&sat.window_rates));
        report.set("defects_per_core_s", ratio(sat.defects as f64, sat.cpu_s));
        return (report, Vec::new());
    }

    let plain_sat_s_per_shot = ratio(sat.wall_s, sat.responses as f64);
    let mut server = Server::start(Arc::clone(&ctx), true);
    trace::set_enabled(true);
    let (open, sat) = run_phases(&mut server, &w, phase_s, seed, &mut report);
    trace::set_enabled(false);
    let stats = server.service.stats();
    server.stop(&mut report);
    let threads = trace::take_all();

    report.set(
        "ler",
        ratio(
            stats.outcome.failures as f64,
            stats.counters.shots_screened as f64,
        ),
    );
    let tot = trace::totals(&threads, open.start_ns, sat.end_ns);
    crate::ler::set_decoder_layers(&mut report, &stats.counters, &tot);
    report.set("serve.gen_late_p50_us", median(&open.late_ns) / 1e3);
    report.set("serve.gen_late_p99_us", quantile(&open.late_ns, 0.99) / 1e3);
    report.set(
        "serve.send_to_recv_p50_us",
        median(&open.send_to_recv_ns) / 1e3,
    );
    report.set("serve.lat_p50_us", median(&open.lat_ns) / 1e3);
    report.set("serve.lat_p99_us", quantile(&open.lat_ns, 0.99) / 1e3);
    report.set("serve.lat_p999_us", quantile(&open.lat_ns, 0.999) / 1e3);
    report.set("serve.lat_samples", open.lat_ns.len() as f64);
    report.set(
        "serve.shots_per_tile_open",
        ratio(open.responses as f64, open.tiles as f64),
    );
    report.set(
        "serve.shots_per_tile_sat",
        ratio(sat.responses as f64, sat.tiles as f64),
    );
    let sat_tot = trace::totals(&threads, sat.start_ns, sat.end_ns);
    let (busy_ns, busy_shots) = [Layer::ClosedForm, Layer::Dp, Layer::Deep]
        .iter()
        .map(|&l| trace::get(&sat_tot, l))
        .fold((0u64, 0u64), |(ns, n), t| (ns + t.dur_ns, n + t.shots));
    let workers = ServeConfig::default().workers as f64;
    report.set(
        "serve.worker_busy_frac",
        ratio(busy_ns as f64, workers * sat.wall_s * 1e9),
    );
    report.set(
        "serve.worker_ns_per_shot",
        ratio(busy_ns as f64, busy_shots as f64),
    );
    report.set(
        "trace.overhead_frac",
        ratio(
            ratio(sat.wall_s, sat.responses as f64),
            plain_sat_s_per_shot,
        ) - 1.0,
    );
    (report, threads)
}
