//! The untraced run (end-to-end metrics) and the traced run (per-layer
//! metrics).

use std::hint::black_box;
use std::time::Instant;

use edvit::distributed::into_executors;
use edvit::edge::{FeatureBatchMessage, PayloadCodec, TransportKind, WireFrame};
use edvit::metrics::MetricsSink;
use edvit::nn::{Gelu, Layer};
use edvit::serving::{percentile, ServeScheduler};
use edvit::tensor::{init::TensorRng, Tensor};
use edvit::vit::analysis::cost_of_pruned;

use crate::deploy::{self, Built, Shape};
use crate::stats::{median, tail};
use crate::trace::{self, Tracer, HOST_LANE};
use crate::workload::{
    facade_call, reference, scheduler_call, Call, Checks, Workload, REQUEST_BATCH,
};
use crate::{Ctx, Metric, Outcome, RunSpec, END_TO_END, PER_LAYER};

/// Fills `metrics` in the order of `names`; every name must be present.
fn ordered(
    names: &[(&'static str, &'static str)],
    values: Vec<(&str, f64, String)>,
) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| {
            let (_, value, note) = values
                .iter()
                .find(|(n, _, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            Metric {
                name,
                unit,
                value: *value,
                note: note.clone(),
            }
        })
        .collect()
}

/// Flips the lowest bit of the reference's first value.
fn corrupt(reference: &mut [Tensor]) {
    if let Some(first) = reference.first_mut() {
        let mut data = first.data().to_vec();
        if let Some(v) = data.first_mut() {
            *v = f32::from_bits(v.to_bits() ^ 1);
        }
        *first = Tensor::from_vec(data, first.dims()).expect("same shape as before");
    }
}

fn prepare(spec: &RunSpec, builds: usize) -> Result<(Built, Vec<f64>, Vec<Tensor>), String> {
    let shape = spec.workload.shape(spec.tiny);
    let mut setup = Vec::with_capacity(builds);
    let mut built = None;
    for _ in 0..builds.max(1) {
        let started = Instant::now();
        built = Some(deploy::build(shape, spec.seed, spec.workload.pool_size())?);
        setup.push(started.elapsed().as_secs_f64());
    }
    let built = built.expect("at least one build");
    let mut reference = reference(&built)?;
    if spec.corrupt_reference {
        corrupt(&mut reference);
    }
    Ok((built, setup, reference))
}

/// Peak resident set size of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks that TCP calls fuse exactly what the sim transport fuses.
fn sim_matches_tcp(spec: &RunSpec, built: &Built, reference: &[Tensor], checks: &mut Checks) {
    let calls: u64 = match spec.workload {
        Workload::VitS224StreamSim => return,
        Workload::Vit32RequestTcp => built.pool.len().div_ceil(REQUEST_BATCH) as u64,
        Workload::Vit32ServeTcp => 1,
    };
    for call in 0..calls {
        let sim = facade_call(
            spec.workload,
            built,
            spec.seed,
            call,
            Some(TransportKind::Sim),
        );
        let tcp = facade_call(
            spec.workload,
            built,
            spec.seed,
            call,
            Some(TransportKind::Tcp),
        );
        match (sim, tcp) {
            (Ok(sim), Ok(tcp)) => {
                checks.check("sim leg", &sim, reference);
                checks.check("tcp leg", &tcp, reference);
                let same = sim.outputs.len() == tcp.outputs.len()
                    && sim
                        .outputs
                        .iter()
                        .zip(&tcp.outputs)
                        .all(|(a, b)| a.0 == b.0 && a.1.data() == b.1.data());
                if !same {
                    checks.failed += 1;
                    checks.problem(format!("call {call}: TCP outputs differ from sim outputs"));
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                checks.attempted += 1;
                checks.failed += 1;
                checks.problem(e);
            }
        }
    }
}

/// The untraced run: set up several times, then time facade calls for
/// `spec.seconds` of call time, checking every output.
pub fn end_to_end(spec: &RunSpec) -> Result<Outcome, String> {
    let w = spec.workload;
    let builds = if w.shape(spec.tiny) == Shape::VitSmall224 {
        5
    } else {
        15
    };
    let (built, setup, reference) = prepare(spec, builds)?;
    let mut checks = Checks::default();
    sim_matches_tcp(spec, &built, &reference, &mut checks);

    let mut latencies = Vec::new();
    let mut completed = 0u64;
    let mut busy = 0.0;
    let mut call = 0u64;
    while busy < spec.seconds || latencies.is_empty() {
        match facade_call(w, &built, spec.seed, call, None) {
            Ok(c) => {
                checks.check(&format!("call {call}"), &c, &reference);
                latencies.push(c.seconds);
                completed += c.completed();
                busy += c.seconds;
            }
            Err(e) => {
                checks.attempted += 1;
                checks.failed += 1;
                checks.problem(format!("call {call}: {e}"));
                break;
            }
        }
        call += 1;
    }

    let ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
    let mut lines = vec![format!(
        "calls: {} x {}; {completed} fused outputs checked bitwise against the reference",
        ms.len(),
        w.call_unit()
    )];
    lines.push(match tail(&ms).filter(|&(_, pct)| pct >= 50.0) {
        Some((value, pct)) => format!(
            "latency_tail_ms: {value} ms = p{pct:.1} of {} calls (10 calls beyond it)",
            ms.len()
        ),
        None => format!(
            "latency_tail_ms: omitted, {} calls leave no percentile >= p50 with 10 beyond it",
            ms.len()
        ),
    });
    let ratio = if checks.attempted > 0 {
        checks.failed as f64 / checks.attempted as f64
    } else {
        0.0
    };
    lines.push(format!(
        "failure_ratio: {ratio} ({} failed of {} attempted; failed + shed + wrong output)",
        checks.failed, checks.attempted
    ));
    let throughput = if busy > 0.0 {
        completed as f64 / busy
    } else {
        0.0
    };
    let metrics = ordered(
        &END_TO_END,
        vec![
            (
                "setup_s",
                median(&setup),
                format!(
                    "median of {} builds: plan, weights, prune, inputs",
                    setup.len()
                ),
            ),
            (
                "throughput_sps",
                throughput,
                "fused outputs per second of call time".to_string(),
            ),
            (
                "latency_p50_ms",
                median(&ms),
                format!("median wall time of one {}", w.call_unit()),
            ),
            (
                "peak_rss_mb",
                peak_rss_mb(),
                "VmHWM of the process".to_string(),
            ),
        ],
    );
    Ok(Outcome {
        checks,
        metrics,
        lines,
    })
}

/// Median of `reps` timed runs of `f`, in milliseconds.
fn solo_ms(tracer: &Tracer, layer: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let before = tracer.spans().len();
    for rep in 0..reps.max(1) {
        tracer.time(layer, HOST_LANE, rep as u64, &mut f);
    }
    median(&trace::durations(&tracer.spans()[before..], layer))
}

/// Sizes of the traced run: scheduler calls per segment, and rounds of the
/// solo calls into each layer.
struct Sizes {
    calls: u64,
    solo_reps: usize,
}

impl Sizes {
    fn of(spec: &RunSpec) -> Sizes {
        let s = spec.seconds.max(0.0);
        let (calls, solo_reps) = match (spec.workload, spec.tiny) {
            (_, true) => (1, 3),
            (Workload::VitS224StreamSim, false) => (((s / 8.0).ceil() as u64).max(1), 6),
            (Workload::Vit32RequestTcp, false) => (((s * 3.0) as u64).max(10), 300),
            (Workload::Vit32ServeTcp, false) => (((s / 2.0).ceil() as u64).max(2), 300),
        };
        Sizes { calls, solo_reps }
    }
}

/// Journal leg of one recorded call: replays the journal and checks the
/// counters against the live report bitwise. Returns `(events, bytes,
/// replay ms)`.
fn journal_leg(
    sink: &MetricsSink,
    call: &Call,
    checks: &mut Checks,
) -> Result<(f64, f64, f64), String> {
    let journal = sink.journal();
    let bytes = journal.to_text().len() as f64;
    let started = Instant::now();
    let matches = if let Some(serve) = &call.serve {
        journal
            .replay_serve()
            .ctx("replay_serve")?
            .bitwise_eq(&serve.counters())
    } else if let Some(stream) = &call.stream {
        journal
            .replay_stream()
            .ctx("replay_stream")?
            .bitwise_eq(&stream.counters())
    } else {
        false
    };
    let replay_ms = started.elapsed().as_secs_f64() * 1e3;
    if !matches {
        checks.failed += 1;
        checks.problem("journal replay does not match the live report bitwise".to_string());
    }
    Ok((journal.len() as f64, bytes, replay_ms))
}

/// The traced run: untraced, traced and recording calls interleaved, then
/// solo calls into each layer.
pub fn traced(spec: &RunSpec) -> Result<Outcome, String> {
    let w = spec.workload;
    let sizes = Sizes::of(spec);
    let (built, _, reference) = prepare(spec, 1)?;
    let mut checks = Checks::default();
    let tracer = Tracer::default();

    // ---- Interleaved segments ------------------------------------------
    let mut facade_s = Vec::new();
    let (mut base_s, mut traced_s, mut sink_s) = (0.0, 0.0, 0.0);
    let (mut events, mut journal_bytes, mut replay_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut stream_reports = Vec::new();
    let mut live_rounds = None;
    let run = |checks: &mut Checks, what: &str, result: Result<Call, String>| match result {
        Ok(c) => {
            checks.check(what, &c, &reference);
            Some(c)
        }
        Err(e) => {
            checks.attempted += 1;
            checks.failed += 1;
            checks.problem(format!("{what}: {e}"));
            None
        }
    };
    for call in 0..sizes.calls {
        if !w.facade_is_scheduler() {
            if let Some(c) = run(
                &mut checks,
                "facade",
                facade_call(w, &built, spec.seed, call, None),
            ) {
                facade_s.push(c.seconds);
            }
        }
        let base = if w.facade_is_scheduler() {
            facade_call(w, &built, spec.seed, call, None)
        } else {
            scheduler_call(w, &built, spec.seed, call, None, MetricsSink::disabled())
        };
        if let Some(c) = run(&mut checks, "untraced", base) {
            base_s += c.seconds;
            if w.facade_is_scheduler() {
                facade_s.push(c.seconds);
            }
        }
        let traced = scheduler_call(
            w,
            &built,
            spec.seed,
            call,
            Some(&tracer),
            MetricsSink::disabled(),
        );
        if let Some(c) = run(&mut checks, "traced", traced) {
            traced_s += c.seconds;
            if let Some(serve) = &c.serve {
                live_rounds.get_or_insert(serve.rounds_formed);
            }
            if let Some(report) = c.stream.or_else(|| c.serve.and_then(|s| s.stream)) {
                stream_reports.push(report);
            }
        }
        let sink = MetricsSink::recording();
        let recorded = scheduler_call(w, &built, spec.seed, call, None, sink.clone());
        if let Some(c) = run(&mut checks, "recorded", recorded) {
            sink_s += c.seconds;
            let (e, b, r) = journal_leg(&sink, &c, &mut checks)?;
            events.push(e);
            journal_bytes.push(b);
            replay_ms.push(r);
        }
    }
    let spans = tracer.spans();
    let forward_ms = median(&trace::durations(&spans, "vit.forward"));
    let forward_calls = trace::durations(&spans, "vit.forward").len();
    let fusion_ms = median(&trace::durations(&spans, "fusion"));
    let fusion_calls = trace::durations(&spans, "fusion").len();
    let lanes = built.deployment.sub_models.len() as f64;
    let busy_ms: f64 = trace::durations(&spans, "vit.forward").iter().sum();
    let handoff_ms = median(&trace::handoffs(&spans, "vit.forward", "fusion"));

    // ---- Solo calls into each layer ------------------------------------
    // The sub-model forwards and the components of one block run
    // round-robin, so drift in the runner's speed hits them alike and the
    // unattributed remainder stays meaningful.
    let (mut executors, mut fusion) = into_executors(built.deployment.clone());
    let sample = &built.pool[0];
    let features = executors
        .iter_mut()
        .map(|f| f(sample))
        .collect::<Result<Vec<Tensor>, String>>()?;
    let refs: Vec<&Tensor> = features.iter().collect();
    let concat = Tensor::concat_last_axis(&refs).ctx("feature concat")?;
    let model = &built.deployment.sub_models[0].model;
    let block = &model.blocks()[0];
    let image = sample.reshape(&[1, sample.dims()[0], sample.dims()[1], sample.dims()[2]]);
    let image = image.ctx("batch axis")?;
    let mut patch = model.patch_embed().clone();
    let tokens = patch.forward(&image).ctx("patch embed")?;
    let mut ln = block.ln1().clone();
    let normed = ln.forward(&tokens).ctx("layernorm")?;
    let mut mhsa = block.attn().clone();
    let mut mlp = block.ffn().clone();
    let hidden =
        TensorRng::new(spec.seed).randn(&[1, tokens.dims()[1], block.ffn_hidden()], 0.0, 1.0);
    let mut gelu = Gelu::new();
    {
        type Solo<'a> = (&'static str, usize, Box<dyn FnMut() -> bool + 'a>);
        let mut solo: Vec<Solo<'_>> = Vec::new();
        for (lane, f) in executors.iter_mut().enumerate() {
            solo.push((
                "solo.vit.forward",
                lane,
                Box::new(move || f(sample).is_ok()),
            ));
        }
        let components: [Solo<'_>; 6] = [
            (
                "solo.fusion",
                HOST_LANE,
                Box::new(|| fusion(&concat).is_ok()),
            ),
            (
                "solo.nn.patch_embed",
                HOST_LANE,
                Box::new(|| patch.forward(&image).is_ok()),
            ),
            (
                "solo.nn.layernorm",
                HOST_LANE,
                Box::new(|| ln.forward(&tokens).is_ok()),
            ),
            (
                "solo.nn.mhsa",
                HOST_LANE,
                Box::new(|| mhsa.forward(&normed).is_ok()),
            ),
            (
                "solo.nn.mlp",
                HOST_LANE,
                Box::new(|| mlp.forward(&normed).is_ok()),
            ),
            (
                "solo.nn.gelu",
                HOST_LANE,
                Box::new(|| gelu.forward(&hidden).is_ok()),
            ),
        ];
        solo.extend(components);
        for rep in 0..sizes.solo_reps as u64 {
            for (layer, lane, f) in &mut solo {
                black_box(tracer.time(layer, *lane, rep, &mut *f));
            }
        }
    }
    let spans = tracer.spans();
    let solo = |layer: &str| median(&trace::durations(&spans, layer));
    let per_sub: Vec<f64> = (0..executors.len())
        .map(|lane| median(&trace::lane_durations(&spans, "solo.vit.forward", lane)))
        .collect();
    let forward_solo_ms = solo("solo.vit.forward");
    let max_forward_ms = per_sub.iter().copied().fold(0.0, f64::max);
    let fusion_solo_ms = solo("solo.fusion");
    let flops: u64 = built
        .deployment
        .sub_models
        .iter()
        .map(|s| cost_of_pruned(&s.plan).flops)
        .sum();
    let solo_total_ms: f64 = per_sub.iter().sum();
    let gflops = flops as f64 / (solo_total_ms / 1e3) / 1e9;
    let analytic_gflops = built.devices[0].flops_per_second / 1e9;
    let (patch_ms, ln_ms, mhsa_ms) = (
        solo("solo.nn.patch_embed"),
        solo("solo.nn.layernorm"),
        solo("solo.nn.mhsa"),
    );
    let (mlp_ms, gelu_ms) = (solo("solo.nn.mlp"), solo("solo.nn.gelu"));
    let depth = model.depth() as f64;
    let components_ms = patch_ms + depth * (2.0 * ln_ms + mhsa_ms + mlp_ms) + ln_ms;
    let per_sub0 = per_sub[0];

    // Wire: one frame of the workload's round size at sub-model 0's width.
    let width = model.embed_dim();
    let mut message = FeatureBatchMessage::new(0, width);
    for i in 0..w.round_size() {
        message
            .push_feature(i, features[0].data())
            .ctx("frame feature")?;
    }
    let wire_reps = sizes.solo_reps * 4;
    let encode_us = 1e3
        * solo_ms(&tracer, "solo.wire.encode", wire_reps, || {
            black_box(message.encode_with(PayloadCodec::F32));
        });
    let encoded = message.encode_with(PayloadCodec::F32);
    let decode_us = 1e3
        * solo_ms(&tracer, "solo.wire.decode", wire_reps, || {
            black_box(WireFrame::decode(encoded.clone()).ok());
        });

    // Serve: a solo drill over this workload's plan with the serving
    // workload's arrival recipe (for the serving workload: its first drill).
    let config = w.serve_config(
        &built,
        spec.seed,
        0,
        TransportKind::Sim,
        MetricsSink::disabled(),
    )?;
    let server = ServeScheduler::new(
        built.deployment.plan.clone(),
        built.devices.clone(),
        config.clone(),
    )
    .ctx("serve scheduler")?;
    let requests = config
        .arrivals
        .generate(config.tenants.len(), built.pool.len())
        .ctx("arrivals")?;
    let mut outcome = None;
    let drill_ms = solo_ms(&tracer, "solo.serve.drill", 20, || {
        outcome = server.drill(&requests).ok();
    });
    let outcome = outcome.ok_or("ServeScheduler::drill failed")?;
    let batches: Vec<f64> = outcome
        .rounds
        .iter()
        .map(|r| r.requests.len() as f64)
        .collect();
    let mut waits: Vec<f64> = outcome
        .rounds
        .iter()
        .flat_map(|r| {
            r.requests
                .iter()
                .map(|q| r.completion_seconds - q.arrival_seconds)
        })
        .collect();
    waits.sort_by(f64::total_cmp);
    if w == Workload::Vit32ServeTcp && live_rounds != Some(outcome.rounds.len()) {
        checks.failed += 1;
        checks.problem("solo drill forms other rounds than the live server".to_string());
    }

    let plan_ms = solo_ms(&tracer, "solo.partition.plan", 20, || {
        black_box(deploy::plan(w.shape(spec.tiny), spec.seed).ok());
    });

    // ---- Derived numbers --------------------------------------------------
    let rounds: usize = stream_reports.iter().map(|r| r.rounds).sum();
    let samples: usize = stream_reports.iter().map(|r| r.outputs.len()).sum();
    let in_flight = stream_reports
        .iter()
        .map(|r| r.max_rounds_in_flight)
        .max()
        .unwrap_or(0);
    let data_frames: usize = stream_reports.iter().map(|r| r.data_frames).sum();
    let wire_bytes: u64 = stream_reports.iter().map(|r| r.bytes_on_wire).sum();
    let per_call = |total: f64| total / stream_reports.len().max(1) as f64;
    let blocking_ms = per_call(samples as f64) * (max_forward_ms + fusion_solo_ms)
        + per_call(rounds as f64) * (encode_us + decode_us) / 1e3;
    let facade_p50_ms = median(&facade_s) * 1e3;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let n = sizes.calls;
    let values = vec![
        (
            "vit.forward_calls",
            forward_calls as f64,
            format!("device forwards in {n} traced calls"),
        ),
        (
            "vit.forward_ms",
            forward_ms,
            "p50 of in-run device forwards".to_string(),
        ),
        (
            "vit.forward_solo_ms",
            forward_solo_ms,
            "p50 forward with nothing else running".to_string(),
        ),
        (
            "vit.contention",
            ratio(forward_ms, forward_solo_ms),
            "in-run / solo forward".to_string(),
        ),
        (
            "vit.gflops",
            gflops,
            format!(
                "cost-model FLOPs (ModelCost::flops) / solo forward time; the latency model assumes {analytic_gflops:.3}"
            ),
        ),
        (
            "vit.device_busy_share",
            ratio(busy_ms / 1e3, lanes * traced_s),
            "forward time / (devices x traced wall)".to_string(),
        ),
        (
            "nn.patch_embed_ms",
            patch_ms,
            "solo PatchEmbed::forward, batch 1".to_string(),
        ),
        (
            "nn.layernorm_ms",
            ln_ms,
            "solo LayerNorm::forward on block 0".to_string(),
        ),
        (
            "nn.mhsa_ms",
            mhsa_ms,
            "solo MultiHeadSelfAttention::forward on block 0".to_string(),
        ),
        (
            "nn.mlp_ms",
            mlp_ms,
            "solo Mlp::forward (incl. GELU) on block 0".to_string(),
        ),
        (
            "nn.gelu_ms",
            gelu_ms,
            "solo Gelu::forward over the FFN hidden".to_string(),
        ),
        (
            "vit.unattributed_ms",
            per_sub0 - components_ms,
            format!("solo forward {per_sub0:.4} ms - components {components_ms:.4} ms"),
        ),
        (
            "fusion.calls",
            fusion_calls as f64,
            format!("fusion calls in {n} traced calls"),
        ),
        (
            "fusion.ms",
            fusion_ms,
            "p50 of in-run fusion calls".to_string(),
        ),
        (
            "wire.data_frames",
            data_frames as f64,
            format!("data frames in {n} traced calls"),
        ),
        (
            "wire.bytes",
            wire_bytes as f64,
            format!("bytes on wire in {n} traced calls"),
        ),
        (
            "wire.encode_us",
            encode_us,
            format!(
                "FeatureBatchMessage::encode_with(F32), {} x {width}",
                w.round_size()
            ),
        ),
        (
            "wire.decode_us",
            decode_us,
            format!("WireFrame::decode, {} x {width}", w.round_size()),
        ),
        (
            "sched.rounds",
            rounds as f64,
            format!("rounds in {n} traced calls"),
        ),
        (
            "sched.mean_round_size",
            ratio(samples as f64, rounds as f64),
            "samples per round".to_string(),
        ),
        (
            "sched.max_rounds_in_flight",
            in_flight as f64,
            "max over traced calls".to_string(),
        ),
        (
            "sched.handoff_ms",
            handoff_ms,
            "p50 of fusion start - last device forward end".to_string(),
        ),
        (
            "net.call_overhead_ms",
            facade_p50_ms - blocking_ms,
            format!("facade p50 {facade_p50_ms:.4} ms - solo blocking path {blocking_ms:.4} ms"),
        ),
        (
            "serve.drill_ms",
            drill_ms,
            format!("solo ServeScheduler::drill of {} requests", requests.len()),
        ),
        (
            "serve.rounds",
            batches.len() as f64,
            "rounds the solo drill forms".to_string(),
        ),
        (
            "serve.mean_batch",
            ratio(batches.iter().sum(), batches.len() as f64),
            "requests per drill round".to_string(),
        ),
        (
            "serve.shed",
            outcome.counters.iter().map(|c| c.shed() as f64).sum(),
            "requests the drill sheds".to_string(),
        ),
        (
            "serve.depth_changes",
            outcome.depth_changes.len() as f64,
            "adaptive depth transitions".to_string(),
        ),
        (
            "serve.virtual_p99_s",
            percentile(&waits, 0.99),
            "virtual-clock p99 request latency".to_string(),
        ),
        (
            "metrics.events",
            median(&events),
            "journal events per recorded call".to_string(),
        ),
        (
            "metrics.journal_bytes",
            median(&journal_bytes),
            "journal text bytes per recorded call".to_string(),
        ),
        (
            "metrics.replay_ms",
            median(&replay_ms),
            "p50 RunJournal replay".to_string(),
        ),
        (
            "metrics.sink_overhead",
            ratio(sink_s, base_s),
            "recording-sink wall / disabled-sink wall".to_string(),
        ),
        (
            "partition.plan_ms",
            plan_ms,
            "p50 SplitPlanner::plan".to_string(),
        ),
        (
            "trace.overhead",
            ratio(traced_s, base_s),
            "traced wall / untraced wall".to_string(),
        ),
    ];
    let metrics = ordered(&PER_LAYER, values);

    let spans = tracer.spans();
    let mut lines = vec![format!(
        "traced run: {n} call(s) per segment; engine: {}",
        if w.facade_is_scheduler() {
            "the facade's own scheduler"
        } else {
            "one-round StreamScheduler::run over TCP (run_distributed is a separate engine)"
        }
    )];
    lines.push("span self times: layer | count | total ms | self ms".to_string());
    for (layer, (count, total, own)) in trace::self_times(&spans) {
        lines.push(format!(
            "  {layer:<22} {count:>7} {total:>12.3} {own:>12.3}"
        ));
    }
    if let Some(dir) = &spec.spans_dir {
        std::fs::create_dir_all(dir).ctx("spans directory")?;
        let path = dir.join(format!("spans-{}-seed{}.tsv", w.name(), spec.seed));
        std::fs::write(&path, trace::to_tsv(&spans)).ctx("writing spans")?;
        lines.push(format!("spans written to {}", path.display()));
    }
    Ok(Outcome {
        checks,
        metrics,
        lines,
    })
}
