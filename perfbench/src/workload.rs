//! The three workloads and the calls they make: the public facade entry
//! points for untraced timing, and the schedulers underneath them (with
//! optionally wrapped executors) for the traced run.

use std::collections::BTreeMap;
use std::time::Instant;

use edvit::distributed::{into_executors, run_distributed, RunOptions};
use edvit::edge::{NetOptions, PayloadCodec, SubModelFn, TransportKind};
use edvit::metrics::MetricsSink;
use edvit::sched::{StreamConfig, StreamReport, StreamScheduler};
use edvit::serve::run_server;
use edvit::serving::{ArrivalSpec, ServeConfig, ServeReport, ServeScheduler, TenantSpec};
use edvit::streaming::run_streaming;
use edvit::tensor::Tensor;

use crate::deploy::{Built, Shape};
use crate::trace::{Tracer, HOST_LANE};
use crate::Ctx;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale ViT-Small, one pipelined `run_streaming` call per clip
    /// over the sim transport with uniform rounds.
    VitS224StreamSim,
    /// Trainable-scale ViT-Base, a 16-image batch per `run_distributed`
    /// call over TCP, driven closed-loop by one client.
    Vit32RequestTcp,
    /// Trainable-scale ViT-Base behind `run_server` over TCP: two tenants,
    /// seeded Poisson arrivals at 0.9× nominal capacity, round capacity 16.
    Vit32ServeTcp,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] = [
    Workload::VitS224StreamSim,
    Workload::Vit32RequestTcp,
    Workload::Vit32ServeTcp,
];

/// Images per `run_streaming` call: a short clip of pipelined rounds.
const STREAM_CLIP: usize = 4;
/// Images per `run_distributed` call. Single-image calls are mostly thread
/// wake-ups, and their median swung by up to 2x between runs on a shared
/// 2-vCPU runner; at 16 the per-call fixed costs stay visible while the
/// median holds within a few percent.
pub const REQUEST_BATCH: usize = 16;
/// Requests per `run_server` drill.
const SERVE_REQUESTS: usize = 256;
/// Round capacity of the serving workload.
const SERVE_ROUND: usize = 16;
/// Offered load as a share of the server's nominal capacity.
const SERVE_LOAD: f64 = 0.9;

impl Workload {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VitS224StreamSim => "vits224_stream_sim",
            Workload::Vit32RequestTcp => "vit32_request_tcp",
            Workload::Vit32ServeTcp => "vit32_serve_tcp",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on what a call is, for the report.
    pub fn call_unit(self) -> &'static str {
        match self {
            Workload::VitS224StreamSim => "run_streaming call of a 4-image clip",
            Workload::Vit32RequestTcp => "run_distributed call of a 16-image batch",
            Workload::Vit32ServeTcp => "run_server drill of 256 requests",
        }
    }

    /// Model geometry at full size, or the self-test's minimal one.
    pub fn shape(self, tiny: bool) -> Shape {
        match (self, tiny) {
            (_, true) => Shape::Tiny,
            (Workload::VitS224StreamSim, false) => Shape::VitSmall224,
            _ => Shape::VitBase32,
        }
    }

    /// Distinct input images; the reference covers all of them, so every
    /// fused output is checked.
    pub fn pool_size(self) -> usize {
        match self {
            Workload::VitS224StreamSim => STREAM_CLIP,
            _ => 32,
        }
    }

    /// Wire round size: samples per data frame. `run_distributed` ships a
    /// call's whole batch as one round.
    pub fn round_size(self) -> usize {
        match self {
            Workload::VitS224StreamSim => 1,
            Workload::Vit32RequestTcp => REQUEST_BATCH,
            Workload::Vit32ServeTcp => SERVE_ROUND,
        }
    }

    /// Whether the traced run's scheduler path is the facade's own path
    /// (`run_streaming` and `run_server` are `into_executors` plus
    /// `StreamScheduler::run` / `ServeScheduler::run`). `run_distributed` is
    /// a separate one-shot engine, so its traced proxy is a one-round
    /// `StreamScheduler::run` over TCP.
    pub fn facade_is_scheduler(self) -> bool {
        self != Workload::Vit32RequestTcp
    }

    fn transport(self) -> TransportKind {
        match self {
            Workload::VitS224StreamSim => TransportKind::Sim,
            _ => TransportKind::Tcp,
        }
    }

    /// The streaming configuration of this workload's rounds.
    pub fn stream_config(self, transport: TransportKind, sink: MetricsSink) -> StreamConfig {
        let options = NetOptions::default()
            .with_codec(PayloadCodec::F32)
            .with_transport(transport);
        StreamConfig {
            round_size: self.round_size(),
            ..StreamConfig::default()
        }
        .with_options(&options)
        .with_sink(sink)
    }

    /// The serving configuration for drill `call`: two tenants whose queues
    /// hold every request, Poisson arrivals at 0.9× the nominal capacity of
    /// `built`'s plan.
    pub fn serve_config(
        self,
        built: &Built,
        seed: u64,
        call: u64,
        transport: TransportKind,
        sink: MetricsSink,
    ) -> Result<ServeConfig, String> {
        let tenants = vec![
            TenantSpec::new("cam-a", SERVE_REQUESTS),
            TenantSpec::new("cam-b", SERVE_REQUESTS),
        ];
        let mut config = ServeConfig::new(tenants, ArrivalSpec::new(1.0, SERVE_REQUESTS, 0));
        config.stream = StreamConfig {
            round_size: SERVE_ROUND,
            ..self.stream_config(transport, sink.clone())
        };
        let nominal = ServeScheduler::new(
            built.deployment.plan.clone(),
            built.devices.clone(),
            config.clone(),
        )
        .ctx("serve scheduler")?
        .nominal_capacity_per_second()
        .ctx("nominal capacity")?;
        config.arrivals = ArrivalSpec::new(SERVE_LOAD * nominal, SERVE_REQUESTS, mix(seed, call));
        Ok(config.with_sink(sink))
    }
}

/// Derives the seed of call `call` from the run seed.
pub fn mix(seed: u64, call: u64) -> u64 {
    let mut z = seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fused output per pool image, from the `into_executors` closures called
/// one sample at a time on this thread.
pub fn reference(built: &Built) -> Result<Vec<Tensor>, String> {
    let (mut executors, mut fusion) = into_executors(built.deployment.clone());
    built
        .pool
        .iter()
        .map(|sample| {
            let features = executors
                .iter_mut()
                .map(|f| f(sample))
                .collect::<Result<Vec<Tensor>, String>>()?;
            let refs: Vec<&Tensor> = features.iter().collect();
            let concat = Tensor::concat_last_axis(&refs).ctx("feature concat")?;
            fusion(&concat)
        })
        .collect()
}

/// What one call produced.
#[derive(Debug, Default)]
pub struct Call {
    /// Wall seconds of the call itself.
    pub seconds: f64,
    /// Requests (or samples) the call was asked to serve.
    pub attempted: u64,
    /// Fused outputs, each with the pool image it belongs to.
    pub outputs: Vec<(usize, Tensor)>,
    /// The scheduler's report, for stream-engine calls.
    pub stream: Option<StreamReport>,
    /// The server's report, for serving calls.
    pub serve: Option<ServeReport>,
}

impl Call {
    /// Samples the call fused.
    pub fn completed(&self) -> u64 {
        self.outputs.len() as u64
    }
}

/// Pool images of `workload`'s batch number `call`.
fn batch(workload: Workload, call: u64, pool: usize) -> Vec<usize> {
    let size = match workload {
        Workload::VitS224StreamSim => STREAM_CLIP,
        _ => REQUEST_BATCH,
    };
    (0..size)
        .map(|j| (call as usize * size + j) % pool)
        .collect()
}

fn serve_outputs(
    config: &ServeConfig,
    pool: usize,
    report: &ServeReport,
) -> Result<Vec<(usize, Tensor)>, String> {
    let sample_of: BTreeMap<u64, usize> = config
        .arrivals
        .generate(config.tenants.len(), pool)
        .ctx("arrivals")?
        .into_iter()
        .map(|r| (r.id, r.sample))
        .collect();
    report
        .outputs
        .iter()
        .map(|(id, t)| {
            sample_of
                .get(id)
                .map(|&s| (s, t.clone()))
                .ok_or_else(|| format!("output for unknown request {id}"))
        })
        .collect()
}

/// One untraced call through the public facade entry point.
pub fn facade_call(
    workload: Workload,
    built: &Built,
    seed: u64,
    call: u64,
    transport: Option<TransportKind>,
) -> Result<Call, String> {
    let transport = transport.unwrap_or(workload.transport());
    let deployment = built.deployment.clone();
    match workload {
        Workload::VitS224StreamSim => {
            let indices = batch(workload, call, built.pool.len());
            let samples: Vec<Tensor> = indices.iter().map(|&i| built.pool[i].clone()).collect();
            let config = workload.stream_config(transport, MetricsSink::disabled());
            let started = Instant::now();
            let report = run_streaming(deployment, &samples, built.devices.clone(), config)
                .ctx("run_streaming")?;
            let seconds = started.elapsed().as_secs_f64();
            Ok(Call {
                seconds,
                attempted: samples.len() as u64,
                outputs: indices.into_iter().zip(report.outputs.clone()).collect(),
                stream: Some(report),
                serve: None,
            })
        }
        Workload::Vit32RequestTcp => {
            let indices = batch(workload, call, built.pool.len());
            let samples: Vec<Tensor> = indices.iter().map(|&i| built.pool[i].clone()).collect();
            let options = RunOptions {
                net: NetOptions::default()
                    .with_codec(PayloadCodec::F32)
                    .with_transport(transport),
                ..RunOptions::default()
            };
            let started = Instant::now();
            let report = run_distributed(deployment, &samples, &options).ctx("run_distributed")?;
            let seconds = started.elapsed().as_secs_f64();
            Ok(Call {
                seconds,
                attempted: samples.len() as u64,
                outputs: indices.into_iter().zip(report.outputs).collect(),
                stream: None,
                serve: None,
            })
        }
        Workload::Vit32ServeTcp => {
            let config =
                workload.serve_config(built, seed, call, transport, MetricsSink::disabled())?;
            let started = Instant::now();
            let report = run_server(
                deployment,
                &built.pool,
                built.devices.clone(),
                config.clone(),
            )
            .ctx("run_server")?;
            let seconds = started.elapsed().as_secs_f64();
            Ok(Call {
                seconds,
                attempted: config.arrivals.count as u64,
                outputs: serve_outputs(&config, built.pool.len(), &report)?,
                stream: None,
                serve: Some(report),
            })
        }
    }
}

/// One call through the scheduler underneath the facade, with `into_executors`
/// closures wrapped by `tracer` when given, recording into `sink`.
pub fn scheduler_call(
    workload: Workload,
    built: &Built,
    seed: u64,
    call: u64,
    tracer: Option<&Tracer>,
    sink: MetricsSink,
) -> Result<Call, String> {
    let (executors, fusion) = into_executors(built.deployment.clone());
    let (executors, fusion): (Vec<SubModelFn>, SubModelFn) = match tracer {
        Some(t) => (
            executors
                .into_iter()
                .enumerate()
                .map(|(lane, f)| t.wrap("vit.forward", lane, call, f))
                .collect(),
            t.wrap("fusion", HOST_LANE, call, fusion),
        ),
        None => (executors, fusion),
    };
    let plan = built.deployment.plan.clone();
    let transport = workload.transport();
    let started = Instant::now();
    let call_start = tracer.map(Tracer::now);
    let mut result = match workload {
        Workload::VitS224StreamSim | Workload::Vit32RequestTcp => {
            let indices = batch(workload, call, built.pool.len());
            let samples: Vec<Tensor> = indices.iter().map(|&i| built.pool[i].clone()).collect();
            let config = workload.stream_config(transport, sink);
            let report = StreamScheduler::new(plan, built.devices.clone(), config)
                .ctx("stream scheduler")?
                .run(&samples, executors, fusion)
                .ctx("StreamScheduler::run")?;
            Call {
                seconds: 0.0,
                attempted: samples.len() as u64,
                outputs: indices.into_iter().zip(report.outputs.clone()).collect(),
                stream: Some(report),
                serve: None,
            }
        }
        Workload::Vit32ServeTcp => {
            let config = workload.serve_config(built, seed, call, transport, sink)?;
            let report = ServeScheduler::new(plan, built.devices.clone(), config.clone())
                .ctx("serve scheduler")?
                .run(&built.pool, executors, fusion)
                .ctx("ServeScheduler::run")?;
            Call {
                seconds: 0.0,
                attempted: config.arrivals.count as u64,
                outputs: serve_outputs(&config, built.pool.len(), &report)?,
                stream: None,
                serve: Some(report),
            }
        }
    };
    result.seconds = started.elapsed().as_secs_f64();
    if let (Some(t), Some(start_ns)) = (tracer, call_start) {
        t.push(crate::trace::Span {
            layer: "call",
            lane: HOST_LANE,
            call,
            seq: 0,
            start_ns,
            end_ns: t.now(),
        });
    }
    Ok(result)
}

/// Tally of output checks.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Checks {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed, were shed, or fused to a wrong output.
    pub failed: u64,
    /// Human-readable description of each failed check (first few kept).
    pub problems: Vec<String>,
}

impl Checks {
    /// Records a failed check.
    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 8 {
            self.problems.push(message);
        }
    }

    /// Checks every output of `call` bitwise against `reference`, and that
    /// nothing was lost.
    pub fn check(&mut self, what: &str, call: &Call, reference: &[Tensor]) {
        self.attempted += call.attempted;
        let missing = call.attempted.saturating_sub(call.completed());
        if missing > 0 {
            self.failed += missing;
            self.problem(format!("{what}: {missing} request(s) not completed"));
        }
        for (index, output) in &call.outputs {
            if output.data() != reference[*index].data() {
                self.failed += 1;
                self.problem(format!(
                    "{what}: output for pool image {index} differs from the reference"
                ));
            }
        }
        if let Some(serve) = &call.serve {
            if !serve.no_lost_requests() {
                self.failed += 1;
                self.problem(format!("{what}: ServeReport::no_lost_requests() is false"));
            }
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }
}
