//! The `serve` workload: one closed-loop client sending
//! `ServingPipeline::serve` requests to a replica on one pool thread, with
//! ground-truth clicks written back through `FeatureServer::record_click`.
//! The same loop, run for a fixed number of requests, is the serving probe
//! of the other workloads' traced runs.

use crate::checks::{check_response, check_top_k};
use crate::common::{self, behavior, click_event, Seeds, POOL, SETUPS};
use crate::trace::Tracer;
use crate::Outcome;
use basm_data::{Context, TimePeriod, UserBlock, World};
use basm_serving::{score_block, score_candidates, LbsRecall, Request, ServingPipeline};
use basm_tensor::Prng;
use std::time::{Duration, Instant};

/// Requests per timed round; each round gives one `throughput_per_s` sample.
const ROUND: u64 = 250;
/// Every this many requests is replayed by the cold path and checked.
const CHECK_EVERY: u64 = 16;
/// Fewest requests a run makes, so p99 has ≥10 calls beyond it.
const MIN_REQUESTS: u64 = 2000;

/// The request stream: users activity-weighted, hours hour-of-day weighted,
/// the cell the user's home cell jittered by at most one step, as in the
/// A/B simulator; each request carries its own recall seed.
struct Requests {
    rng: Prng,
    user_weights: Vec<f64>,
    seed: u64,
    issued: u64,
}

impl Requests {
    fn new(world: &World, seed: u64) -> Self {
        Self {
            rng: Prng::seeded(seed),
            user_weights: world.users.iter().map(|u| u.activity as f64).collect(),
            seed,
            issued: 0,
        }
    }

    fn next(&mut self, world: &World) -> (Request, u64) {
        let uid = self.rng.weighted(&self.user_weights);
        let hour = self.rng.weighted(&world.hour_weights) as u8;
        let grid = world.config.geo_grid as i32;
        let home = world.users[uid].geo;
        let mut jitter = |v: u8| (v as i32 + self.rng.below(3) as i32 - 1).clamp(0, grid - 1) as u8;
        let geo = (jitter(home.0), jitter(home.1));
        self.issued += 1;
        let req_seed = common::mix(self.seed ^ self.issued);
        (
            Request {
                uid,
                day: 0,
                hour,
                geo,
            },
            req_seed,
        )
    }
}

fn request_context(world: &World, req: Request, position: u8) -> Context {
    Context {
        day: req.day,
        hour: req.hour,
        tp: TimePeriod::from_hour(req.hour),
        city: world.users[req.uid].city,
        geo: req.geo,
        position,
    }
}

/// What a serve loop measured and found.
#[derive(Default)]
pub struct ServeRun {
    /// Wall time of each `serve` call, ms.
    pub serve_ms: Vec<f64>,
    /// Requests per busy second, one sample per round.
    pub rps: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored or broke a check.
    pub failed: u64,
    /// Reasons of the first failures.
    pub problems: Vec<String>,
}

/// Send requests in whole rounds until `min_time` has passed and at least
/// `min_requests` were sent. With tracing on, each request is also taken
/// apart into its stages — recall, feature assembly, scoring — each timed
/// through the layer's own public call before the real `serve`.
pub fn serve_loop(
    tr: &mut Tracer,
    world: &World,
    pipe: &mut ServingPipeline,
    seeds: &Seeds,
    min_time: Duration,
    min_requests: u64,
) -> ServeRun {
    let recall = LbsRecall::build(world);
    let pools = common::city_pools(world);
    let mut requests = Requests::new(world, seeds.requests);
    let mut clicks = Prng::seeded(seeds.clicks);
    let noise = world.config.label_noise;
    let mut run = ServeRun::default();
    let start = Instant::now();
    while start.elapsed() < min_time || run.attempted < min_requests {
        let mut busy = Duration::ZERO;
        for _ in 0..ROUND {
            let (req, req_seed) = requests.next(world);
            let i = requests.issued;
            let user = &world.users[req.uid];
            let ctx = request_context(world, req, 0);
            // The cold-path expectation must be computed before `serve`
            // writes the request's exposures back into the counters.
            let expected = i.is_multiple_of(CHECK_EVERY).then(|| {
                let cands =
                    recall.candidates(user.city, req.geo, POOL, &mut Prng::seeded(req_seed));
                let history = pipe.features.history_snapshot(req.uid);
                let scores = pipe.features.with_counters(|c| {
                    score_candidates(
                        pipe.model.as_mut(),
                        world,
                        req.uid,
                        &cands,
                        ctx,
                        &history,
                        c,
                    )
                });
                (cands, scores)
            });
            if tr.on() {
                tr.span("serving.request", i, |tr| {
                    let cands = tr.span("serving.recall", i, |_| {
                        recall.candidates(user.city, req.geo, POOL, &mut Prng::seeded(req_seed))
                    });
                    let block = tr.span("serving.features", i, |_| {
                        let history = pipe.features.history_snapshot(req.uid);
                        pipe.features
                            .with_counters(|c| UserBlock::build(world, req.uid, ctx, &history, c))
                    });
                    tr.span("serving.score", i, |_| {
                        pipe.features.with_counters(|c| {
                            score_block(pipe.model.as_mut(), world, &block, &cands, c)
                        })
                    });
                });
            }
            let t0 = Instant::now();
            let served = tr.span("serving.serve", i, |_| {
                pipe.serve(world, req, &mut Prng::seeded(req_seed))
            });
            let serve_time = t0.elapsed();
            run.serve_ms.push(serve_time.as_secs_f64() * 1e3);
            run.attempted += 1;
            let exposures = match served {
                Ok(e) => e,
                Err(e) => {
                    run.fail(format!("request {i}: {e:?}"));
                    continue;
                }
            };
            let verdict = check_response(&exposures, common::TOP_K, &pools[user.city as usize])
                .and_then(|()| {
                    expected.map_or(Ok(()), |(cands, scores)| {
                        check_top_k(&exposures, &cands, &scores, common::TOP_K)
                    })
                });
            if let Err(why) = verdict {
                run.fail(format!("request {i}: {why}"));
            }
            // Ground-truth clicks, written back; part of the closed loop.
            let t1 = Instant::now();
            let history = pipe.features.history_snapshot(req.uid);
            for e in &exposures {
                let shown = request_context(world, req, e.position.min(u8::MAX as u16) as u8);
                let item = &world.items[e.item as usize];
                let beh = behavior(&history, item.category, shown.tp, world.config.seq_len);
                let p = world.click_probability(user, item, shown, beh, clicks.normal() * noise);
                if clicks.chance(p as f64) {
                    let event = click_event(world, e.item, req.hour, user.city);
                    let ordered = clicks.chance(0.35);
                    tr.span("serving.click_write", i, |_| {
                        pipe.features.record_click(req.uid, event, ordered)
                    });
                }
            }
            busy += serve_time + t1.elapsed();
        }
        run.rps.push(ROUND as f64 / busy.as_secs_f64());
    }
    run
}

impl ServeRun {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(why);
        }
    }
}

/// The `serve` workload.
pub fn run(tr: &mut Tracer, seed: u64, seconds: f64, run_dir: &std::path::Path) -> Outcome {
    let seeds = Seeds::derive(seed);
    let ckpt = run_dir.join("ckpt");
    let auc = common::checkpoint(tr, seed, &ckpt);
    // One pool thread: 30-row passes gain nothing from a second thread and
    // lose to its hand-off on a small shared host (see README).
    basm_tensor::pool::set_threads(1);
    let mut setup_s = Vec::new();
    let mut replica = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let world = World::generate(common::world_config());
        let pipe = common::build_pipeline(tr, &world, &seeds, &ckpt);
        setup_s.push(t.elapsed().as_secs_f64());
        replica = Some((world, pipe));
    }
    let (world, mut pipe) = replica.expect("at least one set-up");

    let pool_before = basm_tensor::bufpool::stats();
    let run = serve_loop(
        tr,
        &world,
        &mut pipe,
        &seeds,
        Duration::from_secs_f64(seconds),
        MIN_REQUESTS,
    );
    let pool_after = basm_tensor::bufpool::stats();
    for p in &run.problems {
        eprintln!("serve: {p}");
    }

    let mut out = Outcome {
        attempted: run.attempted,
        failed: run.failed,
        ..Outcome::default()
    };
    out.end_to_end(&setup_s, &run.rps, &run.serve_ms, auc);
    if tr.on() {
        out.pool_counts(pool_before, pool_after);
        out.serving_counts(&mut pipe);
        crate::probes::frontend(tr, &mut out, &world, &seeds, &ckpt, run_dir);
    }
    out
}

/// Per-layer figures of the serving stages, from a traced serve loop.
pub fn stage_metrics(tr: &Tracer, out: &mut Outcome) {
    let us = |name: &str| {
        tr.durations_ns(name)
            .iter()
            .map(|n| n / 1e3)
            .collect::<Vec<_>>()
    };
    out.layer_median("serving.recall_us", "us", &us("serving.recall"));
    out.layer_median("serving.features_us", "us", &us("serving.features"));
    out.layer_median("serving.score_us", "us", &us("serving.score"));
    out.layer_median("serving.serve_us", "us", &us("serving.serve"));
    let p99 = crate::stats::percentile(&us("serving.serve"), 99.0).unwrap_or(f64::NAN);
    out.put("serving.serve_p99_us", "us", p99);
    out.layer_median("serving.click_write_us", "us", &us("serving.click_write"));
    let total = |name: &str| tr.durations_ns(name).iter().sum::<f64>();
    let stages = total("serving.recall") + total("serving.features") + total("serving.score");
    out.put(
        "serving.stage_coverage_pct",
        "%",
        100.0 * stages / total("serving.serve"),
    );
}
