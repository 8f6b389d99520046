//! One benchmark for the BASM stack.
//!
//! ```text
//! basm-perfbench --workload train|serve|load --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for about `S` seconds on inputs made from seed `N`,
//! checks the program's outputs, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report the
//! end-to-end metrics; traced runs (`--trace 1`) record a span around every
//! call the benchmark makes into a layer, write them to
//! `perfbench/out/trace-<workload>-<seed>.json`, and report the per-layer
//! metrics derived from them. See `perfbench/README.md`.

mod checks;
mod common;
mod load;
mod probes;
mod serve;
mod stats;
mod trace;
mod train;

use basm_serving::{LoadSummary, ServingPipeline};
use basm_tensor::bufpool::PoolStats;
use std::path::PathBuf;
use trace::Tracer;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("data.generate_s", "s"),
    ("data.batch_ms", "ms"),
    ("core.train_step_ms", "ms"),
    ("core.train_step_p90_ms", "ms"),
    ("core.predict_ms", "ms"),
    ("core.checkpoint_attach_ms", "ms"),
    ("metrics.report_ms", "ms"),
    ("metrics.test_auc", "auc"),
    ("tensor.bufpool.reuse", "count"),
    ("tensor.bufpool.miss", "count"),
    ("tensor.bufpool.returned", "count"),
    ("tensor.bufpool.dropped", "count"),
    ("tensor.packstore.cache_hits", "count"),
    ("tensor.packstore.cache_misses", "count"),
    ("serving.recall_us", "us"),
    ("serving.features_us", "us"),
    ("serving.score_us", "us"),
    ("serving.serve_us", "us"),
    ("serving.serve_p99_us", "us"),
    ("serving.click_write_us", "us"),
    ("serving.stage_coverage_pct", "%"),
    ("serving.memo.hits", "count"),
    ("serving.memo.misses", "count"),
    ("serving.memo.invalidations", "count"),
    ("serving.memo.evictions", "count"),
    ("serving.frontend.batches", "count"),
    ("serving.frontend.model_served", "count"),
    ("serving.frontend.deadline_shed", "count"),
    ("serving.frontend.microbatch_score_ms", "ms"),
    ("serving.journal.append_us", "us"),
    ("serving.journal.records", "count"),
];

/// One reported figure.
#[derive(Debug)]
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// What one run measured and found.
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Whether every check on the operations that did not fail held.
    pub correct: bool,
    /// Figures, end-to-end and per-layer alike.
    pub metrics: Vec<Metric>,
}

impl Default for Outcome {
    /// Nothing attempted, nothing failed, no figures yet.
    fn default() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: Vec::new(),
        }
    }
}

impl Outcome {
    /// A check failed: the run is not correct.
    pub fn problem(&mut self, why: String) {
        eprintln!("CHECK FAILED: {why}");
        self.correct = false;
    }

    /// Set a figure, replacing any earlier one of the same name.
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, unit, value });
    }

    /// The end-to-end figures: medians of the set-up, throughput and
    /// latency samples, and the peak RSS; and the test AUC of the model
    /// trained or served, reported per layer.
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        throughput: &[f64],
        latency_ms: &[f64],
        auc: f64,
    ) {
        let med = |v: &[f64]| stats::median(v).expect("a metric without samples");
        self.put("setup_s", "s", med(setup_s));
        self.put("peak_rss_mb", "MiB", common::peak_rss_mb());
        self.put("throughput_per_s", "1/s", med(throughput));
        self.put("latency_p50_ms", "ms", med(latency_ms));
        self.put("metrics.test_auc", "auc", auc);
        let show = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        eprintln!("set-up s: {}", show(setup_s));
        eprintln!(
            "throughput samples ({}): {}",
            throughput.len(),
            show(throughput)
        );
        eprintln!("latency samples: {}", latency_ms.len());
    }

    /// Median of a per-layer sample.
    pub fn layer_median(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        self.put(name, unit, stats::median(samples).unwrap_or(f64::NAN));
    }

    /// Buffer-pool traffic between two snapshots.
    pub fn pool_counts(&mut self, before: PoolStats, after: PoolStats) {
        self.put(
            "tensor.bufpool.reuse",
            "count",
            (after.reuse - before.reuse) as f64,
        );
        self.put(
            "tensor.bufpool.miss",
            "count",
            (after.miss - before.miss) as f64,
        );
        self.put(
            "tensor.bufpool.returned",
            "count",
            (after.returned - before.returned) as f64,
        );
        self.put(
            "tensor.bufpool.dropped",
            "count",
            (after.dropped - before.dropped) as f64,
        );
    }

    /// Memo and pack-store cache counters of a serving replica.
    pub fn serving_counts(&mut self, pipe: &mut ServingPipeline) {
        let memo = pipe.memo_stats();
        self.put("serving.memo.hits", "count", memo.hit as f64);
        self.put("serving.memo.misses", "count", memo.miss as f64);
        self.put(
            "serving.memo.invalidations",
            "count",
            memo.invalidate as f64,
        );
        self.put("serving.memo.evictions", "count", memo.evict as f64);
        let cache = pipe.model.embedder().emb.cache_stats();
        self.put("tensor.packstore.cache_hits", "count", cache.hits as f64);
        self.put(
            "tensor.packstore.cache_misses",
            "count",
            cache.misses as f64,
        );
    }

    /// Front-end counters of a load run and the WAL records it wrote.
    pub fn frontend_counts(&mut self, s: &LoadSummary, wal_records: u64) {
        self.put("serving.frontend.batches", "count", s.batches as f64);
        self.put(
            "serving.frontend.model_served",
            "count",
            s.model_served as f64,
        );
        self.put(
            "serving.frontend.deadline_shed",
            "count",
            s.deadline_shed as f64,
        );
        self.put("serving.journal.records", "count", wal_records as f64);
    }

    /// The per-layer timings, derived from the recorded spans.
    fn span_metrics(&mut self, tr: &Tracer) {
        let scaled = |name: &str, div: f64| {
            tr.durations_ns(name)
                .iter()
                .map(|n| n / div)
                .collect::<Vec<_>>()
        };
        let ms = |name: &str| scaled(name, 1e6);
        self.layer_median("data.generate_s", "s", &scaled("data.generate", 1e9));
        self.layer_median("data.batch_ms", "ms", &ms("data.batch"));
        self.layer_median("core.train_step_ms", "ms", &ms("core.train_step"));
        let p90 = stats::percentile(&ms("core.train_step"), 90.0).unwrap_or(f64::NAN);
        self.put("core.train_step_p90_ms", "ms", p90);
        self.layer_median("core.predict_ms", "ms", &ms("core.predict"));
        self.layer_median(
            "core.checkpoint_attach_ms",
            "ms",
            &ms("core.checkpoint_attach"),
        );
        self.layer_median("metrics.report_ms", "ms", &ms("metrics.report"));
        serve::stage_metrics(tr, self);
        self.layer_median(
            "serving.frontend.microbatch_score_ms",
            "ms",
            &ms("serving.frontend.microbatch_score"),
        );
        self.layer_median(
            "serving.journal.append_us",
            "us",
            &scaled("serving.journal.append", 1e3),
        );
    }

    /// The result line: the figures of this mode, in the declared order.
    fn to_json(&self, traced: bool) -> String {
        let wanted: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let body: Vec<String> = wanted
            .iter()
            .map(|(name, unit)| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert_eq!(m.unit, *unit, "unit of {name}");
                assert!(m.value.is_finite(), "metric {name} is {}", m.value);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    m.value
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    prep_checkpoint: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        prep_checkpoint: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--prep-checkpoint" => args.prep_checkpoint = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.prep_checkpoint.is_none()
        && !["train", "serve", "load"].contains(&args.workload.as_str())
    {
        return Err(format!(
            "unknown workload {:?} (train, serve or load)",
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: basm-perfbench --workload train|serve|load --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    if let Some(dir) = args.prep_checkpoint {
        let auc = common::prepare_checkpoint(
            &mut Tracer::new(false),
            &common::Seeds::derive(args.seed),
            &dir,
        );
        std::fs::write(common::auc_file(&dir), format!("{auc}\n"))
            .expect("write the checkpoint's AUC");
        return;
    }
    let run_dir = common::RunDir::create();
    // Anything the program puts in the temporary directory stays in the run
    // directory, inside the checkout.
    std::env::set_var("TMPDIR", &run_dir.0);
    let mut tr = Tracer::new(args.trace);
    let wall = std::time::Instant::now();
    let mut out = match args.workload.as_str() {
        "train" => train::run(&mut tr, args.seed, args.seconds, &run_dir.0),
        "serve" => serve::run(&mut tr, args.seed, args.seconds, &run_dir.0),
        "load" => load::run(&mut tr, args.seed, args.seconds, &run_dir.0),
        other => unreachable!("workload {other:?} passed the argument check"),
    };
    if args.trace {
        out.span_metrics(&tr);
        let path = common::out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, tr.to_json()).expect("write the trace");
        eprintln!("trace: {} spans in {}", tr.spans().len(), path.display());
    }
    eprintln!("run took {:.1} s", wall.elapsed().as_secs_f64());
    println!("{}", out.to_json(args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            2 + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
