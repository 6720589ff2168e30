//! `perfbench` — the terrain oracle's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               --oracled <path to the oracled binary> --work <scratch dir>
//! perfbench build-atlas --seed <n> --out <file.seat> --reps <k> [--trace-out <file.json>]
//! ```
//!
//! `run` prints notes, then one JSON line: `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). `build-atlas` is the separate process that
//! builds the atlas image for the `atlas-*` workloads, so the process
//! answering queries never holds a built atlas. `perfbench/run.py` builds
//! everything and is the command to use.

mod atlas;
mod check;
mod inputs;
mod measure;
mod oracle_batch;
mod serve_socket;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, in output order, with units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("pairs_per_s", "pairs/s"),
    ("lat_p50_us", "us"),
    ("index_bytes", "bytes"),
    ("image_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
    ("rel_dev_mean", "ratio"),
];

/// Per-layer metrics, in output order, with units.
const PER_LAYER: [(&str, &str); 38] = [
    ("terrain.refine_ms", "ms"),
    ("geodesic.ssad_requests", "count"),
    ("geodesic.engine_runs", "count"),
    ("geodesic.cache_hit_ratio", "ratio"),
    ("geodesic.sweep_ms", "ms"),
    ("build.tree_ms", "ms"),
    ("build.enhanced_ms", "ms"),
    ("build.pair_gen_ms", "ms"),
    ("build.considered_pairs", "count"),
    ("build.stored_pairs", "count"),
    ("build.hash_ms", "ms"),
    ("storage.tree_bytes", "bytes"),
    ("storage.pair_table_bytes", "bytes"),
    ("persist.encode_ms", "ms"),
    ("persist.decode_ms", "ms"),
    ("persist.raw_image_bytes", "bytes"),
    ("oracle.ns_per_pair", "ns"),
    ("oracle.probes_per_pair", "probes/pair"),
    ("oracle.scratch_hit_ratio", "ratio"),
    ("net.pairs_per_batch", "pairs"),
    ("net.queue_depth_max", "count"),
    ("net.codec_us_per_req", "us"),
    ("net.compute_us_per_req", "us"),
    ("net.wait_us_per_req", "us"),
    ("atlas.cross_tile_share", "ratio"),
    ("atlas.intra_us_per_pair", "us"),
    ("atlas.cross_us_per_pair", "us"),
    ("atlas.portals", "count"),
    ("atlas.tile_build_ms", "ms"),
    ("tilestore.misses_per_pair", "ratio"),
    ("tilestore.evictions_per_pair", "ratio"),
    ("tilestore.us_per_miss", "us"),
    ("tilestore.resident_bytes", "bytes"),
    ("tilestore.open_ms", "ms"),
    ("trace.setup_overhead_pct", "%"),
    ("trace.p50_overhead_pct", "%"),
    ("trace.pairs_per_s_overhead_pct", "%"),
    ("trace.events", "count"),
];

/// What one `run` hands back.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub e2e: BTreeMap<&'static str, f64>,
    /// Layer metrics not set by a workload stay 0: the layer does no work
    /// on that workload.
    pub layers: BTreeMap<&'static str, f64>,
}

/// The untraced measurements a traced pass is compared against.
pub struct Untraced {
    pub setup_s: f64,
    pub lat_p50_us: f64,
    pub pairs_per_s: f64,
}

impl Report {
    /// Fills the `trace.*` overhead metrics from a traced re-run.
    pub fn overhead(&mut self, base: &Untraced, traced: &Untraced, events: usize) {
        let pct = |t: f64, b: f64| (t / b - 1.0) * 100.0;
        self.layers.insert("trace.setup_overhead_pct", pct(traced.setup_s, base.setup_s));
        self.layers.insert("trace.p50_overhead_pct", pct(traced.lat_p50_us, base.lat_p50_us));
        self.layers
            .insert("trace.pairs_per_s_overhead_pct", pct(base.pairs_per_s, traced.pairs_per_s));
        self.layers.insert("trace.events", events as f64);
        println!(
            "# tracing overhead (traced vs untraced): setup {:+.1}%, lat_p50 {:+.1}%, pairs/s {:+.1}% slower",
            pct(traced.setup_s, base.setup_s),
            pct(traced.lat_p50_us, base.lat_p50_us),
            pct(base.pairs_per_s, traced.pairs_per_s),
        );
    }
}

/// Parsed `run` arguments.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub oracled: PathBuf,
    pub work: PathBuf,
}

impl RunArgs {
    /// Where the traced run writes its Chrome trace JSON.
    pub fn trace_path(&self, part: &str) -> PathBuf {
        self.work.join(format!("trace-{}-{}-{part}.json", self.workload, self.seed))
    }
}

fn take(args: &mut Vec<String>, name: &str) -> Result<String, String> {
    let at = args.iter().position(|a| a == name).ok_or_else(|| format!("missing {name}"))?;
    if at + 1 >= args.len() {
        return Err(format!("{name} needs a value"));
    }
    let v = args.remove(at + 1);
    args.remove(at);
    Ok(v)
}

fn parse<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid {what}: '{v}'"))
}

fn json_line(report: &Report, trace: bool) -> String {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let source = if trace { &report.layers } else { &report.e2e };
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            // A layer a workload does not exercise reads 0; every workload
            // sets every end-to-end metric.
            let v = match source.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn run(mut args: Vec<String>) -> Result<(), String> {
    let a = RunArgs {
        workload: take(&mut args, "--workload")?,
        seed: parse(&take(&mut args, "--seed")?, "--seed")?,
        seconds: Duration::from_secs_f64(parse(&take(&mut args, "--seconds")?, "--seconds")?),
        trace: match take(&mut args, "--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        },
        oracled: take(&mut args, "--oracled")?.into(),
        work: take(&mut args, "--work")?.into(),
    };
    if let Some(stray) = args.first() {
        return Err(format!("unexpected argument '{stray}'"));
    }
    std::fs::create_dir_all(&a.work).map_err(|e| format!("creating {}: {e}", a.work.display()))?;
    let report = match a.workload.as_str() {
        "oracle-batch" => oracle_batch::run(&a),
        "atlas-ooc" => atlas::run(&a),
        other => return Err(format!("unknown workload '{other}' (oracle-batch, atlas-ooc)")),
    };
    println!("{}", json_line(&report, a.trace));
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: perfbench run ... | perfbench build-atlas ... (see perfbench/README.md)");
        return ExitCode::from(2);
    }
    let result = match args.remove(0).as_str() {
        "run" => run(args),
        "build-atlas" => atlas::build_main(args),
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}
