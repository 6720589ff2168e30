//! `atlas-ooc`: the compact `.seat` image of a 2×2 exact-engine atlas,
//! built by a separate `perfbench build-atlas` process, opened out of core
//! here with a resident budget of half its decoded size (misses dominate)
//! and queried through `AtlasHandle::distance_many_par` on two threads.
//! The traced run also replays the pairs on a fully resident load of the
//! same bytes, the like-for-like partner the tile-store figures are taken
//! against.

use crate::check::{chord_floor, pooled, Bound, Checks, Reference, Verdict};
use crate::inputs::{all_pairs, pairs, Inputs};
use crate::measure::{mean, median, median_time, ms, peak_rss_mb, rounds, self_ms, span_times};
use crate::oracle_batch::{build_config, SETUP_REPS};
use crate::{Report, RunArgs, Untraced};
use se_oracle::atlas::{Atlas, AtlasConfig, AtlasHandle};
use se_oracle::p2p::EngineKind;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Out-of-core opens per run; `setup_s` adds their median.
const OPEN_REPS: usize = 5;
/// Distinct batches, cycled in whole rounds.
const N_BATCHES: u64 = 16;
/// Pairs per batch.
const BATCH: usize = 1024;
/// Query threads.
const THREADS: usize = 2;

/// `perfbench build-atlas`: builds the atlas of the seed's inputs once
/// per build seed `0..--reps`, writes each compact image to
/// `<--out>-<rep>.seat`, and prints `key=value` lines for the parent.
/// With `--trace-out` it instead builds rep 0 once with tracing on and
/// reports the layer figures.
pub fn build_main(mut args: Vec<String>) -> Result<(), String> {
    let seed: u64 = crate::parse(&crate::take(&mut args, "--seed")?, "--seed")?;
    let out = crate::take(&mut args, "--out")?;
    let reps: usize = crate::parse(&crate::take(&mut args, "--reps")?, "--reps")?;
    let trace_out = crate::take(&mut args, "--trace-out").ok();
    if let Some(stray) = args.first() {
        return Err(format!("unexpected argument '{stray}'"));
    }
    let inputs = Inputs::generate(seed);
    let build = |rep: usize| {
        let t = Instant::now();
        let cfg = AtlasConfig { build: build_config(rep), ..AtlasConfig::default() };
        let atlas =
            Atlas::build(&inputs.mesh, &inputs.pois, crate::inputs::EPS, EngineKind::Exact, &cfg)
                .map_err(|e| format!("atlas construction: {e}"))?;
        let path = image_path(&out, rep);
        std::fs::write(&path, atlas.save_bytes_compact(true))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok::<_, String>((t.elapsed().as_secs_f64(), atlas))
    };
    let counter = |name: &str| obs::lookup(&obs::global().expose(), name).unwrap_or(0) as f64;
    let Some(trace_out) = trace_out else {
        let mut times = Vec::new();
        let mut tiles = Vec::new();
        for rep in 0..reps.max(1) {
            let (s, atlas) = build(rep)?;
            times.push(s);
            tiles.push(ms(atlas.build_stats().oracles));
        }
        println!("build_s={}", median(&times));
        println!("tile_build_ms={}", median(&tiles));
        return Ok(());
    };
    let names = [
        "build_ssad_runs_total",
        "build_cache_hits_total",
        "build_cache_misses_total",
        "build_considered_pairs_total",
    ];
    let before: Vec<f64> = names.iter().map(|n| counter(n)).collect();
    obs::trace::enable();
    let (traced_s, atlas) = {
        let _span = obs::trace::span("bench", "setup");
        build(0)?
    };
    let events = obs::trace::take_events();
    std::fs::write(&trace_out, obs::trace::export_chrome_json(&events))
        .map_err(|e| format!("writing {trace_out}: {e}"))?;
    for (n, b) in names.iter().zip(&before) {
        println!("{n}={}", counter(n) - b);
    }
    let times = span_times(&events);
    let total = |key: &str| times.get(key).map_or(0.0, |v| v.1 as f64 / 1e3);
    println!("traced_build_s={traced_s}");
    println!("trace_events={}", events.len());
    println!("tree_ms={}", total("build/tree"));
    println!("enhanced_ms={}", total("build/enhanced-edges"));
    println!("pair_gen_ms={}", total("build/pair-gen"));
    println!("sweep_ms={}", self_ms(&times, "ssad"));
    println!("tile_build_ms={}", ms(atlas.build_stats().oracles));
    let (refine_s, _) = median_time(5, || inputs.refine());
    println!("refine_ms={}", refine_s * 1e3);
    let (enc_s, image) = median_time(5, || atlas.save_bytes_compact(true));
    let (dec_s, _) = median_time(5, || Atlas::load_bytes(&image).expect("decoding the image"));
    println!("encode_ms={}", enc_s * 1e3);
    println!("decode_ms={}", dec_s * 1e3);
    println!("raw_image_bytes={}", atlas.save_bytes_compact(false).len());
    Ok(())
}

/// Where `build-atlas` writes the image of build seed `rep`.
fn image_path(prefix: &str, rep: usize) -> PathBuf {
    PathBuf::from(format!("{prefix}-{rep}.seat"))
}

/// Runs the `build-atlas` process and parses its `key=value` lines.
fn run_build_atlas(
    seed: u64,
    prefix: &str,
    reps: usize,
    trace_out: Option<&Path>,
) -> BTreeMap<String, f64> {
    let exe = std::env::current_exe().expect("locating perfbench");
    let mut cmd = Command::new(exe);
    cmd.arg("build-atlas").args(["--seed", &seed.to_string(), "--reps", &reps.to_string()]);
    cmd.args(["--out", prefix]);
    if let Some(t) = trace_out {
        cmd.arg("--trace-out").arg(t);
    }
    let out =
        cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output().expect("running build-atlas");
    assert!(out.status.success(), "build-atlas failed with {}", out.status);
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| {
            (k.to_string(), v.parse().unwrap_or_else(|_| panic!("build-atlas printed {k}={v}")))
        })
        .collect()
}

fn open(image: &Path, budget: usize) -> Atlas {
    Atlas::open_out_of_core(image, budget).expect("opening the atlas image out of core")
}

pub fn run(a: &RunArgs) -> Report {
    let prefix =
        a.work.join(format!("atlas-{}-{}", a.seed, std::process::id())).display().to_string();
    let built = run_build_atlas(a.seed, &prefix, SETUP_REPS, None);
    let served = image_path(&prefix, 0);
    let decoded = open(&served, usize::MAX).storage_bytes();
    let budget_bytes = decoded / 2;
    let (open_s, atlas) = median_time(OPEN_REPS, || open(&served, budget_bytes));
    let handle = AtlasHandle::new(atlas);
    let n = handle.n_sites();
    let batches: Vec<Vec<(u32, u32)>> =
        (0..N_BATCHES).map(|b| pairs(a.seed, b, n, BATCH)).collect();
    let expected: Vec<Vec<f64>> =
        batches.iter().map(|b| handle.distance_many_par(b, THREADS)).collect();
    let query = |b: &[(u32, u32)]| handle.distance_many_par(b, THREADS);
    let (phase, mismatches) = rounds(&batches, &expected, a.seconds, None, query);
    let rss = peak_rss_mb(None);
    println!("# {}", phase.note("distance_many_par batch latency"));
    let store = handle.atlas().tile_store().expect("opened out of core").stats();
    println!(
        "# tile store over the whole run: {} hits, {} misses, {} evictions, {} of {} bytes resident (budget {})",
        store.hits, store.misses, store.evictions, store.resident_bytes, decoded, store.budget_bytes
    );

    // Checks: the out-of-core answers against a fully resident load of the
    // same bytes, the chord floor, and the exact reference on every site
    // pair through the resident loads of every build seed.
    let images: Vec<Vec<u8>> = (0..SETUP_REPS)
        .map(|rep| std::fs::read(image_path(&prefix, rep)).expect("reading an image"))
        .collect();
    let resident: Vec<AtlasHandle> = images
        .iter()
        .map(|img| AtlasHandle::new(Atlas::load_bytes(img).expect("resident load")))
        .collect();
    let inputs = Inputs::generate(a.seed);
    let refined = inputs.refine();
    let sites = refined.atlas_sites();
    assert_eq!(sites.len(), n, "site count differs from the atlas's");
    let mut floor = Verdict::default();
    for (b, got) in batches.iter().zip(&expected) {
        floor.merge(chord_floor(&refined, &sites, b, got));
    }
    let reference = Reference::compute(&refined, &sites, all_pairs(n));
    let twin = batches.iter().flat_map(|b| resident[0].distance_many(b)).collect();
    let checks = Checks {
        refined: &refined,
        sites: &sites,
        reference: &reference,
        bound: Bound::atlas_v2(),
        sample: resident[0].distance_many(&reference.pairs),
        twin: Some((expected.concat(), twin)),
    };
    let (pass, note) = checks.pass();
    let (self_test_ok, self_note) = checks.self_test();
    let others: Vec<Vec<f64>> =
        resident[1..].iter().map(|h| h.distance_many(&reference.pairs)).collect();
    let (others_ok, dev) = pooled(&reference, Bound::atlas_v2(), &checks.sample, &others);
    println!(
        "# checks: {note} (out-of-core vs resident load); other build seeds within bound: {others_ok}; chord floor {}/{} ok; repeated rounds: {mismatches} mismatches",
        floor.checked - floor.violations,
        floor.checked
    );
    println!("# self-test (known-verdict answers): {self_note}");

    let mut r = Report {
        attempted: phase.answered(),
        failed: 0,
        correct: pass && others_ok && floor.ok() && mismatches == 0 && self_test_ok,
        ..Report::default()
    };
    let base = Untraced {
        setup_s: built["build_s"] + open_s,
        lat_p50_us: phase.p50(),
        pairs_per_s: phase.pairs_per_s(),
    };
    r.e2e.insert("setup_s", base.setup_s);
    r.e2e.insert("pairs_per_s", base.pairs_per_s);
    r.e2e.insert("lat_p50_us", base.lat_p50_us);
    r.e2e.insert("index_bytes", mean(resident.iter().map(|h| h.atlas().storage_bytes() as f64)));
    r.e2e.insert("image_bytes", mean(images.iter().map(|img| img.len() as f64)));
    r.e2e.insert("peak_rss_mb", rss);
    r.e2e.insert("rel_dev_mean", dev);

    if a.trace {
        // Traced pass: a traced build in the `build-atlas` process, and a
        // shorter traced query phase with spans around each call.
        let traced_prefix = format!("{prefix}-traced");
        let layers = run_build_atlas(a.seed, &traced_prefix, 1, Some(&a.trace_path("build")));
        let _ = std::fs::remove_file(image_path(&traced_prefix, 0));
        obs::trace::enable();
        let (tphase, _) =
            rounds(&batches, &expected, a.seconds / 2, Some("distance_many_par"), query);
        let events = obs::trace::take_events();
        std::fs::write(a.trace_path("run"), obs::trace::export_chrome_json(&events))
            .expect("writing the trace");
        println!(
            "# chrome traces: {} (build), {} (queries)",
            a.trace_path("build").display(),
            a.trace_path("run").display()
        );
        let traced = Untraced {
            setup_s: layers["traced_build_s"] + open_s,
            lat_p50_us: tphase.p50(),
            pairs_per_s: tphase.pairs_per_s(),
        };
        r.overhead(&base, &traced, events.len() + layers["trace_events"] as usize);
        let l = &mut r.layers;
        l.insert("terrain.refine_ms", layers["refine_ms"]);
        l.insert("geodesic.ssad_requests", layers["build_ssad_runs_total"]);
        l.insert("geodesic.engine_runs", layers["build_cache_misses_total"]);
        let (hits, misses) = (layers["build_cache_hits_total"], layers["build_cache_misses_total"]);
        l.insert("geodesic.cache_hit_ratio", hits / (hits + misses).max(1.0));
        l.insert("geodesic.sweep_ms", layers["sweep_ms"]);
        l.insert("build.tree_ms", layers["tree_ms"]);
        l.insert("build.enhanced_ms", layers["enhanced_ms"]);
        l.insert("build.pair_gen_ms", layers["pair_gen_ms"]);
        l.insert("build.considered_pairs", layers["build_considered_pairs_total"]);
        l.insert("persist.encode_ms", layers["encode_ms"]);
        l.insert("persist.decode_ms", layers["decode_ms"]);
        l.insert("persist.raw_image_bytes", layers["raw_image_bytes"]);
        l.insert("atlas.tile_build_ms", built["tile_build_ms"]);
        l.insert("atlas.portals", handle.atlas().n_portals() as f64);

        // Routing split, single-threaded on the resident load.
        let all: Vec<(u32, u32)> = batches.concat();
        let (cross, intra): (Vec<_>, Vec<_>) =
            all.iter().partition(|&&(s, t)| handle.atlas().is_cross_tile(s as usize, t as usize));
        l.insert("atlas.cross_tile_share", cross.len() as f64 / all.len() as f64);
        let per_pair = |p: &[(u32, u32)]| {
            if p.is_empty() {
                return 0.0;
            }
            median_time(5, || resident[0].distance_many(p)).0 * 1e6 / p.len() as f64
        };
        l.insert("atlas.intra_us_per_pair", per_pair(&intra));
        l.insert("atlas.cross_us_per_pair", per_pair(&cross));

        // Tile store: a single-threaded replay of one round from a fresh
        // open, so its counts repeat exactly.
        let (resident_s, _) = median_time(5, || resident[0].distance_many(&all));
        let mut ooc_times = Vec::new();
        let mut replay_stats = None;
        for _ in 0..3 {
            let fresh = AtlasHandle::new(open(&served, budget_bytes));
            let t = Instant::now();
            black_box(fresh.distance_many(&all));
            ooc_times.push(t.elapsed().as_secs_f64());
            replay_stats = fresh.atlas().tile_store().map(|s| s.stats());
        }
        let s = replay_stats.expect("opened out of core");
        let pairs_n = all.len() as f64;
        l.insert("tilestore.misses_per_pair", s.misses as f64 / pairs_n);
        l.insert("tilestore.evictions_per_pair", s.evictions as f64 / pairs_n);
        l.insert(
            "tilestore.us_per_miss",
            (median(&ooc_times) - resident_s) * 1e6 / (s.misses as f64).max(1.0),
        );
        l.insert("tilestore.resident_bytes", s.resident_bytes as f64);
        l.insert("tilestore.open_ms", open_s * 1e3);
    }
    for rep in 0..SETUP_REPS {
        let _ = std::fs::remove_file(image_path(&prefix, rep));
    }
    r
}
