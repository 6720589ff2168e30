//! `oracle-batch`: monolithic SE oracles built with the exact engine; the
//! first is queried in large `distance_many` batches on one thread.
//!
//! Batches hold far more pairs than the oracle has sites, so every batch
//! takes the dense layer-table path. After the measured phase, `oracled`
//! serves the first oracle's compact image for the socket checks and, in
//! the traced run, the `net` layer metrics (see `serve_socket`).

use crate::check::{chord_floor, pooled, Bound, Checks, Reference};
use crate::inputs::{all_pairs, pairs, Inputs, BUILD_THREADS, EPS};
use crate::measure::{mean, median, median_time, ms, peak_rss_mb, rounds, self_ms, span_times};
use crate::{serve_socket, Report, RunArgs, Untraced};
use se_oracle::oracle::{BuildConfig, BuildStats, SeOracle};
use se_oracle::p2p::{EngineKind, P2POracle};
use se_oracle::serve::QueryHandle;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Builds per run (oracles here, atlases in the `atlas-ooc` build
/// process), each with its own build seed. `setup_s` is the median of
/// their times; sizes and the relative deviation are means over them,
/// so the partition tree's seeded centre choices average out.
pub const SETUP_REPS: usize = 6;
/// Distinct batches, cycled in whole rounds.
const N_BATCHES: u64 = 16;
/// Pairs per batch (≥ n_sites, so the dense path is taken).
const BATCH: usize = 4096;

/// Build options of setup `rep`: two threads and a per-rep build seed
/// (rep 0 keeps the library default).
pub fn build_config(rep: usize) -> BuildConfig {
    let default = BuildConfig::default();
    BuildConfig { threads: BUILD_THREADS, seed: default.seed + 7919 * rep as u64, ..default }
}

/// One setup: from the generated inputs to a built oracle.
fn build(inputs: &Inputs, rep: usize) -> (f64, P2POracle) {
    let t = Instant::now();
    let o =
        P2POracle::build(&inputs.mesh, &inputs.pois, EPS, EngineKind::Exact, &build_config(rep))
            .expect("oracle construction");
    (t.elapsed().as_secs_f64(), o)
}

pub fn run(a: &RunArgs) -> Report {
    let inputs = Inputs::generate(a.seed);
    let mut setups = Vec::new();
    let mut oracles = Vec::new();
    for rep in 0..SETUP_REPS {
        let (s, o) = build(&inputs, rep);
        setups.push(s);
        oracles.push(o);
    }
    let sites = oracles[0].site_vertices().to_vec();
    let stats: Vec<BuildStats> = oracles.iter().map(|o| *o.oracle().build_stats()).collect();
    let mut oracles: Vec<SeOracle> = oracles.into_iter().map(P2POracle::into_oracle).collect();
    let handle = QueryHandle::new(oracles.remove(0));
    let n = handle.n_sites();
    assert!(BATCH >= n, "batches must take the dense path");
    let batches: Vec<Vec<(u32, u32)>> =
        (0..N_BATCHES).map(|b| pairs(a.seed, b, n, BATCH)).collect();
    // The first round warms caches and is the answer set every later
    // round must reproduce bit for bit.
    let expected: Vec<Vec<f64>> = batches.iter().map(|b| handle.distance_many(b)).collect();
    let (phase, mismatches) =
        rounds(&batches, &expected, a.seconds, None, |b| handle.distance_many(b));
    let rss = peak_rss_mb(None);
    println!("# {}", phase.note("distance_many batch latency"));

    // Checks, apart from the oracle.
    let refined = inputs.refine();
    assert_eq!(refined.oracle_sites(), sites, "site numbering differs from the oracle's");
    let reference = Reference::compute(&refined, &sites, all_pairs(n));
    let floor = chord_floor(&refined, &sites, &batches.concat(), &expected.concat());
    let checks = Checks {
        refined: &refined,
        sites: &sites,
        reference: &reference,
        bound: Bound::oracle(),
        sample: handle.distance_many(&reference.pairs),
        twin: None,
    };
    let (pass, note) = checks.pass();
    let (self_test_ok, self_note) = checks.self_test();
    let others: Vec<Vec<f64>> = oracles.iter().map(|o| o.distance_many(&reference.pairs)).collect();
    let (others_ok, dev) = pooled(&reference, Bound::oracle(), &checks.sample, &others);
    let image = handle.oracle().save_bytes_compact(true);
    let (socket_ok, socket_note) = serve_socket::check(a, &image, &refined, &sites, &reference);
    println!(
        "# checks: {note}; other build seeds within bound: {others_ok}; chord floor on {} batch answers: {} violations; repeated rounds: {mismatches} mismatches",
        floor.checked, floor.violations
    );
    println!("# self-test (known-verdict answers): {self_note}");
    println!("# oracled serving the compact image: {socket_note}");

    let mut r = Report {
        attempted: phase.answered(),
        failed: 0,
        correct: pass && others_ok && floor.ok() && mismatches == 0 && self_test_ok && socket_ok,
        ..Report::default()
    };
    let all: Vec<&SeOracle> = std::iter::once(handle.oracle()).chain(&oracles).collect();
    let base = Untraced {
        setup_s: median(&setups),
        lat_p50_us: phase.p50(),
        pairs_per_s: phase.pairs_per_s(),
    };
    r.e2e.insert("setup_s", base.setup_s);
    r.e2e.insert("pairs_per_s", base.pairs_per_s);
    r.e2e.insert("lat_p50_us", base.lat_p50_us);
    r.e2e.insert("index_bytes", mean(all.iter().map(|o| o.storage_bytes() as f64)));
    r.e2e.insert("image_bytes", mean(all.iter().map(|o| o.save_bytes_compact(true).len() as f64)));
    r.e2e.insert("peak_rss_mb", rss);
    r.e2e.insert("rel_dev_mean", dev);

    if a.trace {
        // Traced pass: one traced setup and a shorter traced query phase,
        // with spans around each call into the program.
        obs::trace::enable();
        let (traced_setup, traced_oracle) = {
            let _span = obs::trace::span("bench", "setup");
            build(&inputs, 0)
        };
        let (tphase, _) = rounds(&batches, &expected, a.seconds / 2, Some("distance_many"), |b| {
            handle.distance_many(b)
        });
        let events = obs::trace::take_events();
        let path = a.trace_path("run");
        std::fs::write(&path, obs::trace::export_chrome_json(&events)).expect("writing the trace");
        println!("# chrome trace: {} ({} events)", path.display(), events.len());
        let traced = Untraced {
            setup_s: traced_setup,
            lat_p50_us: tphase.p50(),
            pairs_per_s: tphase.pairs_per_s(),
        };
        r.overhead(&base, &traced, events.len());
        build_layers(
            &mut r,
            &inputs,
            handle.oracle(),
            &stats,
            traced_oracle.oracle().build_stats(),
        );
        r.layers.insert("geodesic.sweep_ms", self_ms(&span_times(&events), "ssad"));
        query_layers(&mut r, handle.oracle(), &batches);
        r.correct &= serve_socket::net_layers(&mut r, a, &image);
    }
    r
}

/// Layer metrics of the build pipeline and the stored oracle. Phase times are
/// medians over the untraced builds; counts come from the traced build of
/// rep 0, which `oracle` was also built as.
fn build_layers(
    r: &mut Report,
    inputs: &Inputs,
    oracle: &SeOracle,
    untraced: &[BuildStats],
    traced: &BuildStats,
) {
    let phase = |f: fn(&BuildStats) -> Duration| {
        median(&untraced.iter().map(|s| ms(f(s))).collect::<Vec<_>>())
    };
    let (refine_s, _) = median_time(5, || inputs.refine());
    r.layers.insert("terrain.refine_ms", refine_s * 1e3);
    r.layers.insert("geodesic.ssad_requests", traced.ssad_runs as f64);
    r.layers.insert("geodesic.engine_runs", traced.cache_misses as f64);
    let lookups = (traced.cache_hits + traced.cache_misses).max(1);
    r.layers.insert("geodesic.cache_hit_ratio", traced.cache_hits as f64 / lookups as f64);
    r.layers.insert("build.tree_ms", phase(|s| s.tree));
    r.layers.insert("build.enhanced_ms", phase(|s| s.enhanced));
    r.layers.insert("build.pair_gen_ms", phase(|s| s.pair_gen));
    r.layers.insert("build.considered_pairs", traced.considered_pairs as f64);
    r.layers.insert("build.stored_pairs", traced.stored_pairs as f64);
    let entries: Vec<(u64, f64)> = oracle.pair_entries().collect();
    let hash_s = median(
        &(0..5)
            .map(|_| {
                let e = entries.clone();
                let t = Instant::now();
                black_box(phash::PerfectMap::build(e, 0x9A12_5EED));
                t.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    r.layers.insert("build.hash_ms", hash_s * 1e3);
    let tree = oracle.tree().storage_bytes();
    r.layers.insert("storage.tree_bytes", tree as f64);
    r.layers.insert("storage.pair_table_bytes", (oracle.storage_bytes() - tree) as f64);
    let (enc_s, image) = median_time(5, || oracle.save_bytes_compact(true));
    let (dec_s, _) = median_time(5, || SeOracle::load_bytes(&image).expect("decoding the image"));
    r.layers.insert("persist.encode_ms", enc_s * 1e3);
    r.layers.insert("persist.decode_ms", dec_s * 1e3);
    r.layers.insert("persist.raw_image_bytes", oracle.save_bytes_compact(false).len() as f64);
}

/// Query-layer metrics from a single-threaded replay of `batches`.
fn query_layers(r: &mut Report, oracle: &SeOracle, batches: &[Vec<(u32, u32)>]) {
    let pairs: usize = batches.iter().map(Vec::len).sum();
    let (round_s, _) = median_time(5, || {
        for b in batches {
            black_box(oracle.distance_many(b));
        }
    });
    r.layers.insert("oracle.ns_per_pair", round_s * 1e9 / pairs as f64);
    let (mut probes, mut hits) = (0u64, 0u64);
    for b in batches {
        let (_, s) = oracle.distance_many_checked_with_stats(b).expect("checked replay");
        probes += s.probes;
        hits += s.scratch_hits;
    }
    r.layers.insert("oracle.probes_per_pair", probes as f64 / pairs as f64);
    r.layers.insert("oracle.scratch_hit_ratio", hits as f64 / (2 * pairs) as f64);
}
