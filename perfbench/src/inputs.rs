//! Seeded inputs: the terrain, the POIs and every query pair a run uses.
//!
//! The terrain is a fixed preset; the seed draws the clustered POI set and
//! every pair list, so one seed always yields the same inputs. The program
//! under test only ever receives the mesh and the POIs (and, for queries,
//! site-id pairs).

use std::sync::Arc;
use terrain::gen::Preset;
use terrain::locate::FaceLocator;
use terrain::poi::{dedup_pois, SurfacePoint};
use terrain::refine::insert_surface_points;
use terrain::{TerrainMesh, Vec3, VertexId};

/// Error parameter of every oracle and atlas the benchmark builds. At 0.1
/// nine pairs in ten are answered exactly and one build's mean error swings
/// ±20 % with the partition tree's seeded centres; at 0.25 it holds ±10 %.
pub const EPS: f64 = 0.25;
/// `Preset::SfSmall` scale: 594 vertices.
pub const SCALE: f64 = 0.6;
/// POIs drawn per seed (before the dedup of co-located draws).
pub const N_POIS: usize = 200;
/// Gaussian clusters the POIs are drawn from, one per grid cell.
pub const CLUSTERS: usize = 8;
/// Cells along x and y of the cluster-centre grid.
const GRID: (usize, usize) = (4, 2);
/// Cluster spread (standard deviation) as a fraction of the footprint
/// diagonal.
pub const SPREAD: f64 = 0.05;
/// Per-seed move of each POI (standard deviation) as a fraction of the
/// footprint diagonal: every coordinate changes, the cluster layout that
/// sets the oracle's size and error does not.
pub const JITTER: f64 = 0.002;
/// Seed of the fixed cluster layout.
const LAYOUT_SEED: u64 = 0x1A70_0075;
/// Construction threads for every build.
pub const BUILD_THREADS: usize = 2;

/// The generated inputs of one seed.
pub struct Inputs {
    pub mesh: TerrainMesh,
    pub pois: Vec<SurfacePoint>,
}

/// The POIs refined into the mesh: what the exact reference and the
/// straight-line chord bound are computed on, independently of the oracle.
pub struct Refined {
    pub mesh: Arc<TerrainMesh>,
    /// Refined-mesh vertex of each input POI.
    pub poi_vertices: Vec<VertexId>,
}

/// A splitmix64 step; the benchmark's only random source besides the
/// program's own seeded POI sampler.
pub fn mix(x: u64) -> u64 {
    phash::splitmix64(x)
}

/// Uniform draws in `[0, 1)` from a splitmix64 stream.
struct Uniform(u64);

impl Uniform {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (mix(self.0) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One standard normal draw (Box–Muller).
    fn normal(&mut self) -> f64 {
        let u = 1.0 - self.next();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * self.next()).cos()
    }
}

impl Inputs {
    /// Clustered POIs, settlement-like. A fixed layout places `CLUSTERS`
    /// cluster centres, one per cell of `GRID` over the footprint, and
    /// `N_POIS / CLUSTERS` Gaussian draws around each; the seed then moves
    /// every POI by its own Gaussian `JITTER` (draws off the terrain are
    /// redrawn). Every POI, and so every distance, differs from seed to
    /// seed, while the spread of distances that sets the oracle's size
    /// and accuracy stays alike.
    pub fn generate(seed: u64) -> Self {
        let mesh = Preset::SfSmall.mesh(SCALE);
        let locator = FaceLocator::build(&mesh);
        let (lo, hi) = mesh.stats().bbox;
        let (w, h) = (hi.x - lo.x, hi.y - lo.y);
        let diag = w.hypot(h);
        let mut layout = Uniform(LAYOUT_SEED);
        let mut moves = Uniform(mix(seed ^ 0x9015));
        let place = |x: f64, y: f64, sd: f64, rng: &mut Uniform| loop {
            let (px, py) = (x + sd * rng.normal(), y + sd * rng.normal());
            if let Some(found) = locator.locate(&mesh, px, py) {
                return found;
            }
        };
        let mut raw = Vec::with_capacity(N_POIS);
        for c in 0..CLUSTERS {
            let (i, j) = ((c % GRID.0) as f64, (c / GRID.0) as f64);
            let cx = lo.x + (i + 0.25 + 0.5 * layout.next()) * w / GRID.0 as f64;
            let cy = lo.y + (j + 0.25 + 0.5 * layout.next()) * h / GRID.1 as f64;
            for _ in 0..N_POIS / CLUSTERS {
                let (_, base) = place(cx, cy, SPREAD * diag, &mut layout);
                let (face, pos) = place(base.x, base.y, JITTER * diag, &mut moves);
                raw.push(SurfacePoint { face, pos });
            }
        }
        let pois = dedup_pois(&raw, 1e-9);
        Self { mesh, pois }
    }

    pub fn refine(&self) -> Refined {
        let r = insert_surface_points(&self.mesh, &self.pois, None).expect("POI refinement");
        Refined { mesh: Arc::new(r.mesh), poi_vertices: r.poi_vertices }
    }
}

impl Refined {
    /// Site vertices in first-appearance order: the numbering of
    /// `P2POracle` and its images.
    pub fn oracle_sites(&self) -> Vec<VertexId> {
        let mut seen = std::collections::BTreeSet::new();
        self.poi_vertices.iter().copied().filter(|v| seen.insert(*v)).collect()
    }

    /// Site vertices in ascending vertex order: the numbering of
    /// `Atlas::build` and its images.
    pub fn atlas_sites(&self) -> Vec<VertexId> {
        let mut v = self.poi_vertices.clone();
        v.sort_unstable();
        v.dedup();
        v
    }

    pub fn position(&self, v: VertexId) -> Vec3 {
        self.mesh.vertex(v)
    }
}

/// `count` pairs of distinct sites drawn from stream `salt` of `seed`.
pub fn pairs(seed: u64, salt: u64, n_sites: usize, count: usize) -> Vec<(u32, u32)> {
    assert!(n_sites >= 2, "need two sites to draw a pair");
    let mut x = mix(seed) ^ mix(salt.wrapping_add(0x5EED));
    let mut next = move |n: u64| {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(x) % n
    };
    (0..count)
        .map(|_| {
            let s = next(n_sites as u64);
            let t = (s + 1 + next(n_sites as u64 - 1)) % n_sites as u64;
            (s as u32, t as u32)
        })
        .collect()
}

/// The checked sample: every ordered pair of distinct sites, grouped by
/// source so the exact reference runs one SSAD per site.
pub fn all_pairs(n_sites: usize) -> Vec<(u32, u32)> {
    let n = n_sites as u32;
    (0..n).flat_map(|s| (0..n).filter(move |&t| t != s).map(move |t| (s, t))).collect()
}
