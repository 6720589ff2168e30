//! Output checks made apart from the program under test.
//!
//! - An exact reference: one exact-engine (ICH) SSAD per sampled source on
//!   the global POI-refined mesh, read at the sampled targets.
//! - Two-sided bounds around that reference, one pair of factors per
//!   backend (see [`Bound`]).
//! - A floor: no answer may be shorter than `(1−ε)(1−EPS_QUANT)` times the
//!   straight-line 3-D chord between its two POIs.
//! - Bit-identity against a partner answer set where the backend has one
//!   (socket vs in-process replay, out-of-core vs resident atlas).
//!
//! [`Checks::self_test`] feeds the exact and floor checks answers scaled
//! past the backend's bound and answers just past and just inside each
//! side of it, and requires each verdict to be the required one.

use crate::inputs::{Refined, EPS};
use geodesic::engine::{GeodesicEngine, Stop};
use geodesic::ich::IchEngine;
use se_oracle::atlas::EPS_ROUTE;
use se_oracle::EPS_QUANT;
use terrain::VertexId;

/// Relative slack for floating-point rounding between the reference SSAD
/// and the oracle's stored SSAD labels (same engine, same mesh).
const SLACK: f64 = 1e-9;

/// Accepted answer range as factors of the exact geodesic `d`.
#[derive(Clone, Copy, Debug)]
pub struct Bound {
    pub lo: f64,
    pub hi: f64,
}

impl Bound {
    /// Monolithic oracle from a compact v2 image:
    /// `(1−ε)(1−EPS_QUANT)·d ≤ a ≤ (1+ε)(1+EPS_QUANT)·d`.
    pub fn oracle_v2() -> Self {
        Self { lo: (1.0 - EPS) * (1.0 - EPS_QUANT), hi: (1.0 + EPS) * (1.0 + EPS_QUANT) }
    }

    /// Monolithic oracle held in memory as built: `|a − d| ≤ ε·d`.
    pub fn oracle() -> Self {
        Self { lo: 1.0 - EPS, hi: 1.0 + EPS }
    }

    /// Atlas from a compact v2 image:
    /// `(1−ε)(1−EPS_QUANT)·d ≤ a ≤ (1+ε)(1+EPS_QUANT)(1+EPS_ROUTE)·d`.
    pub fn atlas_v2() -> Self {
        Self {
            lo: (1.0 - EPS) * (1.0 - EPS_QUANT),
            hi: (1.0 + EPS) * (1.0 + EPS_QUANT) * (1.0 + EPS_ROUTE),
        }
    }
}

/// The exact reference for a sample of site pairs.
pub struct Reference {
    pub pairs: Vec<(u32, u32)>,
    /// Exact geodesic distance of each sampled pair.
    pub exact: Vec<f64>,
}

impl Reference {
    /// Runs one exact SSAD per distinct source of `pairs` (which must be
    /// grouped by source) on the refined mesh.
    pub fn compute(refined: &Refined, sites: &[VertexId], pairs: Vec<(u32, u32)>) -> Self {
        let started = std::time::Instant::now();
        let engine = IchEngine::new(refined.mesh.clone());
        let mut sources = 0;
        let mut exact = vec![f64::NAN; pairs.len()];
        let mut at = 0;
        while at < pairs.len() {
            let s = pairs[at].0;
            let end = at + pairs[at..].iter().take_while(|p| p.0 == s).count();
            let targets: Vec<VertexId> =
                pairs[at..end].iter().map(|p| sites[p.1 as usize]).collect();
            let r = engine.ssad(sites[s as usize], Stop::Targets(&targets));
            sources += 1;
            for (k, &v) in targets.iter().enumerate() {
                exact[at + k] = r.dist[v as usize];
            }
            at = end;
        }
        assert!(
            exact.iter().all(|d| d.is_finite() && *d > 0.0),
            "reference SSAD left a target unreached"
        );
        println!(
            "# exact reference: {} pairs from {sources} exact SSADs in {:.2} s",
            pairs.len(),
            started.elapsed().as_secs_f64()
        );
        Self { pairs, exact }
    }
}

/// Tally of one check.
#[derive(Clone, Copy, Debug, Default)]
pub struct Verdict {
    pub checked: u64,
    pub violations: u64,
}

impl Verdict {
    pub fn ok(&self) -> bool {
        self.checked > 0 && self.violations == 0
    }
    pub fn merge(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.violations += other.violations;
    }
    fn add(&mut self, bad: bool) {
        self.checked += 1;
        self.violations += bad as u64;
    }
}

/// `answers[i]` (for `reference.pairs[i]`) within `bound` of the exact
/// distance. Also returns the mean relative deviation `|a − d| / d`.
pub fn against_reference(reference: &Reference, answers: &[f64], bound: Bound) -> (Verdict, f64) {
    assert_eq!(answers.len(), reference.exact.len());
    let mut v = Verdict::default();
    let mut dev = 0.0;
    for (&a, &d) in answers.iter().zip(&reference.exact) {
        let ok =
            a.is_finite() && a >= bound.lo * d * (1.0 - SLACK) && a <= bound.hi * d * (1.0 + SLACK);
        v.add(!ok);
        dev += (a - d).abs() / d;
    }
    (v, dev / answers.len() as f64)
}

/// The factor of the 3-D chord no answer may fall below.
fn chord_lo() -> f64 {
    (1.0 - EPS) * (1.0 - EPS_QUANT) * (1.0 - SLACK)
}

/// Straight-line 3-D distance between the two sites of each pair.
fn chords(refined: &Refined, sites: &[VertexId], pairs: &[(u32, u32)]) -> Vec<f64> {
    pairs
        .iter()
        .map(|&(s, t)| {
            refined.position(sites[s as usize]).dist(refined.position(sites[t as usize]))
        })
        .collect()
}

/// Every answer at least `(1−ε)(1−EPS_QUANT)` times the 3-D chord between
/// its two sites.
pub fn chord_floor(
    refined: &Refined,
    sites: &[VertexId],
    pairs: &[(u32, u32)],
    answers: &[f64],
) -> Verdict {
    assert_eq!(pairs.len(), answers.len());
    let mut v = Verdict::default();
    for (c, &a) in chords(refined, sites, pairs).into_iter().zip(answers) {
        v.add(!(a.is_finite() && a >= chord_lo() * c));
    }
    v
}

/// Bit-identity of two answer sets.
pub fn identical(answers: &[f64], partner: &[f64]) -> Verdict {
    let mut v = Verdict::default();
    if answers.len() != partner.len() {
        return Verdict { checked: 1, violations: 1 };
    }
    for (a, b) in answers.iter().zip(partner) {
        v.add(a.to_bits() != b.to_bits());
    }
    v
}

/// Everything one workload checks, for the final verdict and the
/// self-test.
pub struct Checks<'a> {
    pub refined: &'a Refined,
    pub sites: &'a [VertexId],
    pub reference: &'a Reference,
    pub bound: Bound,
    /// The served backend's answers for `reference.pairs`.
    pub sample: Vec<f64>,
    /// Answers of the served backend and of its partner on one pair set,
    /// which must agree bit for bit, where the backend has a partner.
    pub twin: Option<(Vec<f64>, Vec<f64>)>,
}

impl Checks<'_> {
    /// Whether the real answers pass, with a one-line account.
    pub fn pass(&self) -> (bool, String) {
        let (exact, _) = against_reference(self.reference, &self.sample, self.bound);
        let floor = chord_floor(self.refined, self.sites, &self.reference.pairs, &self.sample);
        let twin = self.twin.as_ref().map(|(got, partner)| identical(got, partner));
        let twin_note = match twin {
            Some(t) => format!("{}/{} ok", t.checked - t.violations, t.checked),
            None => "n/a".into(),
        };
        let note = format!(
            "exact reference {}/{} ok, chord floor {}/{} ok, partner bit-identity {twin_note}",
            exact.checked - exact.violations,
            exact.checked,
            floor.checked - floor.violations,
            floor.checked,
        );
        (exact.ok() && floor.ok() && twin.map_or(true, |t| t.ok()), note)
    }

    /// Feeds the exact and floor checks answers they must reject and
    /// answers they must accept; true when each verdict is as required.
    ///
    /// - The backend's answers scaled by `(1+2ε)` in place of the bound's
    ///   `(1+ε)` (that is, by `hi·(1+2ε)/(1+ε)`: `1+2ε` on the in-memory
    ///   oracle, more on the atlas, whose bound `(1+2ε)` lies inside) and by
    ///   the inverse factor: the exact check must reject some of each.
    /// - The exact distances times `hi` and `lo`, each moved 10⁻⁶ past the
    ///   bound (every one rejected) and 10⁻⁶ inside it (every one
    ///   accepted), so both sides of the bound are shown to apply.
    /// - The chords times the floor factor, 10⁻⁶ below (every one
    ///   rejected) and 10⁻⁶ above (every one accepted).
    pub fn self_test(&self) -> (bool, String) {
        const NUDGE: f64 = 1e-6;
        let exact = |answers: &[f64]| against_reference(self.reference, answers, self.bound).0;
        let scaled = |f: f64| exact(&self.sample.iter().map(|a| a * f).collect::<Vec<_>>());
        let at = |f: f64| exact(&self.reference.exact.iter().map(|d| d * f).collect::<Vec<_>>());
        let chords = chords(self.refined, self.sites, &self.reference.pairs);
        let floor = |f: f64| {
            let answers: Vec<f64> = chords.iter().map(|c| c * chord_lo() * f).collect();
            chord_floor(self.refined, self.sites, &self.reference.pairs, &answers)
        };
        let up = self.bound.hi * (1.0 + 2.0 * EPS) / (1.0 + EPS);
        let rejected_some = |v: Verdict| v.violations > 0;
        let rejected_all = |v: Verdict| v.checked > 0 && v.violations == v.checked;
        let accepted_all = |v: Verdict| v.ok();
        let cases: [(&str, Verdict, fn(Verdict) -> bool); 8] = [
            ("answers x up", scaled(up), rejected_some),
            ("answers / up", scaled(1.0 / up), rejected_some),
            ("exact x hi past", at(self.bound.hi * (1.0 + NUDGE)), rejected_all),
            ("exact x hi inside", at(self.bound.hi * (1.0 - NUDGE)), accepted_all),
            ("exact x lo past", at(self.bound.lo * (1.0 - NUDGE)), rejected_all),
            ("exact x lo inside", at(self.bound.lo * (1.0 + NUDGE)), accepted_all),
            ("chord floor past", floor(1.0 - NUDGE), rejected_all),
            ("chord floor inside", floor(1.0 + NUDGE), accepted_all),
        ];
        let mut all = true;
        let notes: Vec<String> = cases
            .iter()
            .map(|&(label, v, want)| {
                let ok = want(v);
                all &= ok;
                let verdict = if ok { "as required" } else { "WRONG" };
                format!("{label}: {}/{} rejected, {verdict}", v.violations, v.checked)
            })
            .collect();
        (all, format!("up = {up:.4}; {}", notes.join("; ")))
    }
}

/// Extra builds of the same inputs (other build seeds): each must meet the
/// bound; returns whether all did and the mean relative deviation over all
/// answer sets, `first` included.
pub fn pooled(
    reference: &Reference,
    bound: Bound,
    first: &[f64],
    others: &[Vec<f64>],
) -> (bool, f64) {
    let (_, mut dev) = against_reference(reference, first, bound);
    let mut ok = true;
    for answers in others {
        let (v, d) = against_reference(reference, answers, bound);
        ok &= v.ok();
        dev += d;
    }
    (ok, dev / (1 + others.len()) as f64)
}
