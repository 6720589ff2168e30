//! Timing, percentile, memory and trace helpers.

use crate::check::identical;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Median of `values` (upper median for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Arithmetic mean.
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n as f64
}

/// Nearest-rank percentile `q ∈ (0, 100]` of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((sorted.len() as f64 * q / 100.0).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of a few standard percentiles that still has at least ten
/// samples beyond it, with its value (`None` below 40 samples, where no
/// percentile would describe a tail).
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    if sorted.len() < 40 {
        return None;
    }
    [99.99, 99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|q| sorted.len() as f64 * (1.0 - q / 100.0) >= 10.0)
        .map(|q| (q, percentile(sorted, q)))
}

/// Most windows a measured phase is cut into. The shared host slows down
/// for seconds at a time; the timing figures are medians over equal-time
/// windows, so a slow spell in a few of them does not decide a run.
const WINDOWS: usize = 30;
/// Fewest operations per window (fewer windows when a phase has fewer, and
/// one window, the whole phase, below this count).
const MIN_PER_WINDOW: usize = 1000;

/// One timed operation of a measured phase.
struct Sample {
    /// When it ended, in seconds since the phase started.
    end_s: f64,
    lat_us: f64,
    pairs: u64,
}

/// The timed operations of one measured phase.
#[derive(Default)]
pub struct Phase {
    samples: Vec<Sample>,
}

impl Phase {
    /// Records an operation that started at `t` and answered `pairs`.
    pub fn record(&mut self, start: Instant, t: Instant, pairs: u64) {
        let now = Instant::now();
        self.samples.push(Sample {
            end_s: (now - start).as_secs_f64(),
            lat_us: (now - t).as_secs_f64() * 1e6,
            pairs,
        });
    }

    /// Several clients' phases, with a common start, as one, in end-time
    /// order.
    pub fn merge(parts: impl IntoIterator<Item = Phase>) -> Phase {
        let mut samples: Vec<_> = parts.into_iter().flat_map(|p| p.samples).collect();
        samples.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
        Phase { samples }
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn answered(&self) -> u64 {
        self.samples.iter().map(|s| s.pairs).sum()
    }

    fn latencies(samples: &[Sample]) -> Vec<f64> {
        let mut l: Vec<f64> = samples.iter().map(|s| s.lat_us).collect();
        l.sort_by(f64::total_cmp);
        l
    }

    /// Equal-time windows over the phase, each with its duration.
    fn windows(&self) -> Vec<(&[Sample], f64)> {
        let w = (self.samples.len() / MIN_PER_WINDOW).clamp(1, WINDOWS);
        let total = self.samples.last().map_or(0.0, |s| s.end_s);
        let mut out = Vec::with_capacity(w);
        let mut from = 0;
        for k in 1..=w {
            let until = total * k as f64 / w as f64;
            let to = if k == w {
                self.samples.len()
            } else {
                from + self.samples[from..].partition_point(|s| s.end_s <= until)
            };
            out.push((&self.samples[from..to], total / w as f64));
            from = to;
        }
        out
    }

    /// Median over the windows of `f(window samples, window duration)`.
    fn window_median(&self, f: impl Fn(&[Sample], f64) -> f64) -> f64 {
        let values: Vec<f64> = self
            .windows()
            .into_iter()
            .filter(|(s, _)| !s.is_empty())
            .map(|(s, d)| f(s, d))
            .collect();
        median(&values)
    }

    /// Pairs answered per second, median over the windows.
    pub fn pairs_per_s(&self) -> f64 {
        self.window_median(|s, d| s.iter().map(|x| x.pairs).sum::<u64>() as f64 / d)
    }

    /// Median latency (µs), median over the windows.
    pub fn p50(&self) -> f64 {
        self.window_median(|s, _| percentile(&Self::latencies(s), 50.0))
    }

    /// A one-line summary: the window count, the whole phase's sample
    /// count, throughput, median, 99th percentile and highest percentile
    /// with ten samples beyond it, and the slowest window's median against
    /// the windows' median.
    pub fn note(&self, label: &str) -> String {
        let all = Self::latencies(&self.samples);
        let wall = self.samples.last().map_or(0.0, |s| s.end_s);
        let tail = match supported_tail(&all) {
            Some((q, v)) => {
                format!(", p{q} {v:.1} us (highest percentile with >=10 samples beyond)")
            }
            None => String::new(),
        };
        let slowest = self
            .windows()
            .iter()
            .filter(|(s, _)| !s.is_empty())
            .map(|(s, _)| percentile(&Self::latencies(s), 50.0))
            .fold(0.0, f64::max);
        format!(
            "{label}: whole phase n={} in {wall:.2} s, {:.0} pairs/s, p50 {:.1} us, p99 {:.1} us{tail}; {} windows, slowest window's p50 {:.3} x the windows' median",
            all.len(),
            self.answered() as f64 / wall,
            percentile(&all, 50.0),
            percentile(&all, 99.0),
            self.windows().len(),
            slowest / self.p50()
        )
    }
}

/// Measured phase of the in-process workloads: whole rounds over
/// `batches`, each answered by `query`, until `seconds` have passed, with
/// a trace span named `span` around each call when given. Returns the
/// phase and how many answers differed from `expected`.
pub fn rounds(
    batches: &[Vec<(u32, u32)>],
    expected: &[Vec<f64>],
    seconds: Duration,
    span: Option<&'static str>,
    query: impl Fn(&[(u32, u32)]) -> Vec<f64>,
) -> (Phase, u64) {
    let mut phase = Phase::default();
    let mut mismatches = 0u64;
    let start = Instant::now();
    while phase.is_empty() || start.elapsed() < seconds {
        for (b, want) in batches.iter().zip(expected) {
            let t = Instant::now();
            let got = {
                let _span = span.map(|name| obs::trace::span("bench", name));
                query(std::hint::black_box(b))
            };
            phase.record(start, t, got.len() as u64);
            mismatches += identical(&got, want).violations;
        }
    }
    (phase, mismatches)
}

/// Runs `f` `reps` times and returns the median wall time in seconds with
/// the last result.
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&times), last.expect("at least one repetition"))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of process `pid` (this process when
/// `None`), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no VmHWM line in {path}"));
    kb / 1024.0
}

/// Per `cat/name`: span count, total duration and self time (duration
/// minus the part covered by spans nested inside it on the same thread),
/// in µs.
pub fn span_times(events: &[obs::trace::TraceEvent]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut by_tid: BTreeMap<u64, Vec<&obs::trace::TraceEvent>> = BTreeMap::new();
    for e in events {
        by_tid.entry(e.tid).or_default().push(e);
    }
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (_, mut evs) in by_tid {
        // Parents first: earlier start, then longer duration.
        evs.sort_by_key(|e| (e.ts_us, std::cmp::Reverse(e.dur_us)));
        let mut child_time = vec![0u64; evs.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..evs.len() {
            let e = evs[i];
            while let Some(&top) = stack.last() {
                if evs[top].ts_us + evs[top].dur_us >= e.ts_us + e.dur_us
                    && evs[top].ts_us <= e.ts_us
                {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                child_time[parent] += e.dur_us;
            }
            stack.push(i);
        }
        for (i, e) in evs.iter().enumerate() {
            let slot = out.entry(format!("{}/{}", e.cat, e.name)).or_default();
            slot.0 += 1;
            slot.1 += e.dur_us;
            slot.2 += e.dur_us.saturating_sub(child_time[i]);
        }
    }
    out
}

/// Self time in ms of every span in category `cat`.
pub fn self_ms(times: &BTreeMap<String, (u64, u64, u64)>, cat: &str) -> f64 {
    let prefix = format!("{cat}/");
    times.iter().filter(|(k, _)| k.starts_with(&prefix)).map(|(_, v)| v.2 as f64).sum::<f64>() / 1e3
}
