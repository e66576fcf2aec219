//! Small shared pieces: the seeded generator, order statistics, the
//! metric collector, and the in-memory span recorder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// SplitMix64: every input the benchmark generates comes from one of
/// these, seeded from `--seed` (and a stream label), so the same seed
/// gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of a non-empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method). Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld as i64 + 1;
    let n = 4i64;
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

/// How a run turns its rounds into one figure. On a shared host, CPU
/// steal from other tenants slows whole stretches of a run; a slowdown
/// of the program itself slows every round. So an operation time is the
/// lower quartile over rounds and a rate the upper quartile: both ignore
/// up to three quarters of disturbed rounds, and both still move when
/// every round moves.
pub fn low_quartile(values: &[f64]) -> f64 {
    if values.len() < 2 {
        values[0]
    } else {
        quartiles(values).0
    }
}

/// See [`low_quartile`].
pub fn high_quartile(values: &[f64]) -> f64 {
    if values.len() < 2 {
        values[0]
    } else {
        quartiles(values).2
    }
}

/// The metrics one run reports, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.items.iter().any(|(n, _, _)| *n == name),
            "metric {name} reported twice"
        );
        self.items.push((name, value, unit));
    }

    pub fn names(&self) -> Vec<&str> {
        self.items.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Operation bookkeeping shared by every workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Where runs leave their scratch output (journal directories, span
/// dumps). Inside the benchmark's own directory, and ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One recorded span: a call from the benchmark into a layer.
#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    name: &'static str,
    /// Operation the span belongs to (a loop, a round, a cell).
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory and written out when the run ends. Disabled
/// (every call a no-op) in untraced runs.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span ([`Spans::end`] closes it).
#[must_use]
pub struct SpanId(Option<usize>);

impl Spans {
    pub fn new(on: bool, base: Instant) -> Self {
        Spans {
            on,
            base,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.base.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id.0 {
            self.spans[id].end_ns = self.base.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(layer, name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Per-layer totals: `(spans, total seconds, self seconds)`, where
    /// self time is a span's duration minus the time its child spans
    /// cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.layer).or_default();
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {i}, \"parent\": {parent}, \"op\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true, Instant::now());
        let outer = s.begin("bench", "outer", 0);
        let inner = s.begin("lss-core", "inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        s.end(inner);
        s.end(outer);
        let sum = s.summary();
        let (n, total, own) = sum["bench"];
        assert_eq!(n, 1);
        assert!(own < total);
        assert!(sum["lss-core"].2 >= 0.004);
    }
}
