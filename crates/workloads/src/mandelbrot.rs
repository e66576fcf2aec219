//! The Mandelbrot set computation — the paper's test problem.
//!
//! §2.1: *"We use, in our tests, the Mandelbrot fractal computation
//! algorithm on the domain [-2.0, 1.25] × [-1.25, 1.25], for different
//! window sizes (for example 4000×2000, 5000×2000, and so on). The
//! algorithm uses unpredictable irregular loops."*
//!
//! One **column** of the image is the smallest schedulable unit (one
//! task = one loop iteration), exactly as in §5: *"The computation of
//! one column of the Mandelbrot matrix is considered the smallest
//! schedulable unit."* An iteration's cost is the total number of
//! escape-time steps performed over the column's pixels — the quantity
//! plotted on the Y axis of the paper's Figure 1 (ranging from the
//! window height, for all-escaping columns, up to tens of thousands
//! where the set's interior dominates).

use std::sync::OnceLock;

use crate::Workload;

/// Parameters of a Mandelbrot computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MandelbrotParams {
    /// Image width in pixels — the number of columns, i.e. loop
    /// iterations `I`.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Real-axis range (paper: `[-2.0, 1.25]`).
    pub x_range: (f64, f64),
    /// Imaginary-axis range (paper: `[-1.25, 1.25]`).
    pub y_range: (f64, f64),
    /// Escape-time iteration cap per pixel.
    pub max_iter: u32,
}

impl MandelbrotParams {
    /// The paper's domain with a caller-chosen window size.
    ///
    /// `max_iter = 64` reproduces Figure 1's scale: the paper's
    /// per-column basic-computation counts for a 1200×1200 window range
    /// from 1200 (all pixels escape immediately) to ~56,000 — i.e. the
    /// hottest column averages ~47 iterations per pixel, implying an
    /// escape cap of ~50–64. A larger cap would make the cost profile
    /// disproportionately spikier than the paper's workload.
    pub fn paper_domain(width: u32, height: u32) -> Self {
        MandelbrotParams {
            width,
            height,
            x_range: (-2.0, 1.25),
            y_range: (-1.25, 1.25),
            max_iter: 64,
        }
    }

    /// The Table 2/3 experiment window: 4000 × 2000.
    pub fn table23_window() -> Self {
        Self::paper_domain(4000, 2000)
    }

    /// The Figure 1/2 window: 1200 × 1200.
    pub fn figure12_window() -> Self {
        Self::paper_domain(1200, 1200)
    }
}

/// The Mandelbrot workload: `width` column-tasks over the configured
/// domain. The column-cost profile is computed once, on the first
/// [`Workload::cost`] call, so that `cost` is O(1) for the simulator
/// while the real runtime — which recomputes columns honestly via
/// [`Workload::execute`] and never asks for costs — never pays for a
/// whole extra fractal.
/// # Example
///
/// ```
/// use lss_workloads::{Mandelbrot, MandelbrotParams, Workload};
///
/// let m = Mandelbrot::new(MandelbrotParams::paper_domain(64, 64));
/// assert_eq!(m.len(), 64); // one task per column
/// // Columns through the set's interior cost far more than the edge.
/// assert!(m.cost(40) > m.cost(0));
/// ```
#[derive(Debug, Clone)]
pub struct Mandelbrot {
    params: MandelbrotParams,
    /// Per-column escape-step totals, filled on first use.
    column_costs: OnceLock<Vec<u64>>,
}

impl Mandelbrot {
    /// Builds the workload. Cheap: column costs are computed lazily.
    pub fn new(params: MandelbrotParams) -> Self {
        assert!(params.width >= 1 && params.height >= 1, "empty window");
        assert!(params.max_iter >= 1, "max_iter must be at least 1");
        Mandelbrot {
            params,
            column_costs: OnceLock::new(),
        }
    }

    /// The parameters this workload was built with.
    pub fn params(&self) -> &MandelbrotParams {
        &self.params
    }

    /// Escape-iteration counts for every pixel of column `col`.
    pub fn compute_column(&self, col: u32) -> Vec<u32> {
        column_iterations(&self.params, col)
    }

    /// Renders the full image as row-major escape counts
    /// (`height × width`); pixel `(row, col)` is at `row·width + col`.
    pub fn render(&self) -> Vec<u32> {
        let w = self.params.width as usize;
        let h = self.params.height as usize;
        let mut img = vec![0u32; w * h];
        for col in 0..self.params.width {
            let column = self.compute_column(col);
            for (row, &v) in column.iter().enumerate() {
                img[row * w + col as usize] = v;
            }
        }
        img
    }
}

impl Workload for Mandelbrot {
    fn len(&self) -> u64 {
        self.params.width as u64
    }

    fn cost(&self, i: u64) -> u64 {
        let costs = self.column_costs.get_or_init(|| {
            (0..self.params.width)
                .map(|c| column_iterations(&self.params, c).iter().map(|&n| n as u64).sum())
                .collect()
        });
        costs[i as usize]
    }

    fn execute(&self, i: u64) -> u64 {
        // Genuinely recompute the column; fold it into a checksum.
        let column = self.compute_column(i as u32);
        column
            .iter()
            .fold(0u64, |acc, &v| acc.wrapping_mul(31).wrapping_add(v as u64))
    }

    fn result_bytes(&self, _i: u64) -> u64 {
        // One escape count per pixel, sent back as 16-bit values — the
        // payload the slaves piggy-back onto their next request.
        2 * self.params.height as u64
    }

    fn name(&self) -> &'static str {
        "mandelbrot"
    }
}

/// Escape-time computation for one column.
fn column_iterations(p: &MandelbrotParams, col: u32) -> Vec<u32> {
    let (x0, x1) = p.x_range;
    let (y0, y1) = p.y_range;
    let cx = if p.width > 1 {
        x0 + (x1 - x0) * col as f64 / (p.width - 1) as f64
    } else {
        x0
    };
    (0..p.height)
        .map(|row| {
            let cy = if p.height > 1 {
                y0 + (y1 - y0) * row as f64 / (p.height - 1) as f64
            } else {
                y0
            };
            escape_time(cx, cy, p.max_iter)
        })
        .collect()
}

/// Number of iterations of `z ← z² + c` before `|z| > 2`, capped.
#[inline]
pub fn escape_time(cx: f64, cy: f64, max_iter: u32) -> u32 {
    let mut zx = 0.0f64;
    let mut zy = 0.0f64;
    let mut iter = 0u32;
    while iter < max_iter {
        let zx2 = zx * zx;
        let zy2 = zy * zy;
        if zx2 + zy2 > 4.0 {
            break;
        }
        zy = 2.0 * zx * zy + cy;
        zx = zx2 - zy2 + cx;
        iter += 1;
    }
    iter
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Mandelbrot {
        Mandelbrot::new(MandelbrotParams::paper_domain(120, 120))
    }

    #[test]
    fn escape_time_known_points() {
        // Origin is in the set: runs to the cap.
        assert_eq!(escape_time(0.0, 0.0, 256), 256);
        // Far outside: escapes immediately-ish.
        assert!(escape_time(2.0, 2.0, 256) <= 2);
        // c = -1 is in the set (period-2 cycle).
        assert_eq!(escape_time(-1.0, 0.0, 500), 500);
    }

    #[test]
    fn column_costs_bounded() {
        let m = small();
        let h = m.params().height as u64;
        let cap = h * m.params().max_iter as u64;
        for i in 0..m.len() {
            let c = m.cost(i);
            assert!(c >= h, "every pixel needs at least 1 iteration");
            assert!(c <= cap);
        }
    }

    #[test]
    fn profile_is_irregular() {
        // The whole point of the workload: strongly non-uniform costs.
        let m = small();
        let profile = m.cost_profile();
        let min = *profile.iter().min().unwrap();
        let max = *profile.iter().max().unwrap();
        assert!(max > 10 * min, "expected irregularity, got {min}..{max}");
    }

    #[test]
    fn interior_columns_cost_most() {
        let m = small();
        // A column through the set's interior (x ≈ -0.2) beats the
        // leftmost column (x = -2, mostly escaping).
        let interior_col = ((-0.2 - -2.0) / 3.25 * 119.0) as u64;
        assert!(m.cost(interior_col) > 3 * m.cost(0));
    }

    #[test]
    fn cost_equals_executed_column_work() {
        let m = small();
        for i in [0u64, 17, 60, 119] {
            let recomputed: u64 = m.compute_column(i as u32).iter().map(|&n| n as u64).sum();
            assert_eq!(m.cost(i), recomputed);
        }
    }

    #[test]
    fn execute_checksum_stable() {
        let m = small();
        assert_eq!(m.execute(5), m.execute(5));
    }

    #[test]
    fn render_matches_columns() {
        let m = Mandelbrot::new(MandelbrotParams::paper_domain(16, 12));
        let img = m.render();
        assert_eq!(img.len(), 16 * 12);
        let col3 = m.compute_column(3);
        for row in 0..12usize {
            assert_eq!(img[row * 16 + 3], col3[row]);
        }
    }

    #[test]
    fn result_bytes_two_per_pixel() {
        let m = small();
        assert_eq!(m.result_bytes(0), 240);
    }

    #[test]
    fn figure1_scale_sanity() {
        // Paper Fig. 1: for a 1200×1200 window, per-column basic
        // computations range from 1200 to ~56,000 — a ~47× spread. A
        // scaled-down 300px window must show the same relative spread
        // (min = height, max ≈ tens of × height).
        let m = Mandelbrot::new(MandelbrotParams::paper_domain(300, 300));
        let profile = m.cost_profile();
        let min = *profile.iter().min().unwrap();
        let max = *profile.iter().max().unwrap();
        assert_eq!(min, 300); // all-escaping-in-1 columns exist at x = -2
        assert!(
            max > 20 * min && max < 64 * min,
            "spread should match Figure 1's ~47x: {min}..{max}"
        );
    }
}
