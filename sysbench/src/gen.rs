//! Seeded input generation. The program under test sees only what is
//! generated here; nothing below reads a clock, so op `i` of a stream is
//! a function of the seed alone and a shorter run executes a prefix of a
//! longer one.

use rtree_geom::{Point, Rect};

/// Side of the square frame every dataset fills.
pub const FRAME: f64 = 1000.0;

/// Half-extent of a window that covers about 20 of 1M uniform points.
pub const SMALL_HALF: f64 = 2.236;

/// Half-extent of a window of selectivity 1e-4 (about 100 of 1M points).
pub const SEL_HALF: f64 = 5.0;

/// Neighbours asked of every k-NN op.
pub const KNN_K: usize = 10;

/// splitmix64 (Steele, Lea & Flood): one 64-bit state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`; `stream` separates independent users of
    /// one seed (dataset, each connection, the writer).
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        // The bias of a plain modulus is below 2^-40 for every n here.
        self.next_u64() % n
    }
}

/// Stream ids, so no two consumers of a seed share a sequence.
pub mod stream {
    pub const DATASET: u64 = 1;
    pub const INSERTS: u64 = 2;
    pub const POOL: u64 = 3;
    pub const PROBE: u64 = 4;
    /// Connection `c` reads from `CONNECTION + c`.
    pub const CONNECTION: u64 = 16;
}

/// `n` uniform points in the frame.
pub fn points(seed: u64, stream: u64, n: usize) -> Vec<Point> {
    let mut g = SplitMix64::new(seed, stream);
    (0..n)
        .map(|_| Point {
            x: g.unit() * FRAME,
            y: g.unit() * FRAME,
        })
        .collect()
}

/// A square window given by centre and half-extent, each a whole number
/// of thousandths: the text form below parses back to these exact
/// doubles, so the oracle and the PSQL parser build the same rectangle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub cx: f64,
    pub cy: f64,
    pub half: f64,
}

impl Window {
    /// A window of half-extent `half` lying wholly inside the frame.
    pub fn draw(g: &mut SplitMix64, half: f64) -> Window {
        let lo = (half * 1000.0).ceil() as u64;
        let span = (FRAME * 1000.0) as u64 - 2 * lo;
        Window {
            cx: (lo + g.below(span + 1)) as f64 / 1000.0,
            cy: (lo + g.below(span + 1)) as f64 / 1000.0,
            half,
        }
    }

    /// The rectangle, computed as the PSQL parser computes it.
    pub fn rect(&self) -> Rect {
        Rect::new(
            self.cx - self.half,
            self.cy - self.half,
            self.cx + self.half,
            self.cy + self.half,
        )
    }

    /// The paper's `{x +- dx, y +- dy}` literal.
    pub fn literal(&self) -> String {
        format!(
            "{{{:.3} +- {:.3}, {:.3} +- {:.3}}}",
            self.cx, self.half, self.cy, self.half
        )
    }

    pub fn center(&self) -> Point {
        Point {
            x: self.cx,
            y: self.cy,
        }
    }
}

/// One read against the served `sites` relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// `covered-by` a ~20-row window.
    Small(Window),
    /// `overlapping` a selectivity-1e-4 window.
    Overlap(Window),
    /// The `KNN_K` sites nearest the window's centre.
    Nearest(Window),
}

impl Query {
    pub fn text(&self) -> String {
        const HEAD: &str = "select site, weight from sites on site-map at loc";
        match self {
            Query::Small(w) => format!("{HEAD} covered-by {}", w.literal()),
            Query::Overlap(w) => format!("{HEAD} overlapping {}", w.literal()),
            Query::Nearest(w) => format!("{HEAD} nearest {KNN_K} {}", w.literal()),
        }
    }
}

/// A fresh ~20-row window: the read of `bulk_load`'s disk searches.
pub fn small_window(g: &mut SplitMix64) -> Window {
    Window::draw(g, SMALL_HALF)
}

/// The unique-text read stream of `serve_read` and `serve_mixed`: every
/// op a fresh ~20-row window, so no text repeats and the plan cache
/// misses every time.
pub fn unique_window(g: &mut SplitMix64) -> Query {
    Query::Small(small_window(g))
}

/// The fixed pool `serve_pipelined` draws from: half small windows, a
/// quarter overlap windows, a quarter nearest-10. It fits the server's
/// 256-entry plan cache.
pub fn query_pool(seed: u64, size: usize) -> Vec<Query> {
    let mut g = SplitMix64::new(seed, stream::POOL);
    (0..size)
        .map(|i| match i % 4 {
            0 | 1 => Query::Small(Window::draw(&mut g, SMALL_HALF)),
            2 => Query::Overlap(Window::draw(&mut g, SEL_HALF)),
            _ => Query::Nearest(Window::draw(&mut g, 0.0)),
        })
        .collect()
}

/// One call on the index itself (`index_direct`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexOp {
    /// Window search of selectivity 1e-4.
    Window(Window),
    /// Point query at the location of dataset point `i`.
    Point(usize),
    /// `KNN_K` nearest neighbours of a location.
    Knn(Point),
}

/// The seeded 60/20/20 window/point/k-NN mix over a dataset of `n`.
pub fn index_op(g: &mut SplitMix64, n: usize) -> IndexOp {
    match g.below(10) {
        0..=5 => IndexOp::Window(Window::draw(g, SEL_HALF)),
        6 | 7 => IndexOp::Point(g.below(n as u64) as usize),
        _ => IndexOp::Knn(Point {
            x: g.unit() * FRAME,
            y: g.unit() * FRAME,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // First outputs of splitmix64 from state 0 (Vigna's reference).
        let mut g = SplitMix64(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(g.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(points(7, 1, 100), points(7, 1, 100));
        assert_ne!(points(7, 1, 100), points(8, 1, 100));
        assert_ne!(points(7, 1, 100), points(7, 2, 100));
        assert_eq!(query_pool(7, 128), query_pool(7, 128));
    }

    #[test]
    fn a_shorter_run_is_a_prefix_of_a_longer_one() {
        let ops = |count: usize| {
            let mut g = SplitMix64::new(1985, stream::CONNECTION);
            (0..count)
                .map(|_| index_op(&mut g, 1000))
                .collect::<Vec<_>>()
        };
        let long = ops(5000);
        assert_eq!(ops(500), long[..500]);
        let texts = |count: usize| {
            let mut g = SplitMix64::new(1985, stream::CONNECTION + 1);
            (0..count)
                .map(|_| unique_window(&mut g).text())
                .collect::<Vec<_>>()
        };
        assert_eq!(texts(50), texts(400)[..50]);
    }

    #[test]
    fn index_mix_is_60_20_20() {
        let mut g = SplitMix64::new(3, 0);
        let mut counts = [0usize; 3];
        for _ in 0..100_000 {
            match index_op(&mut g, 10) {
                IndexOp::Window(_) => counts[0] += 1,
                IndexOp::Point(_) => counts[1] += 1,
                IndexOp::Knn(_) => counts[2] += 1,
            }
        }
        assert!((59_000..61_000).contains(&counts[0]), "{counts:?}");
        assert!((19_000..21_000).contains(&counts[1]), "{counts:?}");
        assert!((19_000..21_000).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn window_literal_parses_back_to_the_same_rectangle() {
        let mut g = SplitMix64::new(11, 0);
        for _ in 0..2000 {
            for half in [SMALL_HALF, SEL_HALF, 0.0] {
                let w = Window::draw(&mut g, half);
                let r = w.rect();
                assert!(r.min_x >= 0.0 && r.max_x <= FRAME && r.min_y >= 0.0 && r.max_y <= FRAME);
                let q = psql::parse_query(&Query::Overlap(w).text()).unwrap();
                match q.at.unwrap().rhs {
                    psql::ast::LocTerm::Window(parsed) => assert_eq!(parsed, r),
                    other => panic!("not a window: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn pool_shape() {
        let pool = query_pool(1985, 128);
        let small = pool.iter().filter(|q| matches!(q, Query::Small(_))).count();
        let overlap = pool
            .iter()
            .filter(|q| matches!(q, Query::Overlap(_)))
            .count();
        let nearest = pool
            .iter()
            .filter(|q| matches!(q, Query::Nearest(_)))
            .count();
        assert_eq!((small, overlap, nearest), (64, 32, 32));
    }
}
