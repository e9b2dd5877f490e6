//! The "graphics monitor": ASCII rendering of pictures with highlighted
//! objects.
//!
//! The paper displays qualifying spatial objects on a graphics device
//! with their names beside them (Figure 2.1b); we have no 1985 graphics
//! monitor, so this module rasterizes the picture into a character grid —
//! the same dual-channel output, terminal-friendly.

use crate::picture::Picture;
use crate::result::Highlight;
use rtree_geom::{Point, Rect, SpatialObject};

/// Renders `picture` into a `width × height` character grid.
///
/// All objects are drawn dimly (`.` for points, `-`/`|` style traces for
/// segments, `:` outlines for regions); objects in `highlights` are drawn
/// bright (`*`, `=`, `#`) with their labels written beside them.
pub fn render(picture: &Picture, highlights: &[Highlight], width: usize, height: usize) -> String {
    assert!(width >= 8 && height >= 4, "canvas too small");
    let frame = picture.frame();
    let mut grid = vec![vec![' '; width]; height];

    let highlighted: std::collections::HashSet<u64> = highlights
        .iter()
        .filter(|h| h.picture == picture.name())
        .map(|h| h.object)
        .collect();

    // Dim pass first so highlights overdraw.
    for pass in [false, true] {
        for id in picture.object_ids() {
            let is_hi = highlighted.contains(&id);
            if is_hi != pass {
                continue;
            }
            let Some(obj) = picture.object(id) else {
                continue;
            };
            draw_object(&mut grid, &frame, &obj, is_hi, width, height);
        }
    }
    // Labels last, so they stay readable.
    for id in picture.object_ids() {
        if !highlighted.contains(&id) {
            continue;
        }
        let Some(obj) = picture.object(id) else {
            continue;
        };
        if let Some(label) = picture.label(id) {
            let (cx, cy) = to_cell(&frame, obj.representative(), width, height);
            write_label(&mut grid, cx + 2, cy, label);
        }
    }

    let mut out = String::with_capacity((width + 3) * (height + 2));
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push_str("+\n");
    for row in &grid {
        out.push('|');
        out.extend(row.iter());
        out.push_str("|\n");
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push_str("+\n");
    out
}

fn to_cell(frame: &Rect, p: Point, width: usize, height: usize) -> (usize, usize) {
    let fx = ((p.x - frame.min_x) / frame.width().max(f64::MIN_POSITIVE)).clamp(0.0, 1.0);
    let fy = ((p.y - frame.min_y) / frame.height().max(f64::MIN_POSITIVE)).clamp(0.0, 1.0);
    let cx = (fx * (width - 1) as f64).round() as usize;
    // y grows north; rows grow down.
    let cy = ((1.0 - fy) * (height - 1) as f64).round() as usize;
    (cx, cy)
}

fn put(grid: &mut [Vec<char>], cx: usize, cy: usize, c: char) {
    if cy < grid.len() && cx < grid[cy].len() {
        grid[cy][cx] = c;
    }
}

fn draw_object(
    grid: &mut [Vec<char>],
    frame: &Rect,
    obj: &SpatialObject,
    highlighted: bool,
    width: usize,
    height: usize,
) {
    match obj {
        SpatialObject::Point(p) => {
            let (cx, cy) = to_cell(frame, *p, width, height);
            put(grid, cx, cy, if highlighted { '*' } else { '.' });
        }
        SpatialObject::Segment(s) => {
            // Sample along the segment.
            let steps = (s.length() / frame.width().max(1e-9) * width as f64 * 2.0)
                .ceil()
                .max(1.0) as usize;
            for k in 0..=steps {
                let t = k as f64 / steps as f64;
                let p = s.a + (s.b - s.a) * t;
                let (cx, cy) = to_cell(frame, p, width, height);
                put(grid, cx, cy, if highlighted { '=' } else { '-' });
            }
        }
        SpatialObject::Region(r) => {
            let verts = r.vertices();
            let n = verts.len();
            for i in 0..n {
                let a = verts[i];
                let b = verts[(i + 1) % n];
                let seg = rtree_geom::Segment::new(a, b);
                let steps = (seg.length() / frame.width().max(1e-9) * width as f64 * 2.0)
                    .ceil()
                    .max(1.0) as usize;
                for k in 0..=steps {
                    let t = k as f64 / steps as f64;
                    let p = a + (b - a) * t;
                    let (cx, cy) = to_cell(frame, p, width, height);
                    put(grid, cx, cy, if highlighted { '#' } else { ':' });
                }
            }
        }
    }
}

fn write_label(grid: &mut [Vec<char>], cx: usize, cy: usize, label: &str) {
    for (k, ch) in label.chars().enumerate() {
        let x = cx + k;
        if cy < grid.len() && x < grid[cy].len() {
            grid[cy][x] = ch;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::PictorialDatabase;
    use crate::exec::query;

    #[test]
    fn render_shows_highlighted_labels() {
        let db = PictorialDatabase::with_us_map();
        let result = query(
            &db,
            "select city, loc from cities on us-map \
             at loc covered-by {82.5 +- 17.5, 25 +- 20} where population > 4000000",
        )
        .unwrap();
        let text = render(db.picture("us-map").unwrap(), &result.highlights, 100, 30);
        assert!(text.contains("New York"), "missing label:\n{text}");
        assert!(text.contains('*'), "missing highlight marker");
        assert!(text.contains('.'), "dim objects should still render");
        // Non-qualifying west-coast labels are absent.
        assert!(!text.contains("Seattle"));
    }

    #[test]
    fn render_regions_and_segments() {
        let db = PictorialDatabase::with_us_map();
        let zones = query(
            &db,
            "select zone, loc from time-zones on time-zone-map at loc overlapping {10 +- 9, 25 +- 25}",
        )
        .unwrap();
        let text = render(
            db.picture("time-zone-map").unwrap(),
            &zones.highlights,
            80,
            24,
        );
        assert!(text.contains('#'), "highlighted region outline expected");
        let hw = query(&db, "select hwy-name, loc from highways on highway-map at loc overlapping {50 +- 50, 25 +- 25} where hwy-name = 'I-10'").unwrap();
        let text2 = render(db.picture("highway-map").unwrap(), &hw.highlights, 80, 24);
        assert!(text2.contains('='), "highlighted segment expected");
    }

    #[test]
    fn geometry_of_grid() {
        let db = PictorialDatabase::with_us_map();
        let text = render(db.picture("us-map").unwrap(), &[], 60, 20);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 22); // 20 rows + 2 borders
        assert!(lines.iter().all(|l| l.chars().count() == 62));
    }

    #[test]
    #[should_panic(expected = "canvas too small")]
    fn tiny_canvas_rejected() {
        let db = PictorialDatabase::with_us_map();
        render(db.picture("us-map").unwrap(), &[], 4, 2);
    }
}
