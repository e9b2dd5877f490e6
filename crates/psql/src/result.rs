//! Query results: the dual output channels of §2.2.
//!
//! "The output of PSQL queries is directed to two output devices. The
//! graphical output device displays the area of the picture containing
//! the qualifying spatial objects and the standard terminal displays the
//! alphanumeric data."

use pictorial_relational::{Value, ValueRef};
use std::fmt;

/// A qualifying spatial object to highlight on the graphics output.
#[derive(Debug, Clone, PartialEq)]
pub struct Highlight {
    /// Picture the object lives on.
    pub picture: String,
    /// Object id within the picture.
    pub object: u64,
    /// Display label (the paper shows object names on the picture "to
    /// assist the user to visualize their correspondence").
    pub label: String,
}

/// The alphanumeric + pictorial result of a PSQL query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
    /// Qualifying objects for the graphics monitor.
    pub highlights: Vec<Highlight>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no rows qualified.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Values of the named column across all rows.
    pub fn column(&self, name: &str) -> Option<Vec<&Value>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|r| &r[idx]).collect())
    }

    /// Hands the whole result to `sink` in the order the executor
    /// writes one.
    pub fn replay(&self, sink: &mut impl ResultSink) {
        sink.columns(self.columns.len());
        for name in &self.columns {
            sink.column(name);
        }
        sink.rows(self.rows.len());
        for row in &self.rows {
            sink.row();
            for value in row {
                sink.value(value.as_ref());
            }
        }
        sink.highlights(self.highlights.len());
        for h in &self.highlights {
            sink.highlight(&h.picture, h.object, &h.label);
        }
    }
}

/// Where the executor writes a result, in the order the wire carries
/// one: the column names, then each row's values, then the highlights,
/// each list announced by its length. Values, names and labels are
/// borrowed from the database for the length of the call, so a sink
/// that encodes them copies each once and one that keeps them owns
/// them. The sink is a type parameter of the executor, chosen at
/// compile time: a [`ResultSet`] for library callers, the server's
/// response frame for a served query.
///
/// A query that fails stops part-way through; whatever it wrote is the
/// caller's to discard.
pub trait ResultSink {
    /// `count` column names follow.
    fn columns(&mut self, count: usize);
    /// One output column's name.
    fn column(&mut self, name: &str);
    /// `count` rows follow.
    fn rows(&mut self, count: usize);
    /// A row starts; one value per column follows.
    fn row(&mut self);
    /// The next value of the current row.
    fn value(&mut self, value: ValueRef<'_>);
    /// `count` highlights follow.
    fn highlights(&mut self, count: usize);
    /// One qualifying object for the graphics monitor.
    fn highlight(&mut self, picture: &str, object: u64, label: &str);
}

/// Keeps the result: every value, name and label is copied out.
impl ResultSink for ResultSet {
    fn columns(&mut self, count: usize) {
        self.columns.reserve(count);
    }

    fn column(&mut self, name: &str) {
        self.columns.push(name.to_owned());
    }

    fn rows(&mut self, count: usize) {
        self.rows.reserve(count);
    }

    fn row(&mut self) {
        self.rows.push(Vec::with_capacity(self.columns.len()));
    }

    fn value(&mut self, value: ValueRef<'_>) {
        if let Some(row) = self.rows.last_mut() {
            row.push(value.to_value());
        }
    }

    fn highlights(&mut self, count: usize) {
        self.highlights.reserve(count);
    }

    fn highlight(&mut self, picture: &str, object: u64, label: &str) {
        self.highlights.push(Highlight {
            picture: picture.to_owned(),
            object,
            label: label.to_owned(),
        });
    }
}

/// Renders the alphanumeric channel as an aligned text table (what the
/// "standard terminal" shows, Figure 2.1a).
impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.columns.is_empty() {
            return writeln!(f, "(empty result)");
        }
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Value::to_string).collect())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)
        };
        let header: Vec<String> = self.columns.clone();
        let rule: String = {
            let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
            "-".repeat(total)
        };
        writeln!(f, "{rule}")?;
        line(f, &header)?;
        writeln!(f, "{rule}")?;
        for row in &rendered {
            line(f, row)?;
        }
        writeln!(f, "{rule}")?;
        writeln!(
            f,
            "({} row{})",
            self.len(),
            if self.len() == 1 { "" } else { "s" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResultSet {
        ResultSet {
            columns: vec!["city".into(), "population".into()],
            rows: vec![
                vec![Value::str("Boston"), Value::Int(4_900_000)],
                vec![Value::str("NY"), Value::Int(19_600_000)],
            ],
            highlights: vec![],
        }
    }

    #[test]
    fn column_accessor() {
        let r = sample();
        let pops = r.column("population").unwrap();
        assert_eq!(pops, vec![&Value::Int(4_900_000), &Value::Int(19_600_000)]);
        assert!(r.column("altitude").is_none());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn display_is_aligned_table() {
        let text = sample().to_string();
        assert!(text.contains("| city   |"), "got:\n{text}");
        assert!(text.contains("| Boston |"));
        assert!(text.contains("(2 rows)"));
    }

    #[test]
    fn replay_into_a_result_set_copies_it() {
        let mut r = sample();
        r.highlights.push(Highlight {
            picture: "us-map".into(),
            object: 7,
            label: "Boston".into(),
        });
        let mut copy = ResultSet::default();
        r.replay(&mut copy);
        assert_eq!(copy, r);
    }

    #[test]
    fn empty_result_display() {
        let r = ResultSet::default();
        assert!(r.to_string().contains("empty"));
        assert!(r.is_empty());
    }
}
