//! Shared output helpers for the figure harness.
//!
//! Every figure command prints a human-readable table (the "rows/series the
//! paper reports") and can additionally emit machine-readable JSON with
//! `--json <path>` so EXPERIMENTS.md stays regenerable.

/// A named series of (x, y) points — one plotted line of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    pub x: Vec<f64>,
    pub y: Vec<f64>,
}

impl Series {
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            x: Vec::new(),
            y: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.x.push(x);
        self.y.push(y);
    }
}

/// A figure's regenerated data: identification plus its series.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// e.g. "fig2a".
    pub id: String,
    /// What the paper plots.
    pub title: String,
    /// Axis labels, for the record.
    pub x_label: String,
    pub y_label: String,
    pub series: Vec<Series>,
    /// Free-form notes (observed shape checks).
    pub notes: Vec<String>,
}

impl FigureData {
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureData {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Prints the figure as aligned columns: x then one column per series.
    pub fn print(&self) {
        println!("== {} — {} ==", self.id, self.title);
        if self.series.is_empty() {
            println!("(no series)");
        } else {
            let header: Vec<String> = std::iter::once(self.x_label.clone())
                .chain(self.series.iter().map(|s| s.name.clone()))
                .collect();
            println!("{}", header.join("\t"));
            let rows = self.series.iter().map(|s| s.x.len()).max().unwrap_or(0);
            for r in 0..rows {
                let x = self
                    .series
                    .iter()
                    .find_map(|s| s.x.get(r))
                    .copied()
                    .unwrap_or(f64::NAN);
                let mut line = format!("{x:.3}");
                for s in &self.series {
                    match s.y.get(r) {
                        Some(v) => line.push_str(&format!("\t{v:.4}")),
                        None => line.push_str("\t-"),
                    }
                }
                println!("{line}");
            }
        }
        for n in &self.notes {
            println!("# {n}");
        }
        println!();
    }
}

/// Writes figures to a JSON file — atomically (temp file + rename), so a
/// crashed or concurrent run never leaves a half-written artifact.
pub fn write_json(figs: &[FigureData], path: &str) -> std::io::Result<()> {
    obsplane::write_atomic(path, figures_json(figs).as_bytes())
}

/// The figures as two-space-indented JSON: an array of objects with the
/// fields in declaration order. A finite float keeps a decimal point or an
/// exponent so it reads back as a float; a non-finite one is `null`.
fn figures_json(figs: &[FigureData]) -> String {
    let mut out = String::new();
    array(&mut out, 0, figs, |out, d, f| {
        out.push('{');
        field(out, d + 1, "id", true);
        string(out, &f.id);
        field(out, d + 1, "title", false);
        string(out, &f.title);
        field(out, d + 1, "x_label", false);
        string(out, &f.x_label);
        field(out, d + 1, "y_label", false);
        string(out, &f.y_label);
        field(out, d + 1, "series", false);
        array(out, d + 1, &f.series, |out, d, s| {
            out.push('{');
            field(out, d + 1, "name", true);
            string(out, &s.name);
            field(out, d + 1, "x", false);
            array(out, d + 1, &s.x, |out, _, &v| float(out, v));
            field(out, d + 1, "y", false);
            array(out, d + 1, &s.y, |out, _, &v| float(out, v));
            newline(out, d);
            out.push('}');
        });
        field(out, d + 1, "notes", false);
        array(out, d + 1, &f.notes, |out, _, n| string(out, n));
        newline(out, d);
        out.push('}');
    });
    out
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', 2 * depth));
}

fn field(out: &mut String, depth: usize, name: &str, first: bool) {
    if !first {
        out.push(',');
    }
    newline(out, depth);
    string(out, name);
    out.push_str(": ");
}

fn array<T>(out: &mut String, depth: usize, items: &[T], item: impl Fn(&mut String, usize, &T)) {
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, depth + 1);
        item(out, depth + 1, x);
    }
    if !items.is_empty() {
        newline(out, depth);
    }
    out.push(']');
}

fn float(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{x}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the figure writer emitted before it was written by hand, for
    /// a fixture that reaches every branch: an empty series list and
    /// empty arrays, integral, fractional, tiny, huge and non-finite
    /// floats, and strings needing every escape plus non-ASCII text.
    const GOLDEN: &str = r#"[
  {
    "id": "figX",
    "title": "A \"quoted\" title",
    "x_label": "x \\ axis",
    "y_label": "y (µs)",
    "series": [
      {
        "name": "mixed",
        "x": [
          0.0,
          2.0,
          1.5,
          0.0000001,
          null,
          null,
          -0.0
        ],
        "y": [
          1.0,
          -3.0,
          0.25,
          1000000000000000000000.0,
          null,
          123456789.125,
          0.3333333333333333
        ]
      },
      {
        "name": "empty",
        "x": [],
        "y": []
      }
    ],
    "notes": [
      "line\nbreak and tab\tand return\r",
      "control \u0001 byte and \u001f unit separator",
      "back\\slash \"quotes\" non-ASCII: µs — ≤ 🙂"
    ]
  },
  {
    "id": "bare",
    "title": "",
    "x_label": "",
    "y_label": "",
    "series": [],
    "notes": []
  }
]"#;

    #[test]
    fn figure_json_bytes_are_pinned() {
        let mut a = FigureData::new("figX", "A \"quoted\" title", "x \\ axis", "y (µs)");
        let mut s = Series::new("mixed");
        s.push(0.0, 1.0);
        s.push(2.0, -3.0);
        s.push(1.5, 0.25);
        s.push(1e-7, 1e21);
        s.push(f64::NAN, f64::INFINITY);
        s.push(f64::NEG_INFINITY, 123456789.125);
        s.push(-0.0, 1.0 / 3.0);
        a.series.push(s);
        a.series.push(Series::new("empty"));
        a.note("line\nbreak and tab\tand return\r");
        a.note("control \u{1} byte and \u{1f} unit separator");
        a.note("back\\slash \"quotes\" non-ASCII: µs — ≤ 🙂");
        let b = FigureData::new("bare", "", "", "");
        assert_eq!(figures_json(&[a, b]), GOLDEN);
    }
}
