//! Minimal fixed-width table rendering for experiment output.

/// A simple text table with a title, a header row and data rows.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row; its length must match the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table as fixed-width text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats seconds with a sensible precision.
pub fn fmt_secs(secs: f64) -> String {
    if secs.is_infinite() {
        "INF".to_string()
    } else if secs < 1.0 {
        format!("{secs:.2}")
    } else if secs < 100.0 {
        format!("{secs:.1}")
    } else {
        format!("{secs:.0}")
    }
}

/// Formats a ratio as a percentage.
pub fn fmt_pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["a".to_string(), "1".to_string()])
            .row(&["longer-name".to_string(), "2".to_string()]);
        let out = t.render();
        assert!(out.contains("== Demo =="));
        assert!(out.contains("longer-name"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(0.5), "0.50");
        assert_eq!(fmt_secs(42.25), "42.2");
        assert_eq!(fmt_secs(500.9), "501");
        assert_eq!(fmt_secs(f64::INFINITY), "INF");
        assert_eq!(fmt_pct(0.973), "97.3%");
    }
}
