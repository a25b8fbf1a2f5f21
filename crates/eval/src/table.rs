//! Minimal plain-text table rendering for experiment reports.

/// A left-aligned text table with a header row.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells, long rows
    /// are truncated to the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut r: Vec<String> = cells.iter().take(self.header.len()).cloned().collect();
        while r.len() < self.header.len() {
            r.push(String::new());
        }
        self.rows.push(r);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with column widths fitted to content.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                for _ in cell.chars().count()..widths[i] {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats an `f64` with 3 decimal places (the convention for scores in
/// the experiment reports).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["method", "p@5"]);
        t.row(&["minaret".into(), "0.80".into()]);
        t.row(&["random".into(), "0.10".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("method"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only".into()]);
        t.row(&["x".into(), "y".into(), "extra".into()]);
        let s = t.render();
        assert!(s.contains("only"));
        assert!(!s.contains("extra"));
    }

    #[test]
    fn f3_formats() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f3(1.0), "1.000");
    }
}
