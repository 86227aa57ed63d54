//! Plain-text table rendering for `paperfigs`.

/// A simple column-aligned table printer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given header.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// The column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The appended rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(c);
                for _ in c.len()..widths[i] {
                    out.push(' ');
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a duration in microseconds with two decimals.
pub fn us(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e6)
}

/// Formats a nanosecond count as microseconds with two decimals.
pub fn ns_as_us(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e3)
}

/// Formats bytes as MiB with one decimal.
pub fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_bad_width() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(us(std::time::Duration::from_micros(1500)), "1500.00");
        assert_eq!(ns_as_us(2500), "2.50");
        assert_eq!(mib(1024 * 1024 * 3 / 2), "1.5");
    }
}
