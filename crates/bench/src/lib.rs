//! Shared helpers for the CAT benchmark/experiment harness.
//!
//! Every bench target prints the paper-style table it reproduces. Turn
//! latency end to end is measured by `perfbench/` instead.

/// Render one row of an aligned text table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Print a titled table with a header and aligned rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(h.len())
        })
        .collect();
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    println!("{}", row(&header_cells, &widths));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for r in rows {
        println!("{}", row(r, &widths));
    }
}

/// Format a float with fixed precision.
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Percentage speedup of `fast` over `slow` in turns (paper §4 reports
/// "speedup (in terms of interaction turns) … up to 80 %").
pub fn speedup_pct(slow: f64, fast: f64) -> f64 {
    if slow <= 0.0 {
        0.0
    } else {
        (1.0 - fast / slow) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_math() {
        assert_eq!(speedup_pct(10.0, 2.0), 80.0);
        assert_eq!(speedup_pct(10.0, 10.0), 0.0);
        assert_eq!(speedup_pct(0.0, 1.0), 0.0);
    }

    #[test]
    fn table_renders() {
        // Just ensure no panics on ragged input.
        print_table("t", &["a", "bb"], &[vec!["1".into(), "2".into()]]);
    }
}
