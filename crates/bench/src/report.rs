//! Plain-text table/series rendering for the figure binaries, and the fuzz
//! campaign's report-file output.

/// Serializes `value` as pretty JSON and writes it to `path`. The fuzz bin
/// is a CI step: an output failure prints the error and exits non-zero
/// instead of panicking, so the step fails with a readable message rather
/// than a backtrace.
pub fn write_json<T: serde::Serialize>(path: &str, value: &T) {
    let written = serde_json::to_string_pretty(value)
        .map_err(|e| e.to_string())
        .and_then(|json| std::fs::write(path, json).map_err(|e| e.to_string()));
    if let Err(e) = written {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

/// Prints a two-column bar chart row: label, bar scaled to `max`, value.
pub fn bar_row(label: &str, value: f64, max: f64, width: usize) {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    let bar: String = "#".repeat(filled.min(width));
    println!("{label:>12} | {bar:<width$} {value:8.2}");
}

/// Prints a header rule.
pub fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Renders an aligned table: first row is the header.
pub fn table(rows: &[Vec<String>]) {
    if rows.is_empty() {
        return;
    }
    let cols = rows[0].len();
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    for (ri, row) in rows.iter().enumerate() {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        println!("{}", line.join("  "));
        if ri == 0 {
            let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
            println!("{}", rule.join("  "));
        }
    }
}

/// A table row of literal cells, such as a header.
pub fn row(cells: &[&str]) -> Vec<String> {
    cells.iter().map(|c| c.to_string()).collect()
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.597), "59.7%");
        assert_eq!(pct(0.0), "0.0%");
    }

    // Rendering functions only print; smoke-test that they do not panic.
    #[test]
    fn rendering_does_not_panic() {
        header("t");
        bar_row("a", 5.0, 10.0, 20);
        bar_row("b", 0.0, 0.0, 20);
        table(&[vec!["h1".into(), "h2".into()], vec!["1".into(), "2".into()]]);
        table(&[]);
    }
}
