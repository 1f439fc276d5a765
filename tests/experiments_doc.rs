//! EXPERIMENTS.md quotes measured figures by hand; `results/full_results.txt`
//! is what `reproduce all` prints and CI pins. Every measured cell of the
//! E2–E4 tables (each row labelled `(measured)`, and each table's
//! `measured` column) is a suite geomean and must occur on a `Geomean`
//! line of the results file at the quoted precision: `+2.49` ↔ `2.49%`,
//! `−0.40` ↔ `-0.40%`.

use std::path::PathBuf;

fn read(rel: &str) -> String {
    std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel))
        .unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The measured cells of one section's tables.
fn measured_cells(section: &str) -> Vec<String> {
    let mut out = Vec::new();
    // `Some(column)` inside a table's body; `column` is its `measured`
    // column, if it has one.
    let mut body: Option<Option<usize>> = None;
    for line in section.lines() {
        let Some(rest) = line.strip_prefix('|') else {
            body = None;
            continue;
        };
        let row: Vec<&str> = rest
            .trim_end()
            .trim_end_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        match body {
            None => body = Some(row.iter().position(|c| *c == "measured")),
            Some(_) if row.iter().all(|c| c.chars().all(|ch| ch == '-')) => {}
            Some(_) if row[0].ends_with("(measured)") => {
                out.extend(row[1..].iter().map(|c| c.to_string()));
            }
            Some(Some(k)) => out.push(row[k].to_string()),
            Some(None) => {}
        }
    }
    out
}

#[test]
fn measured_figures_in_experiments_md_occur_in_full_results() {
    let doc = read("EXPERIMENTS.md");
    let results = read("results/full_results.txt");
    let geomeans: Vec<&str> = results
        .lines()
        .filter(|l| l.starts_with("Geomean"))
        .collect();
    for heading in ["## E2 ", "## E3 ", "## E4 "] {
        let start = doc.find(heading).unwrap_or_else(|| panic!("no {heading}"));
        let body = &doc[start + heading.len()..];
        let section = &body[..body.find("\n## ").unwrap_or(body.len())];
        let figures = measured_cells(section);
        let heading = heading.trim();
        assert!(!figures.is_empty(), "{heading} has no measured cells");
        for cell in figures {
            let number = cell.replace('−', "-");
            let number = number.trim_start_matches('+');
            assert!(
                number.parse::<f64>().is_ok(),
                "{heading}: `{cell}` is not a number"
            );
            let quoted = format!("{number}%");
            assert!(
                geomeans
                    .iter()
                    .any(|l| l.split_whitespace().any(|w| w == quoted)),
                "{heading}: `{cell}` ({quoted}) is on no Geomean line of results/full_results.txt"
            );
        }
    }
}
