//! EXPERIMENTS.md quotes measured figures by hand; `results/full_results.txt`
//! is what `reproduce all` prints and CI pins. Every measured cell of the
//! E2–E4 tables (each row labelled `(measured)`, and each table's
//! `measured` column) is a suite geomean and must occur on a `Geomean`
//! line of the results file at the quoted precision: `+2.49` ↔ `2.49%`,
//! `−0.40` ↔ `-0.40%`. Every measured cell of the E5/E8 (cycle
//! accounting) and E7 (register statistics) tables must equal its figure
//! in the results file rounded to the cell's precision; `flush / FE` is
//! the sum of the flush and FE figures.

use std::path::PathBuf;

fn read(rel: &str) -> String {
    std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel))
        .unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The text of the section under `heading`, up to the next `## `.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let start = doc.find(heading).unwrap_or_else(|| panic!("no {heading}"));
    let body = &doc[start + heading.len()..];
    &body[..body.find("\n## ").unwrap_or(body.len())]
}

/// The cells of a section's table rows, header first, separator skipped.
fn table(section: &str) -> Vec<Vec<String>> {
    section
        .lines()
        .filter_map(|l| l.strip_prefix('|'))
        .map(|rest| {
            let rest = rest.trim_end().trim_end_matches('|');
            rest.split('|')
                .map(|c| c.trim().to_string())
                .collect::<Vec<_>>()
        })
        .filter(|row| !row.iter().all(|c| c.chars().all(|ch| ch == '-')))
        .collect()
}

/// The figure labelled `key` on the results line starting with `line`:
/// written `key=V%` or `key V%`.
fn figure(results: &str, line: &str, key: &str) -> f64 {
    let text = results
        .lines()
        .find(|l| l.starts_with(line))
        .unwrap_or_else(|| panic!("no results line starting {line:?}"));
    let words: Vec<&str> = text.split_whitespace().collect();
    let value = words
        .iter()
        .zip(words.iter().skip(1))
        .find_map(|(w, next)| match w.split_once('=') {
            Some((k, v)) if k == key => Some(v),
            None if *w == key => Some(*next),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no {key} on {text:?}"));
    value
        .trim_end_matches('%')
        .parse()
        .unwrap_or_else(|_| panic!("{key}: `{value}` is not a figure"))
}

/// Checks one cell: its ` / `-separated figures, in order, each equal to
/// the sum of `parts[i]`'s figures on results line `line`, rounded to the
/// cell figure's precision.
fn check_cell(results: &str, table: &str, cell: &str, line: &str, parts: &[&[&str]]) {
    let quoted: Vec<&str> = cell.split(" / ").collect();
    assert_eq!(quoted.len(), parts.len(), "{table}: `{cell}`");
    for (q, keys) in quoted.iter().zip(parts) {
        let number = q.replace('−', "-");
        let number = number.trim_end_matches('%').trim_start_matches('+');
        let decimals = number.split_once('.').map_or(0, |(_, d)| d.len());
        let sum: f64 = keys.iter().map(|k| figure(results, line, k)).sum();
        assert_eq!(
            number,
            format!("{sum:.decimals$}"),
            "{table}: `{cell}` quotes `{q}`, but {keys:?} on `{line}` is {sum}"
        );
    }
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
        let figures = measured_cells(section(&doc, heading));
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

#[test]
fn accounting_and_register_tables_match_full_results() {
    let doc = read("EXPERIMENTS.md");
    let results = read("results/full_results.txt");

    // E5/E8: one row per cycle bucket, one column per policy.
    let e5 = table(section(&doc, "## E5/E8 "));
    let buckets: [(&str, &[&str]); 5] = [
        ("unstalled", &["unstalled"]),
        ("BE_EXE_BUBBLE", &["EXE"]),
        ("BE_L1D_FPU_BUBBLE", &["L1D/FPU"]),
        ("BE_RSE_BUBBLE", &["RSE"]),
        ("flush / FE", &["flush", "FE"]),
    ];
    assert_eq!(e5[0], ["bucket", "baseline", "HLO hints"]);
    assert_eq!(e5.len(), 1 + buckets.len(), "E5/E8 rows: {e5:?}");
    for (row, (bucket, keys)) in e5[1..].iter().zip(buckets) {
        assert_eq!(row[0], bucket);
        check_cell(&results, "E5/E8", &row[1], "baseline :", &[keys]);
        check_cell(&results, "E5/E8", &row[2], "HLO hints:", &[keys]);
    }

    // E7: the `measured` column, one results line per row.
    let e7 = table(section(&doc, "## E7 "));
    let stats: [(&str, &str, &[&[&str]]); 5] = [
        ("GR growth", "GR +", &[&["GR"]]),
        ("FR growth", "GR +", &[&["FR"]]),
        ("PR growth", "GR +", &[&["PR"]]),
        (
            "supply used",
            "avg supply used",
            &[&["GR"], &["FR"], &["PR"]],
        ),
        ("outside-loop spills", "outside-loop spill", &[&["growth:"]]),
    ];
    assert_eq!(e7[0], ["statistic", "paper", "measured"]);
    assert_eq!(e7.len(), 1 + stats.len(), "E7 rows: {e7:?}");
    for (row, (stat, line, parts)) in e7[1..].iter().zip(stats) {
        assert_eq!(row[0], stat);
        check_cell(&results, "E7", &row[2], line, parts);
    }
}
