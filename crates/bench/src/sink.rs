//! Shared result sink for the benchmark binaries.
//!
//! Every figure/table binary prints its plain-text tables to stdout as
//! before; with `--json` it *additionally* writes a machine-readable
//! `results/BENCH_<name>.json` document. The document embeds the exact
//! cells of the printed tables (as strings, so "n/a" / "+4" style cells
//! survive) plus the options the run was taken under, guarded by
//! [`SCHEMA_VERSION`]. `bench_validate` checks every document in
//! `results/` against this schema; OBSERVABILITY.md documents it.

use std::fs;
use std::path::PathBuf;

use treesls::Json;

use crate::harness::BenchOpts;
use crate::table::Table;

/// Version of the `BENCH_<name>.json` document layout. Bump on any
/// incompatible change; `bench_validate` rejects mismatches.
pub const SCHEMA_VERSION: u64 = 1;

/// Collects the tables and notes a benchmark binary produces and, when
/// `--json` was passed, writes them to `results/BENCH_<name>.json` on
/// [`finish`](Sink::finish).
pub struct Sink {
    name: String,
    title: String,
    opts: Json,
    json: bool,
    tables: Vec<(String, Table)>,
    notes: Vec<String>,
}

impl Sink {
    /// Creates a sink for the experiment `name` (the `BENCH_<name>.json`
    /// stem) and prints the human title.
    pub fn new(name: &str, title: &str, opts: &BenchOpts) -> Self {
        println!("{title}\n");
        let opts_json = Json::Obj(vec![
            ("cores".to_string(), Json::from(opts.cores as u64)),
            (
                "interval_ms".to_string(),
                opts.interval.map_or(Json::Null, |d| Json::from(d.as_secs_f64() * 1e3)),
            ),
            ("hybrid".to_string(), Json::from(opts.hybrid)),
            ("full".to_string(), Json::from(opts.full)),
            ("optane".to_string(), Json::from(opts.optane)),
        ]);
        Self {
            name: name.to_string(),
            title: title.to_string(),
            opts: opts_json,
            json: opts.json,
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Prints a table and records it under `label` for the JSON document.
    pub fn table(&mut self, label: &str, table: Table) {
        if !self.tables.is_empty() {
            println!();
        }
        table.print();
        self.tables.push((label.to_string(), table));
    }

    /// Prints a trailing free-text line and records it in `notes`.
    pub fn note(&mut self, text: &str) {
        if self.notes.is_empty() {
            println!();
        }
        println!("{text}");
        self.notes.push(text.to_string());
    }

    /// Builds the schema-versioned JSON document for this run.
    pub fn to_json(&self) -> Json {
        let tables = self
            .tables
            .iter()
            .map(|(label, t)| {
                Json::Obj(vec![
                    ("label".to_string(), Json::from(label.as_str())),
                    (
                        "columns".to_string(),
                        Json::Arr(t.header().iter().map(|h| Json::from(h.as_str())).collect()),
                    ),
                    (
                        "rows".to_string(),
                        Json::Arr(
                            t.rows()
                                .iter()
                                .map(|r| {
                                    Json::Arr(r.iter().map(|c| Json::from(c.as_str())).collect())
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema_version".to_string(), Json::from(SCHEMA_VERSION)),
            ("name".to_string(), Json::from(self.name.as_str())),
            ("title".to_string(), Json::from(self.title.as_str())),
            ("opts".to_string(), self.opts.clone()),
            ("tables".to_string(), Json::Arr(tables)),
            (
                "notes".to_string(),
                Json::Arr(self.notes.iter().map(|n| Json::from(n.as_str())).collect()),
            ),
        ])
    }

    /// Writes `results/BENCH_<name>.json` if `--json` was passed.
    ///
    /// The path is relative to the working directory: run the binaries
    /// from the repository root (as EXPERIMENTS.md does) to land next to
    /// the checked-in reference results.
    pub fn finish(self) {
        if !self.json {
            return;
        }
        let doc = self.to_json();
        fs::create_dir_all("results").expect("create results/");
        let path = PathBuf::from("results").join(format!("BENCH_{}.json", self.name));
        let mut body = doc.render_pretty();
        body.push('\n');
        fs::write(&path, body).expect("write results JSON");
        println!("\nwrote {}", path.display());
    }
}

/// Validates one `BENCH_*.json` document against [`SCHEMA_VERSION`].
///
/// Returns a human-readable description of the first violation found.
pub fn validate(doc: &Json) -> Result<(), String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing numeric schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!("schema_version {version}, expected {SCHEMA_VERSION}"));
    }
    for key in ["name", "title"] {
        match doc.get(key).and_then(Json::as_str) {
            Some(s) if !s.is_empty() => {}
            _ => return Err(format!("missing non-empty string `{key}`")),
        }
    }
    doc.get("opts").and_then(Json::as_obj).ok_or("missing object `opts`")?;
    let tables = doc.get("tables").and_then(Json::as_arr).ok_or("missing array `tables`")?;
    if tables.is_empty() {
        return Err("`tables` is empty".to_string());
    }
    for (i, t) in tables.iter().enumerate() {
        let label = t
            .get("label")
            .and_then(Json::as_str)
            .ok_or(format!("tables[{i}]: missing string `label`"))?;
        let columns = t
            .get("columns")
            .and_then(Json::as_arr)
            .ok_or(format!("tables[{i}] ({label}): missing array `columns`"))?;
        if columns.is_empty() || columns.iter().any(|c| c.as_str().is_none()) {
            return Err(format!("tables[{i}] ({label}): `columns` must be non-empty strings"));
        }
        let rows = t
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or(format!("tables[{i}] ({label}): missing array `rows`"))?;
        for (j, row) in rows.iter().enumerate() {
            let cells =
                row.as_arr().ok_or(format!("tables[{i}] ({label}): rows[{j}] not an array"))?;
            if cells.len() != columns.len() {
                return Err(format!(
                    "tables[{i}] ({label}): rows[{j}] has {} cells, header has {}",
                    cells.len(),
                    columns.len()
                ));
            }
            if cells.iter().any(|c| c.as_str().is_none()) {
                return Err(format!("tables[{i}] ({label}): rows[{j}] has a non-string cell"));
            }
        }
    }
    let notes = doc.get("notes").and_then(Json::as_arr).ok_or("missing array `notes`")?;
    if notes.iter().any(|n| n.as_str().is_none()) {
        return Err("`notes` must contain only strings".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sink() -> Sink {
        let opts = BenchOpts::default();
        let mut sink = Sink::new("sample", "Sample title", &opts);
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        sink.tables.push(("main".to_string(), t));
        sink.notes.push("a note".to_string());
        sink
    }

    #[test]
    fn sink_document_validates() {
        let doc = sample_sink().to_json();
        validate(&doc).unwrap();
        // And survives a render → parse roundtrip.
        let reparsed = Json::parse(&doc.render_pretty()).unwrap();
        validate(&reparsed).unwrap();
    }

    #[test]
    fn validate_rejects_wrong_version() {
        let mut doc = sample_sink().to_json();
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::from(99u64);
        }
        assert!(validate(&doc).unwrap_err().contains("schema_version"));
    }

    #[test]
    fn validate_rejects_ragged_rows() {
        let doc = Json::parse(
            r#"{"schema_version":1,"name":"x","title":"t","opts":{},
                "tables":[{"label":"m","columns":["a","b"],"rows":[["only-one"]]}],
                "notes":[]}"#,
        )
        .unwrap();
        assert!(validate(&doc).unwrap_err().contains("cells"));
    }
}
