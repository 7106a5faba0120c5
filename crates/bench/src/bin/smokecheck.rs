//! CI assertion helper for the persistent cjit artifact cache: given the
//! `--metrics-json` documents of two consecutive `figure9 --smoke` runs,
//! verify that the second run was served from the on-disk cache.
//!
//! `smokecheck <first.json> <second.json>`
//!
//! Checks (on the `Snowflake/cjit` row of each document):
//!
//! * the second run's `cache.disk_hits` is positive — the artifacts
//!   persisted by the first process were found and dlopened;
//! * when the first run was cold (`cache.disk_misses > 0`), the second
//!   run's `compile_seconds` decreased — dlopening a cached `.so` must be
//!   cheaper than invoking the C compiler.
//!
//! Exits 0 with a "skipped" note when neither document has a cjit row
//! (no C compiler in the environment), 1 on assertion failure, 2 on
//! usage/parse errors — so CI can run it unconditionally.
//!
//! With `--verify`, additionally refuses (exit 1) unless every Snowflake
//! row in both documents carries a `verify` certificate block proving the
//! plan was statically checked: `stencils_checked > 0` and
//! `witnesses == 0`. Pair with `figure9 --smoke --verify --metrics-json`
//! so uncertified plans cannot slip through CI.
//!
//! With `--lint`, additionally refuses (exit 1) unless every Snowflake
//! row in both documents carries a `lint` counters block proving the plan
//! was semantically linted clean: `rules_run > 0` and `lints == 0`. Pair
//! with `figure9 --smoke --lint --metrics-json` so unlinted (or
//! warning-carrying) plans cannot slip through CI.
//!
//! With `--tune`, the documents are instead two consecutive
//! `figure9 --smoke --backend omp --tune` runs sharing one
//! `SNOWFLAKE_CACHE_DIR`: the checks switch to the omp row's `tune` and
//! `spec` blocks — the cold run must time candidates and persist
//! decisions (`disk_misses > 0`), the warm run must be served entirely
//! from the on-disk tuner cache (`disk_hits > 0`, `disk_misses == 0`),
//! and both runs must keep the kernel specializer engaged on at least
//! one smoother kernel (`spec.kernels_specialized > 0`).

use snowflake_backends::metrics::json;
use snowflake_bench::arg_flag;

/// One implementation row of a metrics document.
struct Row {
    /// The row's `impl` label, e.g. `Snowflake/cjit`.
    implementation: String,
    /// The row's `report` object, when it has one.
    report: Option<json::Value>,
}

impl Row {
    /// `report.<keys…>`, converted by `as_num` (e.g.
    /// [`json::Value::as_u64`]). Errors name the document, the row and
    /// the missing report, block or key.
    fn field<T>(
        &self,
        path: &str,
        keys: &[&str],
        as_num: fn(&json::Value) -> Option<T>,
    ) -> Result<T, String> {
        let who = &self.implementation;
        let mut value = self
            .report
            .as_ref()
            .ok_or_else(|| format!("{path}: {who} row has no report"))?;
        let (key, blocks) = keys.split_last().expect("at least one key");
        for block in blocks {
            value = value
                .get(block)
                .ok_or_else(|| format!("{path}: {who} report has no {block} block"))?;
        }
        value
            .get(key)
            .and_then(as_num)
            .ok_or_else(|| format!("{path}: {who} report missing {}", keys.join(".")))
    }

    /// A Snowflake plan row with a report (the hand baseline has no plan).
    fn is_plan(&self) -> bool {
        self.implementation.starts_with("Snowflake/") && self.report.is_some()
    }
}

/// Read and parse a metrics document into its labelled rows.
fn read_rows(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let rows = doc
        .get("rows")
        .and_then(|r| r.as_array())
        .ok_or_else(|| format!("{path}: no \"rows\" array"))?;
    Ok(rows
        .iter()
        .filter_map(|row| {
            Some(Row {
                implementation: row.get("impl")?.as_str()?.to_string(),
                report: row.get("report").cloned(),
            })
        })
        .collect())
}

/// The first row labelled `implementation`.
fn find_row(path: &str, implementation: &str) -> Result<Option<Row>, String> {
    Ok(read_rows(path)?
        .into_iter()
        .find(|r| r.implementation == implementation))
}

/// Read or exit 2: a document that cannot be read is a usage error.
fn or_exit<T>(read: Result<T, String>) -> T {
    read.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The cjit row's report facts a check needs.
struct CjitFacts {
    disk_hits: u64,
    disk_misses: u64,
    compile_seconds: f64,
}

fn cjit_facts(path: &str) -> Result<Option<CjitFacts>, String> {
    let Some(row) = find_row(path, "Snowflake/cjit")? else {
        return Ok(None);
    };
    let count = |block, key| row.field(path, &[block, key], json::Value::as_u64);
    Ok(Some(CjitFacts {
        disk_hits: count("cache", "disk_hits")?,
        disk_misses: count("cache", "disk_misses")?,
        compile_seconds: row.field(path, &["compile_seconds"], json::Value::as_f64)?,
    }))
}

/// The omp row's specializer + tuner facts for the `--tune` assertions.
struct TuneFacts {
    kernels_specialized: u64,
    tune_disk_hits: u64,
    tune_disk_misses: u64,
    candidates_timed: u64,
}

fn tune_facts(path: &str) -> Result<TuneFacts, String> {
    let row =
        find_row(path, "Snowflake/omp")?.ok_or_else(|| format!("{path}: no Snowflake/omp row"))?;
    let count = |block, key| row.field(path, &[block, key], json::Value::as_u64);
    Ok(TuneFacts {
        kernels_specialized: count("spec", "kernels_specialized")?,
        tune_disk_hits: count("tune", "disk_hits")?,
        tune_disk_misses: count("tune", "disk_misses")?,
        candidates_timed: count("tune", "candidates_timed")?,
    })
}

/// The `--tune` check: cold run populates the tuner cache, warm run is
/// served from it, the specializer stays engaged in both.
fn check_tune(first_path: &str, second_path: &str) -> ! {
    let (first, second) = (
        or_exit(tune_facts(first_path)),
        or_exit(tune_facts(second_path)),
    );
    let mut failed = false;
    if first.tune_disk_misses == 0 || first.candidates_timed == 0 {
        eprintln!(
            "FAIL: cold run did not tune (misses {}, candidates {})",
            first.tune_disk_misses, first.candidates_timed
        );
        failed = true;
    }
    if second.tune_disk_hits == 0 || second.tune_disk_misses > 0 {
        eprintln!(
            "FAIL: warm run was not served from the tuner cache \
             (hits {}, misses {})",
            second.tune_disk_hits, second.tune_disk_misses
        );
        failed = true;
    }
    for (label, facts) in [("cold", &first), ("warm", &second)] {
        if facts.kernels_specialized == 0 {
            eprintln!("FAIL: {label} run has no specialized kernels");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "smokecheck: ok — cold (tune misses {}, {} candidates timed), \
         warm (tune hits {}, misses {}), spec kernels {}/{}",
        first.tune_disk_misses,
        first.candidates_timed,
        second.tune_disk_hits,
        second.tune_disk_misses,
        first.kernels_specialized,
        second.kernels_specialized
    );
    std::process::exit(0);
}

/// A per-row analysis gate (`--verify`, `--lint`): every Snowflake plan
/// row's `report.<block>` must show the analysis ran (`ran > 0`) and found
/// nothing (`found == 0`). A plan row *without* the block is itself a
/// failure: the run was not analysed.
struct Gate {
    block: &'static str,
    ran: &'static str,
    found: &'static str,
    /// "no {done} Snowflake rows to check".
    done: &'static str,
    /// "{n} Snowflake row(s) {clean}".
    clean: &'static str,
    /// "{impl} {not_run}".
    not_run: &'static str,
    /// "{impl} {findings.0}{n}{findings.1}".
    findings: (&'static str, &'static str),
}

const VERIFY: Gate = Gate {
    block: "verify",
    ran: "stencils_checked",
    found: "witnesses",
    done: "certified",
    clean: "certified",
    not_run: "ran with an uncertified plan (0 stencils checked)",
    findings: ("certificate records ", " witness(es)"),
};

const LINT: Gate = Gate {
    block: "lint",
    ran: "rules_run",
    found: "lints",
    done: "linted",
    clean: "linted clean",
    not_run: "ran with an unlinted plan (0 rules run)",
    findings: ("plan carries ", " lint finding(s)"),
};

/// Run `gate` over both documents; returns whether any check failed (a
/// document that cannot be read fails with exit 1).
fn check_gate(gate: &Gate, paths: [&str; 2], mut failed: bool) -> bool {
    for path in paths {
        let facts: Vec<(String, u64, u64)> = read_rows(path)
            .and_then(|rows| {
                let plans = rows.into_iter().filter(Row::is_plan);
                plans
                    .map(|row| {
                        let count = |key| row.field(path, &[gate.block, key], json::Value::as_u64);
                        Ok((
                            row.implementation.clone(),
                            count(gate.ran)?,
                            count(gate.found)?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_else(|e| {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            });
        if facts.is_empty() {
            eprintln!("FAIL: {path}: no {} Snowflake rows to check", gate.done);
            failed = true;
        }
        for (implementation, ran, found) in &facts {
            if *ran == 0 {
                eprintln!("FAIL: {path}: {implementation} {}", gate.not_run);
                failed = true;
            }
            if *found > 0 {
                let (before, after) = gate.findings;
                eprintln!("FAIL: {path}: {implementation} {before}{found}{after}");
                failed = true;
            }
        }
        if !failed {
            println!(
                "smokecheck: {path}: {} Snowflake row(s) {}",
                facts.len(),
                gate.clean
            );
        }
    }
    failed
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check_verify = arg_flag(&args, "--verify");
    let check_lint = arg_flag(&args, "--lint");
    let tune_mode = arg_flag(&args, "--tune");
    let paths: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
    let [first_path, second_path] = match paths.as_slice() {
        [a, b] => [(*a).clone(), (*b).clone()],
        _ => {
            eprintln!("usage: smokecheck [--verify|--lint|--tune] <first.json> <second.json>");
            std::process::exit(2);
        }
    };
    if tune_mode {
        check_tune(&first_path, &second_path);
    }
    let (Some(first), Some(second)) = (
        or_exit(cjit_facts(&first_path)),
        or_exit(cjit_facts(&second_path)),
    ) else {
        println!("smokecheck: no cjit rows (no C compiler?) — skipped");
        return;
    };

    let mut failed = false;
    let paths = [first_path.as_str(), second_path.as_str()];
    if check_verify {
        failed = check_gate(&VERIFY, paths, failed);
    }
    if check_lint {
        failed = check_gate(&LINT, paths, failed);
    }
    if second.disk_hits == 0 {
        eprintln!(
            "FAIL: second run had no disk-cache hits \
             (hits {}, misses {})",
            second.disk_hits, second.disk_misses
        );
        failed = true;
    }
    if first.disk_misses > 0 && second.compile_seconds >= first.compile_seconds {
        eprintln!(
            "FAIL: cached plan build was not faster: compile_seconds \
             {:.4} (cold) -> {:.4} (warm)",
            first.compile_seconds, second.compile_seconds
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "smokecheck: ok — cold (hits {}, misses {}, compile {:.4}s), \
         warm (hits {}, misses {}, compile {:.4}s)",
        first.disk_hits,
        first.disk_misses,
        first.compile_seconds,
        second.disk_hits,
        second.disk_misses,
        second.compile_seconds
    );
}
