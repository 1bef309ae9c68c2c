//! The `run` and `aa` subcommands: every workload in its own child process,
//! all metrics printed by name, results written under `benchmark/out/`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::common::{nproc, out_dir, END_TO_END, PER_LAYER};
use crate::json::{self, Json};

/// Seconds per run in `--smoke` mode: enough to exercise every path, far
/// too short to quote (smoke numbers are never recorded anywhere).
const SMOKE_SECONDS: f64 = 3.0;

/// What `BENCHMARK.json` declares.
struct Declared {
    run_seconds: f64,
    workloads: Vec<String>,
    /// End-to-end metric -> (direction is "higher", bound).
    end_to_end: BTreeMap<String, (bool, f64)>,
    per_layer: Vec<String>,
}

fn declared() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect()
    };
    let end_to_end = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                (
                    m.get("better")?.as_str()? == "higher",
                    m.get("bound")?.as_f64()?,
                ),
            ))
        })
        .collect();
    Ok(Declared {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("run_seconds missing")?,
        workloads: names("workloads"),
        end_to_end,
        per_layer: names("per_layer"),
    })
}

/// The sibling binary with the counting allocator, if it was built.
fn traced_exe() -> PathBuf {
    let me = std::env::current_exe().expect("own path");
    let name = format!("sdnshield-benchmark-traced{}", std::env::consts::EXE_SUFFIX);
    let sibling = me.with_file_name(name);
    if sibling.exists() {
        sibling
    } else {
        me
    }
}

/// Runs one workload child and returns its parsed result line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = if trace {
        traced_exe()
    } else {
        std::env::current_exe().expect("own path")
    };
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output"))?;
    for l in lines {
        println!("{l}");
    }
    let result = json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    if !output.status.success() {
        println!("  {workload}: child exited with {}", output.status);
    }
    Ok(result)
}

fn metric_values(result: &Json) -> BTreeMap<String, f64> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

fn with_units(values: &BTreeMap<String, f64>, decl: &[(&str, &str)]) -> Json {
    Json::obj(values.iter().map(|(k, v)| {
        let unit = decl.iter().find(|(n, _)| n == k).map_or("", |(_, u)| *u);
        (
            k.clone(),
            Json::obj([
                ("value".to_owned(), Json::Num(*v)),
                ("unit".to_owned(), Json::Str(unit.to_owned())),
            ]),
        )
    }))
}

fn check_names(d: &Declared) -> Vec<String> {
    let mut problems = Vec::new();
    let mut compare = |what: &str, declared: Vec<&str>, built: Vec<&str>| {
        let (mut a, mut b) = (declared, built);
        a.sort_unstable();
        b.sort_unstable();
        if a != b {
            problems.push(format!(
                "{what}: BENCHMARK.json declares {a:?}, the harness reports {b:?}"
            ));
        }
    };
    compare(
        "end_to_end",
        d.end_to_end.keys().map(String::as_str).collect(),
        END_TO_END.iter().map(|(n, _)| *n).collect(),
    );
    compare(
        "per_layer",
        d.per_layer.iter().map(String::as_str).collect(),
        PER_LAYER.iter().map(|(n, _)| *n).collect(),
    );
    compare(
        "workloads",
        d.workloads.iter().map(String::as_str).collect(),
        crate::WORKLOADS.to_vec(),
    );
    problems
}

struct SetResult {
    /// workload -> metric -> value
    values: BTreeMap<String, BTreeMap<String, f64>>,
    ok: bool,
    doc: BTreeMap<String, Json>,
}

/// Runs every workload once, untraced (and traced when `traced`).
fn run_set(d: &Declared, seed: u64, seconds: f64, traced: bool) -> SetResult {
    let mut set = SetResult {
        values: BTreeMap::new(),
        ok: true,
        doc: BTreeMap::new(),
    };
    for w in &d.workloads {
        let mut entry = BTreeMap::new();
        match child(w, seed, seconds, false) {
            Ok(r) => {
                let correct = r.get("correct") == Some(&Json::Bool(true));
                set.ok &= correct;
                let values = metric_values(&r);
                entry.insert("end_to_end".to_owned(), with_units(&values, END_TO_END));
                for key in ["correct", "attempted", "failed"] {
                    entry.insert(key.to_owned(), r.get(key).cloned().unwrap_or(Json::Null));
                }
                set.values.insert(w.clone(), values);
            }
            Err(e) => {
                println!("  ERROR {e}");
                set.ok = false;
            }
        }
        if traced {
            match child(w, seed, seconds, true) {
                Ok(r) => {
                    set.ok &= r.get("correct") == Some(&Json::Bool(true));
                    entry.insert(
                        "per_layer".to_owned(),
                        with_units(&metric_values(&r), PER_LAYER),
                    );
                }
                Err(e) => {
                    println!("  ERROR {e}");
                    set.ok = false;
                }
            }
        }
        set.doc.insert(w.clone(), Json::Obj(entry));
    }
    set
}

fn header(d: &Declared, seed: u64, seconds: f64, smoke: bool) -> Vec<(String, Json)> {
    vec![
        ("nproc".to_owned(), Json::Num(nproc() as f64)),
        ("seed".to_owned(), Json::Num(seed as f64)),
        ("run_seconds".to_owned(), Json::Num(seconds)),
        ("declared_run_seconds".to_owned(), Json::Num(d.run_seconds)),
        ("smoke".to_owned(), Json::Bool(smoke)),
        (
            "journal_flush_policy".to_owned(),
            Json::Str("buffered write, no fsync (process-crash durability)".to_owned()),
        ),
        (
            "transport".to_owned(),
            Json::Str("TCP over the host loopback interface".to_owned()),
        ),
    ]
}

fn print_end_to_end(d: &Declared, set: &SetResult) {
    println!();
    println!("end-to-end metrics (tracing off), one column per workload:");
    print!("  {:<26}", "metric");
    for w in &d.workloads {
        print!(" {w:>14}");
    }
    println!();
    for (name, unit) in END_TO_END {
        print!("  {:<26}", format!("{name} [{unit}]"));
        for w in &d.workloads {
            match set.values.get(w).and_then(|m| m.get(*name)) {
                Some(v) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

/// `run`: the whole benchmark once. Returns the process exit code.
pub fn run(seed: u64, smoke: bool) -> i32 {
    let d = match declared() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let seconds = if smoke { SMOKE_SECONDS } else { d.run_seconds };
    let set = run_set(&d, seed, seconds, true);
    print_end_to_end(&d, &set);
    let problems = check_names(&d);
    for p in &problems {
        println!("NAME MISMATCH {p}");
    }
    let mut doc = header(&d, seed, seconds, smoke);
    doc.push(("workloads".to_owned(), Json::Obj(set.doc)));
    let path = out_dir().join("result.json");
    std::fs::write(&path, Json::obj(doc).render_pretty()).expect("write result.json");
    println!();
    println!("wrote {}", path.display());
    if set.ok && problems.is_empty() {
        println!("all correctness checks passed");
        0
    } else {
        println!("FAILED: a correctness check or the name check did not pass");
        1
    }
}

/// `aa`: the untraced set twice on the same binary; every (metric,
/// workload) pair must agree within the metric's own bound.
pub fn aa(seed: u64, smoke: bool) -> i32 {
    let d = match declared() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let seconds = if smoke { SMOKE_SECONDS } else { d.run_seconds };
    let a = run_set(&d, seed, seconds, false);
    let b = run_set(&d, seed, seconds, false);
    println!();
    println!("A/A: same binary, same seed, two sets of runs");
    println!(
        "  {:<14} {:<26} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut rows = Vec::new();
    let mut breaches = 0;
    for w in &d.workloads {
        for (name, (higher, bound)) in &d.end_to_end {
            let (Some(va), Some(vb)) = (
                a.values.get(w).and_then(|m| m.get(name)),
                b.values.get(w).and_then(|m| m.get(name)),
            ) else {
                continue;
            };
            // Positive = the second set reads worse than the first.
            let worse = if *va == 0.0 {
                0.0
            } else if *higher {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let breach = worse.abs() > *bound;
            breaches += usize::from(breach);
            println!(
                "  {w:<14} {name:<26} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.0}%{}",
                worse * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
            rows.push(Json::obj([
                ("workload".to_owned(), Json::Str(w.clone())),
                ("metric".to_owned(), Json::Str(name.clone())),
                ("a".to_owned(), Json::Num(*va)),
                ("b".to_owned(), Json::Num(*vb)),
                ("worse_by".to_owned(), Json::Num(worse)),
                ("bound".to_owned(), Json::Num(*bound)),
                ("breach".to_owned(), Json::Bool(breach)),
            ]));
        }
    }
    let mut doc = header(&d, seed, seconds, smoke);
    doc.push(("pairs".to_owned(), Json::Arr(rows)));
    doc.push(("breaches".to_owned(), Json::Num(breaches as f64)));
    let path = out_dir().join("aa.json");
    std::fs::write(&path, Json::obj(doc).render_pretty()).expect("write aa.json");
    println!("wrote {}", path.display());
    if breaches == 0 && a.ok && b.ok {
        println!("A/A agrees within every bound");
        0
    } else {
        println!("FAILED: {breaches} pair(s) outside their bound, or a run was incorrect");
        1
    }
}
