//! Seeded inputs, cached per (scale, seed) so repeated runs do not
//! regenerate them: the snapshot, the JOB statements as SQL text, a CSV
//! export, and reference answers.  Missing inputs are made by a child
//! process (`jobbench prepare`), so none of that work shows in a run's
//! set-up time or peak memory.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use qob_core::{BenchmarkContext, EstimatorKind, ServerContext, SessionOptions};
use qob_datagen::Scale;
use qob_storage::IndexConfig;

/// Where cached inputs live, relative to the checkout root.
pub const CACHE_DIR: &str = "jobbench/.cache";
/// Where runs write their scratch snapshots and trace files.
pub const OUT_DIR: &str = "jobbench/.out";
/// Cached datasets kept per scale; the least recently used beyond this are
/// removed.
const CACHE_KEEP: usize = 12;

/// How a set of reference answers is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answers {
    /// A plan chosen by a different estimator (DBMS C's magic constants),
    /// executed on one thread: independent of the plan and the parallel
    /// execution under test.
    DbmsCSingleThread,
    /// The in-process session answer with the default options: what the
    /// wire must return for the same snapshot.
    InProcess,
}

impl Answers {
    fn file(self) -> &'static str {
        match self {
            Answers::DbmsCSingleThread => "answers-dbmsc-t1.txt",
            Answers::InProcess => "answers-inprocess.txt",
        }
    }

    fn flag(self) -> &'static str {
        match self {
            Answers::DbmsCSingleThread => "dbmsc-t1",
            Answers::InProcess => "inprocess",
        }
    }

    fn parse(flag: &str) -> Option<Answers> {
        [Answers::DbmsCSingleThread, Answers::InProcess].into_iter().find(|a| a.flag() == flag)
    }
}

/// One JOB statement as SQL text, named by its `-- name:` annotation.
#[derive(Debug, Clone)]
pub struct Statement {
    /// JOB query name, e.g. `29a`.
    pub name: String,
    /// The statement text handed to the API or written to the socket.
    pub sql: String,
}

/// The cached inputs of one (scale, seed).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// `title` rows of the generated database.
    pub movies: usize,
    /// Datagen seed.
    pub seed: u64,
    dir: PathBuf,
}

impl Dataset {
    /// The dataset of `movies` movies generated with `seed`.
    pub fn new(movies: usize, seed: u64) -> Dataset {
        Dataset { movies, seed, dir: Path::new(CACHE_DIR).join(format!("m{movies}-s{seed}")) }
    }

    /// The snapshot file.
    pub fn snapshot(&self) -> PathBuf {
        self.dir.join("db.qob")
    }

    /// The CSV export directory.
    pub fn csv_dir(&self) -> PathBuf {
        self.dir.join("csv")
    }

    fn sql_file(&self) -> PathBuf {
        self.dir.join("job.sql")
    }

    fn answers_file(&self, answers: Answers) -> PathBuf {
        self.dir.join(answers.file())
    }

    /// Makes whatever of snapshot, SQL text, CSV export (`csv`) and
    /// reference answers is missing, in a child process.
    pub fn ensure(&self, csv: bool, answers: Option<Answers>) -> Result<(), String> {
        let ready = self.snapshot().exists()
            && self.sql_file().exists()
            && (!csv || self.csv_dir().exists())
            && answers.is_none_or(|a| self.answers_file(a).exists());
        if !ready {
            let exe =
                std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
            let mut cmd = Command::new(exe);
            cmd.args(["prepare", "--movies", &self.movies.to_string()]);
            cmd.args(["--seed", &self.seed.to_string()]);
            if csv {
                cmd.arg("--csv");
            }
            if let Some(a) = answers {
                cmd.args(["--answers", a.flag()]);
            }
            let status = cmd.status().map_err(|e| format!("cannot run prepare: {e}"))?;
            if !status.success() {
                return Err(format!("preparing {} failed ({status})", self.dir.display()));
            }
        }
        // The stamp's mtime orders datasets by last use for eviction.
        std::fs::write(self.dir.join("used"), b"").map_err(|e| e.to_string())?;
        evict(&self.dir, self.movies);
        Ok(())
    }

    /// The 113 JOB statements, in workload order.
    pub fn statements(&self) -> Result<Vec<Statement>, String> {
        let script = std::fs::read_to_string(self.sql_file()).map_err(|e| e.to_string())?;
        Ok(split(&script))
    }

    /// Reference answers (result rows) by statement name.
    pub fn answers(&self, answers: Answers) -> Result<HashMap<String, u64>, String> {
        let path = self.answers_file(answers);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        text.lines()
            .map(|line| {
                let (name, rows) = line.split_once(' ').ok_or("malformed answers line")?;
                Ok((name.to_owned(), rows.parse().map_err(|_| "malformed answer count")?))
            })
            .collect()
    }
}

/// Splits an emitted JOB script into named statements.
fn split(script: &str) -> Vec<Statement> {
    qob_workload::sql::split_statements(script)
        .into_iter()
        .map(|raw| Statement {
            sql: format!("-- name: {}\n{};", raw.name, raw.text),
            name: raw.name,
        })
        .collect()
}

/// The result rows of a one-statement `run_script`, if it answered.
pub fn answered_rows(
    outcome: &Result<Vec<qob_core::ScriptOutcome>, qob_core::SessionError>,
) -> Option<u64> {
    match outcome.as_ref().ok()?.as_slice() {
        [one] => Some(one.as_query()?.execution.as_ref()?.rows),
        _ => None,
    }
}

/// `jobbench prepare --movies N --seed S [--csv] [--answers KIND]`.
pub fn prepare_main(args: &[String]) -> Result<(), String> {
    let mut movies = None;
    let mut seed = None;
    let mut csv = false;
    let mut answers = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--movies" => movies = Some(value()?.parse().map_err(|_| "bad --movies")?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--csv" => csv = true,
            "--answers" => {
                answers = Some(Answers::parse(&value()?).ok_or("unknown --answers kind")?)
            }
            other => return Err(format!("unknown prepare flag `{other}`")),
        }
    }
    let ds = Dataset::new(movies.ok_or("--movies is required")?, seed.ok_or("--seed is required")?);
    std::fs::create_dir_all(&ds.dir).map_err(|e| e.to_string())?;

    let ctx = if ds.snapshot().exists() {
        BenchmarkContext::load_snapshot(ds.snapshot()).map_err(|e| e.to_string())?
    } else {
        eprintln!("jobbench: generating {} movies at seed {}", ds.movies, ds.seed);
        let scale = Scale::with_movies(ds.movies).with_seed(ds.seed);
        let ctx =
            BenchmarkContext::new(scale, IndexConfig::default()).map_err(|e| e.to_string())?;
        let tmp = ds.dir.join("db.qob.tmp");
        ctx.save_snapshot(&tmp).map_err(|e| e.to_string())?;
        std::fs::rename(&tmp, ds.snapshot()).map_err(|e| e.to_string())?;
        ctx
    };
    if !ds.sql_file().exists() {
        let script = qob_workload::emit_script(ctx.db(), ctx.queries());
        write_atomically(&ds.sql_file(), script.as_bytes())?;
    }
    if csv && !ds.csv_dir().exists() {
        let tmp = ds.dir.join("csv.tmp");
        let _ = std::fs::remove_dir_all(&tmp);
        ctx.export_csv_dir(&tmp).map_err(|e| e.to_string())?;
        std::fs::rename(&tmp, ds.csv_dir()).map_err(|e| e.to_string())?;
    }
    if let Some(kind) = answers.filter(|a| !ds.answers_file(*a).exists()) {
        eprintln!("jobbench: computing reference answers ({})", kind.flag());
        let out = reference_answers(ctx, kind, &ds.statements()?)?;
        write_atomically(&ds.answers_file(kind), out.as_bytes())?;
    }
    Ok(())
}

/// The `name rows` lines of one kind of reference answers.
fn reference_answers(
    ctx: BenchmarkContext,
    kind: Answers,
    statements: &[Statement],
) -> Result<String, String> {
    let options = match kind {
        Answers::DbmsCSingleThread => {
            SessionOptions { estimator: EstimatorKind::DbmsC, threads: 1, ..Default::default() }
        }
        Answers::InProcess => SessionOptions::default(),
    };
    let server = ServerContext::with_defaults(ctx, options);
    let mut session = server.session();
    let mut out = String::new();
    for st in statements {
        let rows = answered_rows(&session.run_script(&st.sql))
            .ok_or(format!("reference statement {} did not answer", st.name))?;
        out.push_str(&format!("{} {rows}\n", st.name));
    }
    Ok(out)
}

fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, path).map_err(|e| e.to_string())
}

/// Removes the least recently used datasets of the same scale beyond
/// [`CACHE_KEEP`], never the one in use.
fn evict(in_use: &Path, movies: usize) {
    let Ok(entries) = std::fs::read_dir(CACHE_DIR) else { return };
    let scale = format!("m{movies}-");
    let mut dirs: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.as_path() != in_use)
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with(&scale)))
        .map(|p| {
            let used = std::fs::metadata(p.join("used")).and_then(|m| m.modified());
            (used.unwrap_or(std::time::UNIX_EPOCH), p)
        })
        .collect();
    dirs.sort();
    let excess = (dirs.len() + 1).saturating_sub(CACHE_KEEP);
    for (_, dir) in dirs.into_iter().take(excess) {
        let _ = std::fs::remove_dir_all(dir);
    }
}
