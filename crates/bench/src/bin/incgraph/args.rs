//! Plumbing shared by every subcommand: the one argument parser, the
//! usage error, the input loaders, and error mapping for the store and
//! for output paths.

use crate::{CliError, USAGE};
use incgraph_durable::DurableError;
use incgraph_graph::io::{read_graph, read_updates, IoError};
use incgraph_graph::{DynamicGraph, UpdateBatch};
use std::fs::File;
use std::io::Write;
use std::str::FromStr;

/// A usage error: what was missing or wrong (`need`), then the full
/// usage text.
pub(crate) fn usage(need: &str) -> CliError {
    CliError::Usage(format!("{need}\n{USAGE}"))
}

/// The arguments not yet consumed, as [`parse`] hands them to a
/// subcommand: a flag's match arm takes its value from here.
pub(crate) struct Rest<'a>(std::slice::Iter<'a, String>);

impl Rest<'_> {
    /// The next argument parsed as `T`; a missing or unparsable value is
    /// a usage error that says what the flag `need`s.
    pub(crate) fn value<T: FromStr>(&mut self, need: &str) -> Result<T, CliError> {
        self.value_if(need, |_| true)
    }

    /// [`value`](Self::value), also refusing a value that fails `ok`.
    pub(crate) fn value_if<T: FromStr>(
        &mut self,
        need: &str,
        ok: impl FnOnce(&T) -> bool,
    ) -> Result<T, CliError> {
        self.0
            .next()
            .and_then(|v| v.parse().ok())
            .filter(ok)
            .ok_or_else(|| usage(need))
    }

    /// The next argument as given: a path, an address or a name.
    pub(crate) fn path(&mut self, need: &str) -> Result<String, CliError> {
        self.value(need)
    }
}

/// Walks `argv` once, handing each argument, flag or positional, to
/// `arg` together with the arguments after it.
pub(crate) fn parse(
    argv: &[String],
    mut arg: impl FnMut(&str, &mut Rest) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let mut it = Rest(argv.iter());
    while let Some(a) = it.0.next() {
        arg(a, &mut it)?;
    }
    Ok(())
}

/// Reads the edge-list graph file at `path`.
pub(crate) fn read_graph_file(path: &str, directed: bool) -> Result<DynamicGraph, CliError> {
    read_file(path, |f| read_graph(f, directed))
}

/// Reads the update-stream file at `path`.
pub(crate) fn read_updates_file(path: &str) -> Result<UpdateBatch, CliError> {
    read_file(path, read_updates)
}

/// Opens `path` and parses it with `read`, splitting the failures into
/// the unreadable and the malformed exit classes.
fn read_file<T>(path: &str, read: impl FnOnce(File) -> Result<T, IoError>) -> Result<T, CliError> {
    File::open(path)
        .map_err(IoError::Io)
        .and_then(read)
        .map_err(|e| match e {
            IoError::Io(source) => CliError::FileUnreadable {
                path: path.to_string(),
                source,
            },
            IoError::Parse(source) => CliError::Parse {
                path: path.to_string(),
                source,
            },
        })
}

/// Wraps a durable-store failure, routing the cases with their own exit
/// codes (invalid ΔG → 5, injected crash → 6, lock held → 7) past the
/// generic 3.
pub(crate) fn durable_error(store: &str, e: DurableError) -> CliError {
    match e {
        DurableError::InvalidBatch(source) => CliError::InvalidUpdates {
            path: store.to_string(),
            source,
        },
        DurableError::InjectedCrash(p) => CliError::InjectedCrash(p),
        DurableError::StoreBusy { dir, pid } => CliError::StoreBusy { store: dir, pid },
        source => CliError::Durable {
            store: store.to_string(),
            source,
        },
    }
}

/// Maps an I/O failure on the output (or baseline) `path` to its exit
/// class.
pub(crate) fn output_error(path: &str) -> impl Fn(std::io::Error) -> CliError + '_ {
    move |source| CliError::Output {
        path: path.to_string(),
        source,
    }
}

/// Creates the parent directory of an output path on demand, so
/// `--out results/new/dir/f.txt` (and `--metrics`/`--trace`/bench
/// datapoints) never fail on a missing directory.
fn ensure_parent(path: &str) -> Result<(), CliError> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(output_error(path))?;
        }
    }
    Ok(())
}

/// Writes `contents` to `path`, creating its parent directory first.
pub(crate) fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    ensure_parent(path)?;
    std::fs::write(path, contents).map_err(output_error(path))
}

/// Writes one result row per line to `path`, or to stdout without one.
pub(crate) fn write_out(
    path: &Option<String>,
    lines: impl Iterator<Item = String>,
) -> Result<(), CliError> {
    match path {
        Some(p) => {
            ensure_parent(p)?;
            let f = File::create(p).map_err(output_error(p))?;
            write_lines(std::io::BufWriter::new(f), lines).map_err(output_error(p))
        }
        None => write_lines(std::io::BufWriter::new(std::io::stdout().lock()), lines)
            .map_err(output_error("<stdout>")),
    }
}

fn write_lines(mut w: impl Write, lines: impl Iterator<Item = String>) -> std::io::Result<()> {
    for l in lines {
        writeln!(w, "{l}")?;
    }
    w.flush()
}
