//! `trace <sub>`: record, read and compare flight-recorder traces.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use bfc_net::trace::{
    kind_index_of, read_trace, write_trace, FlightTrace, TraceFilter, TraceRecord,
};
use bfc_net::types::NodeId;
use bfc_sim::SimTime;

use super::args::{outln, parse_num};
use super::{runner_arg, write_file, Args, Io, RunOptions};

pub(super) fn cmd_trace(args: &[String], io: &mut Io<'_>) -> Result<ExitCode, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("trace: missing subcommand (record, inspect, filter, top, diff)".into());
    };
    match sub.as_str() {
        "record" => cmd_record(rest, io),
        "inspect" => cmd_inspect(rest, io),
        "filter" => cmd_filter(rest, io),
        "top" => cmd_top(rest, io),
        "diff" => cmd_diff(rest, io),
        other => Err(format!("trace: unknown subcommand `{other}`")),
    }
}

fn cmd_diff(args: &[String], io: &mut Io<'_>) -> Result<ExitCode, String> {
    let mut args = Args::new("trace diff", args);
    let context = args.num("context", 5usize)?;
    let [path_a, path_b] = args.positional::<2>("two flight paths are")?;
    let (label_a, flight_a) = open_flight(&path_a)?;
    let (label_b, flight_b) = open_flight(&path_b)?;
    Ok(print_trace_diff(
        io,
        (&path_a, &label_a, &flight_a),
        (&path_b, &label_b, &flight_b),
        context,
    ))
}

/// Renders the divergence report between two canonical traces, each given as
/// `(name, run label, trace)`. Identical traces print nothing and return
/// success; otherwise the first diverging record (with up to `context`
/// records of common prefix before it) and the per-kind / per-(switch, port)
/// summaries of the divergent tails are printed, and the exit code is
/// failure — "the traces differ" is the command's result, not an error.
pub(super) fn print_trace_diff(
    io: &mut Io<'_>,
    (name_a, label_a, flight_a): (&str, &str, &FlightTrace),
    (name_b, label_b, flight_b): (&str, &str, &FlightTrace),
    context: usize,
) -> ExitCode {
    let Some(diff) = flight_a.diff(flight_b) else {
        return ExitCode::SUCCESS;
    };
    outln!(
        io,
        "a: {name_a} — {} records [{label_a}]",
        flight_a.records.len()
    );
    outln!(
        io,
        "b: {name_b} — {} records [{label_b}]",
        flight_b.records.len()
    );
    outln!(io, "\nfirst divergence at canonical record {}:", diff.index);
    let start = diff.index.saturating_sub(context);
    if start < diff.index {
        outln!(io, "  (common prefix, last {} records)", diff.index - start);
        for (i, r) in flight_a
            .records
            .iter()
            .enumerate()
            .take(diff.index)
            .skip(start)
        {
            outln!(io, "  = {}", record_line(i, r));
        }
    }
    for (side, first) in [("a", &diff.first_a), ("b", &diff.first_b)] {
        match first {
            Some(r) => outln!(io, "  {side} {}", record_line(diff.index, r)),
            None => outln!(io, "  {side} (trace ends here)"),
        }
    }
    outln!(
        io,
        "\ndivergent tails: {} records in a, {} in b",
        diff.tail_a,
        diff.tail_b
    );
    let time_or_dash = |t: Option<SimTime>| t.map_or("-".to_string(), |t| t.to_string());
    if !diff.kinds.is_empty() {
        outln!(
            io,
            "\n{:<14} {:>9} {:>9}  {:<14} {}",
            "kind",
            "a",
            "b",
            "first-a",
            "first-b"
        );
        for k in &diff.kinds {
            outln!(
                io,
                "{:<14} {:>9} {:>9}  {:<14} {}",
                k.kind,
                k.count_a,
                k.count_b,
                time_or_dash(k.first_a),
                time_or_dash(k.first_b),
            );
        }
    }
    if !diff.ports.is_empty() {
        outln!(
            io,
            "\n{:<8} {:<6} {:>9} {:>9}  {:<14} {}",
            "switch",
            "port",
            "a",
            "b",
            "pause-a",
            "pause-b"
        );
        for p in &diff.ports {
            outln!(
                io,
                "{:<8} {:<6} {:>9} {:>9}  {:<14} {}",
                format!("sw{}", p.node.0),
                p.port,
                p.count_a,
                p.count_b,
                p.pause_a.to_string(),
                p.pause_b,
            );
        }
    }
    ExitCode::FAILURE
}

fn cmd_record(args: &[String], io: &mut Io<'_>) -> Result<ExitCode, String> {
    let mut args = Args::new("trace record", args);
    let runner = runner_arg(&mut args)?;
    let opts = RunOptions::from_args(&mut args)?;
    let out: String = args.required("out", "flight")?;
    let last = args.positive("last", 65_536)?;
    let kinds: Vec<String> = args.all("kind")?;
    let nodes = args
        .all("node")?
        .iter()
        .flat_map(|list| list.split(','))
        .map(|n| parse_num("node", n).map(NodeId))
        .collect::<Result<Vec<_>, _>>()?;
    let [path] = args.positional::<1>("one trace CSV path is")?;

    let replay = opts.load_trace("trace record", &path)?;
    let mut config = opts.config(replay.horizon())?.with_trace_capacity(last);
    // Record-time filter: an event it rejects never enters the ring.
    let kinds = kinds
        .iter()
        .flat_map(|list| list.split(','))
        .map(|k| kind_index_of(k).ok_or_else(|| format!("--kind: unknown event kind {k}")))
        .collect::<Result<Vec<_>, _>>()?;
    if !kinds.is_empty() || !nodes.is_empty() {
        let mut filter = TraceFilter::all();
        if !kinds.is_empty() {
            filter = filter.with_kinds(kinds);
        }
        if !nodes.is_empty() {
            filter = filter.with_nodes(nodes);
        }
        config = config.with_trace_filter(filter);
    }
    let result = runner.run_experiment(&opts.topo, replay.flows(), &config);
    let flight = result.flight.expect("tracing was enabled for this run");
    let label = format!(
        "replay {path} scheme {} seed {}",
        config.scheme.name(),
        opts.seed
    );
    let blob = write_trace(&label, &flight);
    write_file(&out, &blob)?;
    outln!(
        io,
        "recorded {} trace events ({} shed by the ring of {last}) from {} flows over `{}` -> {out} ({} bytes)",
        flight.records.len(),
        flight.dropped,
        replay.flows().len(),
        opts.topo_name,
        blob.len(),
    );
    Ok(ExitCode::SUCCESS)
}

/// Opens a flight-trace container, mapping errors to CLI diagnostics.
fn open_flight(path: &str) -> Result<(String, FlightTrace), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    read_trace(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// One rendered record line: the record's index in its trace, simulated
/// time, one-line event text.
fn record_line(index: usize, r: &TraceRecord) -> String {
    format!("{index:>8}  {:<14} {}", r.at.to_string(), r.event.render())
}

fn cmd_inspect(args: &[String], io: &mut Io<'_>) -> Result<ExitCode, String> {
    let mut args = Args::new("trace inspect", args);
    let stats = args.switch("stats");
    let limit = args.num("limit", 40usize)?;
    let [path] = args.positional::<1>("one flight path is")?;
    let (label, flight) = open_flight(&path)?;

    outln!(io, "label:   {label}");
    outln!(
        io,
        "records: {} held, {} shed by the ring before them",
        flight.records.len(),
        flight.dropped
    );
    let mut by_kind: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &flight.records {
        *by_kind.entry(r.event.kind()).or_insert(0) += 1;
    }
    for (kind, count) in &by_kind {
        outln!(io, "  {kind:<14} {count}");
    }
    if stats || flight.records.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    let skip = flight.records.len().saturating_sub(limit);
    if skip > 0 {
        outln!(
            io,
            "\nlast {limit} records ({skip} earlier records not shown; --limit raises):"
        );
    } else {
        outln!(io, "\nrecords:");
    }
    for (i, r) in flight.records.iter().enumerate().skip(skip) {
        outln!(io, "{}", record_line(i, r));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_filter(args: &[String], io: &mut Io<'_>) -> Result<ExitCode, String> {
    let mut args = Args::new("trace filter", args);
    let kind = args.text("kind")?;
    let node = args
        .text("node")?
        .map(|n| parse_num("node", &n).map(NodeId))
        .transpose()?;
    let limit = args.num("limit", 1_000usize)?;
    let [path] = args.positional::<1>("one flight path is")?;
    if kind.is_none() && node.is_none() {
        return Err("trace filter: at least one of --kind or --node is required".into());
    }
    let (_, flight) = open_flight(&path)?;

    let matches: Vec<_> = flight
        .records
        .iter()
        .enumerate()
        .filter(|(_, r)| kind.as_deref().map_or(true, |k| r.event.kind() == k))
        .filter(|(_, r)| node.map_or(true, |n| r.event.node() == Some(n)))
        .collect();
    let skip = matches.len().saturating_sub(limit);
    outln!(
        io,
        "{} of {} records match{}",
        matches.len(),
        flight.records.len(),
        if skip > 0 {
            format!(" (showing the last {limit}; --limit raises)")
        } else {
            String::new()
        }
    );
    for &(i, r) in &matches[skip..] {
        outln!(io, "{}", record_line(i, r));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_top(args: &[String], io: &mut Io<'_>) -> Result<ExitCode, String> {
    let mut args = Args::new("trace top", args);
    let tree = args.switch("tree");
    let n = args.num("n", 10usize)?;
    let [path] = args.positional::<1>("one flight path is")?;
    let (_, flight) = open_flight(&path)?;

    if tree {
        print_pause_tree(io, &flight);
        return Ok(ExitCode::SUCCESS);
    }
    let end = flight.records.last().map_or(SimTime::ZERO, |r| r.at);
    let top = flight.pause_time_by_port(end);
    if top.is_empty() {
        outln!(io, "no PFC pause intervals in this trace");
        return Ok(ExitCode::SUCCESS);
    }
    outln!(
        io,
        "top {} queues by PFC pause-time (open intervals closed at {end}):",
        n.min(top.len())
    );
    outln!(io, "{:<8} {:<6} {}", "switch", "port", "paused");
    for ((node, port), paused) in top.iter().take(n) {
        outln!(io, "{:<8} {:<6} {}", format!("sw{}", node.0), port, paused);
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders the pause-propagation forest from the trace's PFC wait-for
/// edges: an edge `src -> node` means a frame from `src` paused `node`'s
/// egress toward it, i.e. backpressure propagated from `src` upstream to
/// `node`. Roots are pause origins (never themselves paused); a back edge
/// to an ancestor is marked as a cycle — the signature of PFC deadlock.
fn print_pause_tree(io: &mut Io<'_>, flight: &FlightTrace) {
    let mut children: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut paused: BTreeSet<u32> = BTreeSet::new();
    for (_, node, src, pause) in flight.pause_edges() {
        if pause {
            children.entry(src.0).or_default().insert(node.0);
            paused.insert(node.0);
        }
    }
    if children.is_empty() {
        outln!(io, "no PFC pause (XOFF) deliveries in this trace");
        return;
    }
    fn walk(
        io: &mut Io<'_>,
        node: u32,
        children: &BTreeMap<u32, BTreeSet<u32>>,
        path: &mut Vec<u32>,
        seen: &mut BTreeSet<u32>,
    ) {
        outln!(io, "{}sw{node}", "  ".repeat(path.len()));
        seen.insert(node);
        path.push(node);
        for &kid in children.get(&node).into_iter().flatten() {
            if path.contains(&kid) {
                outln!(
                    io,
                    "{}sw{kid} ^ cycle back into the chain",
                    "  ".repeat(path.len())
                );
                seen.insert(kid);
            } else {
                walk(io, kid, children, path, seen);
            }
        }
        path.pop();
    }
    outln!(io, "pause propagation (roots are pause origins):");
    let mut seen = BTreeSet::new();
    for root in children.keys().filter(|k| !paused.contains(k)) {
        walk(io, *root, &children, &mut Vec::new(), &mut seen);
    }
    // Components with no pure origin are wait-for cycles — the deadlock
    // signature — and are unreachable from any root, so walk them too,
    // entering each at its smallest unvisited pauser.
    while let Some(&entry) = children.keys().find(|k| !seen.contains(k)) {
        outln!(io, "(cyclic component, no pure origin:)");
        walk(io, entry, &children, &mut Vec::new(), &mut seen);
    }
}
