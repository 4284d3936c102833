#!/usr/bin/env bash
# The CI entry point: everything a green checkmark promises, runnable
# verbatim on a developer's shell. .github/workflows/ci.yml only calls it.
#
#   1. dune build       — the whole tree, warnings-as-errors, in the release
#                         profile dune-workspace selects; first
#                         `dune printenv .` must show dev's strictness
#                         (-strict-sequence, -strict-formats, dev's
#                         warning-error set), which release's :standard
#                         would drop, and -inline 200;
#   2. dune runtest     — unit/property/golden suites, the CLI exit-code
#                         table (test/dune), plus the @lint alias
#                         (check_mli.sh hygiene gate, quicksand lint
#                         --fail-on error, conformance smoke);
#   3. quicksand lint --fail-on warning
#                       — the full rule registry on the Small scenario,
#                         no exclusions (the generator's orphan-transit
#                         adoption pass keeps QS104 clean);
#   4. quicksand check --suite conform
#                       — the streaming invariant checker over half a
#                         simulated day;
#   5. quicksand check --suite fuzz
#                       — the 200-seed mutation fuzz: MRT bit-flips and
#                         truncations must decode totally, injected
#                         table transfers must be caught by the reset
#                         filter while organic churn passes;
#   6. quicksand check --suite diff
#                       — configuration pairs that must render identical
#                         F3L/F3R/M1 on the Small scenario, including
#                         the reset filter on a reset-free stream;
#   7. quicksand check --suite static
#                       — the dynamic-vs-static soundness oracle across
#                         5 seeds;
#   8. quicksand check --suite delta
#                       — delta-vs-full propagation equivalence: byte-
#                         identical update streams and final tables
#                         with delta repair off vs on, and delta-backed
#                         F3L at jobs 1 vs 4; Small across 5 seeds, then
#                         Paper for 1 seed (~1 min), the one run where
#                         next-hop ids pass 8 bits and thousands of
#                         origins keep resident states;
#   9. quicksand check --suite churn
#                       — the trace-churn statistical harness across
#                         5 seeds: distribution shape (mean/median/KS),
#                         stream structure (monotonicity, D/U
#                         alternation, accounting), byte-identity across
#                         reruns and worker counts;
#  10. quicksand serve --replay --verify-batch
#                       — the streaming service over a seeded churn-heavy
#                         half day with injected hijacks: C1c alert set
#                         must equal the batch detector's exactly and the
#                         windowed cells must be bit-identical to
#                         Measurement.run's (exit 1 on any divergence);
#                         the --events file must hold one line per event
#                         the summary reports;
#  11. quicksand serve --mrt
#                       — the live service over a recorded feed: an hour of
#                         Small churn from mrt-dump must decode to one
#                         update per record, and exit 1 is accepted only
#                         if every listed violation is
#                         withdraw-before-announce (an update-only feed has
#                         no time-0 table to resolve withdrawals against);
#                         its first 1000 bytes must exit 2 as malformed;
#  12. quicksand sweep --matrix seeds-2x2
#                       — the tiny 2x2 matrix (two seeds x two churn
#                         models, quarter of a Small day). Every cell's
#                         summary.json must carry the qs-sweep/1 schema;
#  13. quicksand sweep --matrix churn-trace-day
#                       — the trace-shaped churn day;
#  14. quicksand sweep --matrix exposure-matrix
#                       — churn model x adversary fraction x guard
#                         policy over a Small day (18 cells): the one
#                         entry whose --out prints M1's and F3R's floats
#                         at full precision;
#  15. quicksand long-term --consensus live-hourly
#                       — M2 under a living consensus (Small, seed 1, 30
#                         days): the one CLI path where pool tasks on
#                         several domains build and share one consensus'
#                         epochs. Its raw stdout is compared: the pool
#                         reports timing only to the metrics registry.
#                       Stages 12-15 each run at jobs=1, jobs=4 and a
#                       jobs=1 rerun, and the three outputs must be
#                       byte-identical: fingerprints stable across reruns,
#                       results independent of the worker count;
#  16. bench/main.exe --scale small --no-micro
#                       — the reproduction harness: every table, figure
#                         and ablation section on the Small scenario
#                         (~5 s). Its output must end in its `done in`
#                         line;
#  17. dune build @qsbench/smoke
#                       — every benchmark workload at smoke size, one
#                         plain and one staged rep each, with every
#                         result-digest and accounting check and every
#                         metric BENCHMARK.json declares.
set -eu
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== dune printenv . (release profile, dev's checks, -inline 200)"
dune printenv . > "$tmp/env.txt"
for flag in -strict-sequence -strict-formats \
    @1..3@5..28@30..39@43@46..47@49..57@61..62-40 +8+26+27+32+33 -inline; do
  grep -qF -- "$flag" "$tmp/env.txt" \
    || { cat "$tmp/env.txt"; echo "dune printenv . lacks $flag"; exit 1; }
done

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== quicksand lint --fail-on warning (Small, seed 1)"
dune exec bin/quicksand.exe -- lint --scale small --seed 1 --fail-on warning

echo "== quicksand check --suite conform (Small, seed 1, half a day)"
dune exec bin/quicksand.exe -- check --suite conform --scale small --seed 1 \
  --days 0.5

echo "== quicksand check --suite fuzz (200 seeds)"
dune exec bin/quicksand.exe -- check --suite fuzz

echo "== quicksand check --suite diff (Small)"
dune exec bin/quicksand.exe -- check --suite diff --scale small

echo "== quicksand check --suite static (Small, 5 seeds)"
dune exec bin/quicksand.exe -- check --suite static --scale small

echo "== quicksand check --suite delta (Small, 5 seeds)"
dune exec bin/quicksand.exe -- check --suite delta --scale small

echo "== quicksand check --suite delta (Paper, 1 seed)"
dune exec bin/quicksand.exe -- check --suite delta --scale paper --seeds 1

echo "== quicksand check --suite churn (5 seeds)"
dune exec bin/quicksand.exe -- check --suite churn

echo "== quicksand serve --replay --verify-batch (Small, seed 1, half a day)"
dune exec bin/quicksand.exe -- serve --replay --verify-batch --scale small \
  --seed 1 --days 0.5 --attacks 4 --events "$tmp/serve.jsonl" \
  > "$tmp/serve.txt" || { cat "$tmp/serve.txt"; exit 1; }
cat "$tmp/serve.txt"
emitted=$(sed -n 's/^serve: .* \([0-9][0-9]*\) events, .*/\1/p' "$tmp/serve.txt")
written=$(wc -l < "$tmp/serve.jsonl")
[ -n "$emitted" ] && [ "$emitted" -eq "$written" ] \
  || { echo "serve wrote $written event lines, reported ${emitted:-no} events"; exit 1; }

echo "== quicksand serve --mrt (an hour of Small churn, then a truncated copy)"
dune exec bin/quicksand.exe -- mrt-dump --scale small --seed 1 --hours 1 \
  -o "$tmp/feed.mrt" > "$tmp/dump.txt"
records=$(sed -n 's/^wrote .*: \([0-9]*\) MRT records.*/\1/p' "$tmp/dump.txt")
rc=0
dune exec bin/quicksand.exe -- serve --mrt "$tmp/feed.mrt" > "$tmp/serve-mrt.txt" \
  || rc=$?
grep -qx "decoded $records updates from $tmp/feed.mrt" "$tmp/serve-mrt.txt" \
  || { echo "serve --mrt did not decode all $records records"; exit 1; }
listed=$(grep -c '^  \[' "$tmp/serve-mrt.txt" || true)
wba=$(grep -c '^  \[withdraw-before-announce\]' "$tmp/serve-mrt.txt" || true)
case $rc in
  0) ;;
  1) [ "$wba" -gt 0 ] && [ "$wba" = "$listed" ] \
       || { echo "serve --mrt exit 1 must list only withdraw-before-announce"; exit 1; } ;;
  *) echo "serve --mrt exited $rc"; exit 1 ;;
esac
head -c 1000 "$tmp/feed.mrt" > "$tmp/head.mrt"
rc=0
dune exec bin/quicksand.exe -- serve --mrt "$tmp/head.mrt" 2> "$tmp/head.err" \
  || rc=$?
[ "$rc" = 2 ] || { echo "serve --mrt on a truncated feed exited $rc, not 2"; exit 1; }

# [jobs_identical NAME CMD ARGS...] runs [CMD ARGS... JOBS OUT] at jobs 1, 4
# and 1 again, each writing OUT under $tmp; the three outputs (files or
# directories) must be byte-identical.
jobs_identical() {
  local name=$1
  shift
  "$@" 1 "$tmp/$name-j1"
  "$@" 4 "$tmp/$name-j4"
  "$@" 1 "$tmp/$name-j1-rerun"
  diff -r "$tmp/$name-j1" "$tmp/$name-j4"
  diff -r "$tmp/$name-j1" "$tmp/$name-j1-rerun"
}
sweep_to() {
  dune exec bin/quicksand.exe -- sweep --matrix "$1" --jobs "$2" --out "$3"
}
long_term_to() {
  dune exec bin/quicksand.exe -- long-term --scale small --seed 1 \
    --horizon 30 --consensus live-hourly --jobs "$1" > "$2"
}

echo "== quicksand sweep --matrix seeds-2x2 (jobs 1 vs 4 vs rerun)"
jobs_identical seeds sweep_to seeds-2x2
for cell_summary in "$tmp"/seeds-j1/cell-*/summary.json; do
  for key in '"schema": "qs-sweep/1"' '"fingerprint"' '"vars"' '"dynamics"' \
             '"f3l"' '"f3r"'; do
    grep -qF "$key" "$cell_summary" \
      || { echo "missing $key in $cell_summary"; exit 1; }
  done
done

echo "== quicksand sweep --matrix churn-trace-day (jobs 1 vs 4 vs rerun)"
jobs_identical trace sweep_to churn-trace-day

# The one registry entry whose --out prints M1's and F3R's floats at full
# precision.
echo "== quicksand sweep --matrix exposure-matrix (jobs 1 vs 4 vs rerun)"
jobs_identical exposure sweep_to exposure-matrix

echo "== quicksand long-term --consensus live-hourly (jobs 1 vs 4 vs rerun)"
jobs_identical long-term long_term_to
grep -q "never rotated, living" "$tmp/long-term-j1"

echo "== bench/main.exe --scale small --no-micro (the reproduction harness)"
dune exec bench/main.exe -- --scale small --no-micro > "$tmp/bench.txt"
cat "$tmp/bench.txt"
tail -n 1 "$tmp/bench.txt" | grep -q '^done in ' \
  || { echo "bench/main.exe did not reach its done line"; exit 1; }

echo "== dune build @qsbench/smoke (every benchmark workload, smoke size)"
dune build @qsbench/smoke

echo "CI OK"
