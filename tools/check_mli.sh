#!/usr/bin/env bash
# Static hygiene gate, run from the repo root (or its _build copy) by the
# @lint alias:
#   1. every library module lib/**/*.ml must have a matching .mli — the
#      interfaces are where invariants are documented, so an interface-less
#      module is an undocumented one;
#   2. forbidden patterns must not appear in shipped code (test/ may use
#      them): Obj.magic defeats the type system, bare Stdlib.compare is a
#      polymorphic-comparison trap (NaN-unsound on floats, depth-first on
#      variants), and `assert false` hides unreachable-state reasoning that
#      should be an explicit exception. In lib/net/ and lib/traffic/, the
#      packet simulator's per-event code, bare `min`/`max` are banned too:
#      they are the polymorphic Stdlib ones, which (without flambda) call
#      caml_lessequal and compare_val on every use; write Int.min,
#      Float.max and so on;
#   3. raw concurrency primitives (Domain.spawn, Thread.create) must not
#      appear outside lib/exec/ — every parallel sweep goes through
#      Qs_exec.Pool, which is where the determinism and per-domain
#      isolation guarantees live. Ad-hoc domains would bypass both;
#   4. raw timing primitives (Unix.gettimeofday, Sys.time) must not appear
#      outside lib/obs/ — every wall-clock read goes through Qs_obs.Clock,
#      so tests can freeze the clock and make timing fields reproducible;
#   5. the measurement feed is built in one place: the scenario's
#      "measurement" and "trace-churn" RNG streams must not appear outside
#      lib/core/measurement.ml — batch and serve both consume
#      Measurement.feed, and a second copy of its plumbing drifts. An
#      explicit reset-filter tick (Session_reset.advance) is banned there
#      too: every push already ticks the filter, so a call marks a
#      hand-rolled copy of the feed (the frozen qsbench is not scanned);
#   6. Stdlib Random must not appear outside lib/net/ (home of the seeded
#      SplitMix64 Qs_net.Rng) — Random.self_init is nondeterminism by
#      definition, and even seeded Stdlib.Random draws from global state
#      that any other caller can advance, so equal seeds would stop giving
#      equal scenarios;
#   7. a scenario's graph, addressing and consensus are set only by
#      Scenario.build: client_ases, tor_prefixes, world and indexed are
#      derived from them there, so a `{ s with Scenario.consensus = ... }`
#      record update anywhere else would leave those stale. (Consensus.t is
#      private, so its own derived pools need no such rule.) The same holds
#      for world and cell_template: the template is derived from the
#      world's time-0 tables, and a seed-only update must share both.
#   8. metrics are registered only in lib/obs/manifest.ml (the schema) and
#      lib/obs/metrics.ml (the registry): a Metrics.counter, .gauge or
#      .histogram call anywhere else in shipped code is a metric the schema
#      does not declare (test/ may register test.* names).
set -u
cd "$(dirname "$0")/.."

fail=0

# find, not a glob: covers every library at any depth (lib/check/ arrived
# after the original lib/*/*.ml pattern and new nesting should never dodge
# the gate silently).
while IFS= read -r ml; do
  if [ ! -f "${ml}i" ]; then
    echo "check_mli: $ml has no matching .mli" >&2
    fail=1
  fi
done < <(find lib -name '*.ml' -not -path '*/_build/*' | sort)

if grep -rn --include='*.ml' --include='*.mli' \
     -e 'Obj\.magic' -e 'Stdlib\.compare' -e 'assert false' \
     lib bin examples bench; then
  echo "check_mli: forbidden pattern (Obj.magic / Stdlib.compare / assert false)" >&2
  fail=1
fi

if grep -rnE --include='*.ml' \
     -e "(^|[^A-Za-z0-9_.'])(Stdlib\.)?(min|max)[[:space:]]+[^[:space:]=:;,)]" \
     lib/net lib/traffic; then
  echo "check_mli: polymorphic min/max in lib/net/ or lib/traffic/ (use Int.min, Float.max, ...)" >&2
  fail=1
fi

if grep -rn --include='*.ml' --include='*.mli' \
     -e 'Domain\.spawn' -e 'Thread\.create' \
     lib bin examples bench | grep -v '^lib/exec/'; then
  echo "check_mli: raw concurrency primitive outside lib/exec/ (use Qs_exec.Pool)" >&2
  fail=1
fi

if grep -rn --include='*.ml' --include='*.mli' \
     -e 'Unix\.gettimeofday' -e 'Sys\.time' \
     lib bin examples bench | grep -v '^lib/obs/'; then
  echo "check_mli: raw timing primitive outside lib/obs/ (use Qs_obs.Clock)" >&2
  fail=1
fi

# The stream-name pattern wants a named scenario argument, so a doc
# comment's [rng_for _ "trace-churn"] placeholder does not trip it.
if grep -rnE --include='*.ml' --include='*.mli' \
     -e 'Session_reset\.advance' \
     -e 'rng_for [a-z][A-Za-z0-9_.]* "(measurement|trace-churn)"' \
     lib bin examples bench | grep -v '^lib/core/measurement\.ml:'; then
  echo "check_mli: measurement feed plumbing outside lib/core/measurement.ml (use Measurement.feed)" >&2
  fail=1
fi

if grep -rn --include='*.ml' --include='*.mli' \
     -e 'Random\.self_init' -e 'Random\.make_self_init' \
     -e 'Random\.int\b' -e 'Random\.float\b' \
     lib bin examples bench | grep -v '^lib/net/'; then
  echo "check_mli: Stdlib Random outside lib/net/ (use the seeded Qs_net.Rng)" >&2
  fail=1
fi

if grep -rnE --include='*.ml' \
     -e 'with Scenario\.[^}]*\b(graph|addressing|consensus|world|cell_template) *=([^=]|$)' \
     lib bin examples bench test qsbench | grep -v '^lib/core/scenario\.ml:'; then
  echo "check_mli: record update of a Scenario field with derived data outside lib/core/scenario.ml (use Scenario.build)" >&2
  fail=1
fi

if grep -rnE --include='*.ml' \
     -e 'Metrics\.(counter|gauge|histogram)\b' \
     lib bin examples bench \
    | grep -vE '^lib/obs/(manifest|metrics)\.ml:'; then
  echo "check_mli: metric registered outside lib/obs/manifest.ml (declare it in Qs_obs.Manifest)" >&2
  fail=1
fi

exit $fail
