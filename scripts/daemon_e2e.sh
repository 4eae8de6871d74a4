#!/usr/bin/env bash
# End-to-end exercise of the search daemon (`oasis serve` + `oasis
# client`), as run by the daemon-e2e CI job. Asserts:
#
#   - concurrent clients receive hit streams bit-identical to the
#     offline `oasis search` CLI on the same fixture database;
#   - a budget-capped query streams a prefix and reports the typed
#     budget-exhausted outcome;
#   - a mid-stream disconnect aborts one request without harming the
#     daemon;
#   - the stats verb reports SLO counters and latency quantiles;
#   - a saturated daemon (workers=1, queue-depth=0) answers with a
#     typed overload reject (client exit 3), not a hang;
#   - shutdown drains, exits 0, and unlinks the socket (leak check).
#
# Usage: daemon_e2e.sh [path-to-oasis_cli.exe]
# Runs in a private temp dir; any daemon crash or leaked socket fails.
set -euo pipefail

CLI=$(readlink -f "${1:-_build/default/bin/oasis_cli.exe}")
[ -x "$CLI" ] || { echo "daemon-e2e: CLI not found at $CLI" >&2; exit 1; }

WORK=$(mktemp -d)
SOCK="$WORK/oasis.sock"
SOCK2="$WORK/oasis2.sock"
DAEMON_PID=""
DAEMON2_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  [ -n "$DAEMON2_PID" ] && kill "$DAEMON2_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT
cd "$WORK"

fail() { echo "daemon-e2e: FAIL: $*" >&2; exit 1; }
alive() { kill -0 "$1" 2>/dev/null; }

wait_ready() { # socket path
  for _ in $(seq 1 100); do
    if "$CLI" client ping --socket "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  return 1
}

echo "== fixture"
"$CLI" generate --kind protein --symbols 30000 --seed 11 -o db.fa

# Queries sampled from the database itself: guaranteed strong local
# alignments, so every stream is non-empty and deterministic.
mapfile -t LINES < <(grep -v '^>' db.fa | awk 'length($0) >= 40' | head -6)
[ "${#LINES[@]}" -ge 5 ] || fail "fixture has too few usable sequences"
QUERIES=()
for i in 0 1 2 3; do QUERIES+=("${LINES[$i]:$((i * 3)):24}"); done
DISC_QUERY="${LINES[4]:0:16}"

echo "== offline references (oasis search)"
for i in 0 1 2 3; do
  "$CLI" search --db db.fa -q "${QUERIES[$i]}" --min-score 60 \
    | grep -E '^ *[0-9]+\.' > "search_$i.out" || true
  [ -s "search_$i.out" ] || fail "reference query $i produced no hits"
done
# The disconnect query runs at a loose threshold so it has >= 2 hits to
# cut between.
"$CLI" search --db db.fa -q "$DISC_QUERY" --min-score 25 \
  | grep -E '^ *[0-9]+\.' > search_disc.out || true
[ "$(wc -l < search_disc.out)" -ge 2 ] || fail "disconnect query needs >= 2 hits"

echo "== start daemon"
"$CLI" serve --db db.fa --socket "$SOCK" --workers 4 --queue-depth 8 \
  --allow-sleep > daemon.log 2>&1 &
DAEMON_PID=$!
wait_ready "$SOCK" || { cat daemon.log >&2; fail "daemon did not come up"; }

echo "== 4 concurrent clients vs offline search (bit-identical streams)"
CPIDS=()
for i in 0 1 2 3; do
  "$CLI" client search --socket "$SOCK" --query "${QUERIES[$i]}" \
    --min-score 60 > "client_$i.out" &
  CPIDS+=($!)
done
for pid in "${CPIDS[@]}"; do wait "$pid" || fail "concurrent client exited non-zero"; done
for i in 0 1 2 3; do
  diff -u "search_$i.out" "client_$i.out" \
    || fail "client $i stream differs from oasis search"
done
echo "   all 4 streams identical"

echo "== budget-exhausted query (typed outcome, prefix stream)"
"$CLI" client search --socket "$SOCK" --query "$DISC_QUERY" \
  --min-score 25 --max-columns 256 > budget.out
grep -q '^# budget exhausted: unreported hits score <= ' budget.out \
  || { cat budget.out >&2; fail "no budget-exhausted report"; }
# Online property: whatever was streamed before the budget ran out must
# be a non-empty prefix of the full stream.
grep -E '^ *[0-9]+\.' budget.out > budget_hits.out || true
[ -s budget_hits.out ] || fail "budget query streamed no hits before exhausting"
head -n "$(wc -l < budget_hits.out)" search_disc.out > budget_ref.out
diff -u budget_ref.out budget_hits.out \
  || fail "budget-capped stream is not a prefix of the full stream"
echo "   $(wc -l < budget_hits.out) hits streamed before budget, typed outcome reported"

echo "== mid-stream disconnect (daemon must survive)"
"$CLI" client search --socket "$SOCK" --query "$DISC_QUERY" \
  --min-score 25 --disconnect-after 1 > disc.out
grep -q '^# disconnected after 1 hits' disc.out \
  || { cat disc.out >&2; fail "client did not cut after 1 hit"; }
diff -u <(head -1 search_disc.out) <(grep -E '^ *[0-9]+\.' disc.out) \
  || fail "pre-disconnect hit differs from oasis search"
alive "$DAEMON_PID" || fail "daemon died after client disconnect"
"$CLI" client ping --socket "$SOCK" >/dev/null || fail "daemon unresponsive after disconnect"

echo "== stats verb (SLO counters + latency quantiles)"
"$CLI" client stats --socket "$SOCK" > stats.out
cat stats.out
for key in serve.accepted serve.completed serve.latency_us_p50 \
           serve.latency_us_p99 serve.queue_wait_us_p50; do
  grep -q "$key" stats.out || fail "stats output missing $key"
done
COMPLETED=$(awk '$1 == "serve.completed" { print $2 }' stats.out)
[ "${COMPLETED:-0}" -ge 5 ] || fail "stats report only $COMPLETED completed requests"

echo "== overload reject (workers=1, queue-depth=0)"
"$CLI" serve --db db.fa --socket "$SOCK2" --workers 1 --queue-depth 0 \
  --allow-sleep > daemon2.log 2>&1 &
DAEMON2_PID=$!
wait_ready "$SOCK2" || { cat daemon2.log >&2; fail "saturation daemon did not come up"; }
# The pings below race the sleeper's connect: a ping in flight when the
# sleeper arrives fills the one slot and gets the sleeper refused, so
# the sleeper retries an overload reject (exit 3) until it is admitted.
sleeper() {
  for _ in $(seq 1 50); do
    "$CLI" client sleep --socket "$SOCK2" --ms 5000 > sleeper.out 2> sleeper.err \
      && rc=0 || rc=$?
    [ "$rc" -eq 3 ] || return "$rc"
    sleep 0.05
  done
  return 3
}
sleeper &
SLEEPER_PID=$!
REJECTED=0
for _ in $(seq 1 50); do
  set +e
  "$CLI" client ping --socket "$SOCK2" > ping.out 2> ping.err
  rc=$?
  set -e
  if [ "$rc" -eq 3 ]; then
    grep -q 'rejected: overloaded' ping.err \
      || { cat ping.err >&2; fail "exit 3 without a typed overload message"; }
    REJECTED=1
    break
  fi
  sleep 0.1
done
[ "$REJECTED" -eq 1 ] || fail "saturated daemon never produced a typed overload reject"
echo "   typed reject: $(cat ping.err)"
wait "$SLEEPER_PID" || fail "sleeper client failed"
"$CLI" client ping --socket "$SOCK2" >/dev/null || fail "daemon did not recover after saturation"
"$CLI" client shutdown --socket "$SOCK2" >/dev/null
wait "$DAEMON2_PID" || fail "saturation daemon exited non-zero"
DAEMON2_PID=""
[ ! -e "$SOCK2" ] || fail "saturation daemon leaked its socket file"

echo "== shutdown (drain, exit 0, no leaked socket)"
alive "$DAEMON_PID" || fail "daemon crashed during the run"
"$CLI" client shutdown --socket "$SOCK" >/dev/null
wait "$DAEMON_PID" || fail "daemon exited non-zero"
DAEMON_PID=""
[ ! -e "$SOCK" ] || fail "daemon leaked its socket file"

echo "daemon-e2e: PASS"
