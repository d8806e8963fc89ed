#!/bin/sh
# serve-smoke: boot the kairos serve daemon, drive the README's
# "Running as a service" walkthrough with curl against a small synthetic
# fleet, and assert the drift trigger is visible in /metrics.
# Run via `make serve-smoke`.
set -eu

PORT="${KAIROS_SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
PID=""
cleanup() {
	[ -n "$PID" ] && kill "$PID" 2>/dev/null || true
	rm -rf "$TMP"
}
# Cleanup runs exactly once, from the EXIT trap; the signal traps just
# convert INT/TERM into an exit (with the conventional 128+signo code),
# which fires EXIT. Trapping cleanup on all three ran it twice on a
# signal and exited 0.
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

fail() {
	echo "serve-smoke: FAIL: $*" >&2
	exit 1
}

# Emit the workloads array: 4 constant-load workloads at cpu scale $1.
workloads() {
	awk -v s="$1" 'BEGIN{
		for (i = 0; i < 4; i++) {
			base = (0.15 + 0.05*i) * s
			printf "%s{\"name\":\"db-%02d\",\"cpu\":[", (i ? "," : ""), i
			for (t = 0; t < 6; t++) printf "%s%.4f", (t ? "," : ""), base
			printf "],\"ram_bytes\":["
			for (t = 0; t < 6; t++) printf "%s%.0f", (t ? "," : ""), 4e9 + 1e9*i
			printf "]}"
		}
	}'
}

echo "serve-smoke: building kairos"
go build -o "$TMP/kairos" ./cmd/kairos

echo "serve-smoke: starting daemon on :$PORT"
"$TMP/kairos" serve -addr "127.0.0.1:$PORT" -q &
PID=$!

up=""
for _ in $(seq 1 50); do
	if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
		up=1
		break
	fi
	kill -0 "$PID" 2>/dev/null || fail "daemon exited during startup"
	sleep 0.2
done
[ -n "$up" ] || fail "daemon did not become healthy on $BASE"

echo "serve-smoke: registering fleet"
resp=$(curl -fsS -X POST "$BASE/v1/fleets" \
	-d "{\"id\":\"smoke\",\"workloads\":[$(workloads 1)],\"auto_machines\":{\"count\":4}}") ||
	fail "register request failed"
case "$resp" in
*'"feasible":true'*) ;;
*) fail "registration did not return a feasible plan: $resp" ;;
esac

echo "serve-smoke: quiet window"
resp=$(curl -fsS -X POST "$BASE/v1/fleets/smoke/windows" \
	-d "{\"workloads\":[$(workloads 1.002)]}") || fail "quiet ingest failed"
case "$resp" in
*'"triggered":false'*) ;;
*) fail "quiet window should not trigger: $resp" ;;
esac

echo "serve-smoke: drifted window (30% above baseline)"
resp=$(curl -fsS -X POST "$BASE/v1/fleets/smoke/windows" \
	-d "{\"workloads\":[$(workloads 1.3)]}") || fail "drifted ingest failed"
case "$resp" in
*'"triggered":true'*) ;;
*) fail "drifted window did not trigger a re-solve: $resp" ;;
esac

plan=$(curl -fsS "$BASE/v1/fleets/smoke/plan") || fail "plan query failed"
case "$plan" in
*'"assignments"'*) ;;
*) fail "plan response malformed: $plan" ;;
esac

echo "serve-smoke: checking /metrics"
metrics=$(curl -fsS "$BASE/metrics") || fail "metrics scrape failed"
for want in \
	'kairos_fleets 1' \
	'kairos_windows_ingested_total{fleet="smoke"} 2' \
	'kairos_triggers_total{fleet="smoke"} 1' \
	'kairos_windows_decoded_waiting_total{fleet="smoke"} 0' \
	'kairos_wire_numbers_slow_total 0' \
	'kairos_wire_split_chunks_total{outcome="discarded"} 0' \
	'kairos_cpu_budget_in_use 0' \
	'kairos_cpu_budget_denied_total ' \
	'kairos_resolve_duration_seconds_count{fleet="smoke"} 1'; do
	case "$metrics" in
	*"$want"*) ;;
	*) fail "metrics missing '$want':
$metrics" ;;
	esac
done

kill "$PID"
wait "$PID" 2>/dev/null || true
PID=""
echo "serve-smoke: OK"
