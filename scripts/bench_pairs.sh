#!/usr/bin/env bash
# Ten alternating parent/change pairs of the BENCHMARK.json command — the
# procedure every perf claim in BENCH.md rests on, as one command.
set -euo pipefail

usage() {
    cat <<'EOF'
usage: scripts/bench_pairs.sh [--record FILE] <parent-ref> <workload|all> [pairs=10] [seed=1]

Measures the working tree against <parent-ref> on one BENCHMARK.json workload,
or on each of them in turn (`all`).

  * unpacks <parent-ref> (`git archive`) into a temporary directory (removed
    on exit; $TMPDIR is honoured) and builds the benchmark there and in the
    working tree, in place;
  * runs the BENCHMARK.json command (`--workload W --seed N --seconds S
    --trace 0`, S = its `run_seconds`) <pairs> times per side, alternating
    which side goes first, and prints every run as it is made;
  * prints, per end-to-end metric: both medians, both quartile pairs, the
    ratio change / parent (base: parent), and "change ahead in k of n"
    (ties count for neither side); then whether all result digests are
    equal, and failed/attempted per side;
  * ends with one line per (workload, end-to-end metric) on which the change
    is behind the parent by more than the metric's BENCHMARK.json `bound` in
    at least nine tenths of the pairs — the rule a PR is rejected on — and
    exits 1 if there is any.

A gain is claimed only when the change is ahead in at least nine tenths of
the pairs and the medians differ by more than the parent's interquartile
range (last column). Run it on a quiet machine.

--record FILE also writes the whole comparison to FILE as JSON: the parent
ref and commit, the change's commit, pairs, seed, run length and the host's
CPU count and architecture, and per
workload every run of every end-to-end metric on each side (in run order),
both medians and quartile pairs, the ratio, the ahead-in count, every
result digest and the failed/attempted counts. The printed tables, the
BEHIND: lines and the exit status are the same with or without it.
EOF
}

case "${1:-}" in
-h | --help)
    usage
    exit 0
    ;;
esac
record=
if [ "${1:-}" = --record ]; then
    if [ $# -lt 2 ]; then
        usage >&2
        exit 2
    fi
    record=$(realpath -m "$2")
    shift 2
fi
if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    usage >&2
    exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
seed=${4:-1}

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"

# The command, its run length and the end-to-end metrics (name:better), all
# from the working tree's BENCHMARK.json — a perf change may not edit it.
mapfile -t cmd < <(sed -n 's/^ *"command": *\[\(.*\)\],*$/\1/p' BENCHMARK.json |
    tr ',' '\n' | sed 's/^ *"//; s/" *$//')
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mapfile -t metrics < <(sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json |
    sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1:\2:\3/p')
if [ "$workload" = all ]; then
    mapfile -t workloads < <(sed -n '/"workloads"/,/\]/p' BENCHMARK.json |
        sed -n 's/.*{"name": *"\([^"]*\)".*/\1/p')
else
    workloads=("$workload")
fi
if [ ${#cmd[@]} -eq 0 ] || [ -z "$seconds" ] || [ ${#metrics[@]} -eq 0 ] || [ ${#workloads[@]} -eq 0 ]; then
    echo "bench_pairs: cannot read command, run_seconds, workloads and end_to_end from BENCHMARK.json" >&2
    exit 1
fi
# `cargo run … --` → `cargo build …`, to build before anything is timed.
build=()
for word in "${cmd[@]}"; do
    case "$word" in
    run) build+=(build) ;;
    --) break ;;
    *) build+=("$word") ;;
    esac
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent_ref" | tar -x -C "$tmp/parent"

echo "# bench_pairs: parent $(git rev-parse --short "$parent_ref") vs working tree" \
    "($(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted changes'))," \
    "workload ${workloads[*]}, $pairs pairs, seed $seed, --seconds $seconds"
for dir in "$tmp/parent" "$root"; do
    (cd "$dir" && "${build[@]}")
done

# One run of one side on $workload; appends each metric (from the JSON result
# line) to $data/<side>.<metric>, the digest to $data/<side>.digest and
# "failed attempted" to $data/<side>.failed.
run_side() {
    local side=$1 dir=$2 out="$tmp/out"
    (cd "$dir" && "${cmd[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0) >"$out"
    sed -n 's/^# .*digest \([0-9a-f]*\),.*/\1/p' "$out" >>"$data/$side.digest"
    sed -n 's/^{.*"attempted": *\([0-9]*\), *"failed": *\([0-9]*\).*/\2 \1/p' "$out" \
        >>"$data/$side.failed"
    local line="  $side:"
    for metric in "${metrics[@]}"; do
        local name=${metric%%:*} value
        value=$(sed -n 's/^{.*"'"$name"'": *{"value": *\([^,}]*\).*/\1/p' "$out")
        if [ -z "$value" ]; then
            echo "bench_pairs: no $name in the $side run's output" >&2
            exit 1
        fi
        echo "$value" >>"$data/$side.$name"
        line+=" $name=$value"
    done
    echo "$line digest=$(tail -n 1 "$data/$side.digest")"
}

for workload in "${workloads[@]}"; do
    data="$tmp/$workload"
    mkdir "$data"
    echo
    echo "## $workload"
    for pair in $(seq "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then
            echo "pair $pair of $pairs (parent first)"
            run_side parent "$tmp/parent"
            run_side change "$root"
        else
            echo "pair $pair of $pairs (change first)"
            run_side change "$root"
            run_side parent "$tmp/parent"
        fi
    done

    echo
    printf '%-14s %-7s %-36s %-36s %-21s %-16s %s\n' metric better \
        'parent median (q1 .. q3)' 'change median (q1 .. q3)' 'ratio (base: parent)' \
        'change ahead in' 'median gap / parent IQR'
    for metric in "${metrics[@]}"; do
        IFS=: read -r name better bound <<<"$metric"
        paste "$data/parent.$name" "$data/change.$name" | awk -v name="$name" \
            -v better="$better" -v bound="$bound" -v workload="$workload" -v behind_file="$tmp/behind" \
            -v json_file="$data/json" '
            # Quantile by linear interpolation between order statistics.
            function quantile(v, n, q,    pos, lo, frac) {
                pos = q * (n - 1) + 1; lo = int(pos); frac = pos - lo
                return lo >= n ? v[n] : v[lo] + frac * (v[lo + 1] - v[lo])
            }
            function sorted(src, dst, n,    i, j, t) {
                for (i = 1; i <= n; i++) dst[i] = src[i]
                for (i = 2; i <= n; i++) {
                    t = dst[i]
                    for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
                    dst[j + 1] = t
                }
            }
            {
                n++; p[n] = $1; c[n] = $2
                if ($1 != $2) { if ((better == "higher") == ($2 > $1)) ahead++; else behind++ }
                # Behind by more than the bound, relative to the parent.
                if (better == "higher" ? $2 < $1 * (1 - bound) : $2 > $1 * (1 + bound)) beyond++
            }
            END {
                sorted(p, ps, n); sorted(c, cs, n)
                pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
                pq1 = quantile(ps, n, 0.25); pq3 = quantile(ps, n, 0.75)
                gap = cm - pm; if (gap < 0) gap = -gap
                iqr = pq3 - pq1
                printf "%-14s %-7s %-36s %-36s %-21s %-16s %s\n", name, better,
                    sprintf("%.8g (%.8g .. %.8g)", pm, pq1, pq3),
                    sprintf("%.8g (%.8g .. %.8g)", cm, quantile(cs, n, 0.25), quantile(cs, n, 0.75)),
                    pm == 0 ? "-" : sprintf("%.3f", cm / pm),
                    sprintf("%d of %d%s", ahead, n, behind + ahead < n ? sprintf(" (%d ties)", n - ahead - behind) : ""),
                    iqr == 0 ? (gap == 0 ? "equal" : "inf") : sprintf("%.2f", gap / iqr)
                if (beyond * 10 >= n * 9)
                    printf "BEHIND: %s %s: change worse than parent by more than %g%% in %d of %d pairs (medians %.8g vs %.8g)\n",
                        workload, name, bound * 100, beyond, n, cm, pm >>behind_file
                # One JSON member per metric, every run listed in run order.
                runs_p = p[1]; runs_c = c[1]
                for (i = 2; i <= n; i++) { runs_p = runs_p ", " p[i]; runs_c = runs_c ", " c[i] }
                printf "\"%s\": {\"better\": \"%s\", \"bound\": %s, \"parent\": [%s], \"change\": [%s], " \
                    "\"parent_median\": %.8g, \"parent_q1\": %.8g, \"parent_q3\": %.8g, " \
                    "\"change_median\": %.8g, \"change_q1\": %.8g, \"change_q3\": %.8g, " \
                    "\"ratio\": %s, \"change_ahead\": %d, \"change_behind\": %d, \"pairs\": %d}\n",
                    name, better, bound, runs_p, runs_c, pm, pq1, pq3, cm,
                    quantile(cs, n, 0.25), quantile(cs, n, 0.75),
                    pm == 0 ? "null" : sprintf("%.6f", cm / pm), ahead, behind, n >>json_file
            }'
    done

    digests=$(sort -u "$data/parent.digest" "$data/change.digest")
    if [ "$(echo "$digests" | wc -l)" -eq 1 ] && [ -n "$digests" ]; then
        echo "digests: equal ($digests) on all $((2 * pairs)) runs"
    else
        echo "digests: DIFFER — parent: $(sort -u "$data/parent.digest" | tr '\n' ' ')" \
            "change: $(sort -u "$data/change.digest" | tr '\n' ' ')"
    fi
    for side in parent change; do
        awk -v side="$side" '{ f += $1; a += $2 } END { printf "failed: %s %d of %d attempted\n", side, f, a }' \
            "$data/$side.failed"
    done
    if [ -n "$record" ]; then
        {
            printf '"%s": {"metrics": {%s},\n' "$workload" "$(paste -sd, "$data/json")"
            for side in parent change; do
                printf '  "%s_digests": [%s],\n' "$side" \
                    "$(sed 's/.*/"&"/' "$data/$side.digest" | paste -sd, -)"
                awk -v side="$side" '{ f += $1; a += $2 }
                    END { printf "  \"%s_failed\": %d, \"%s_attempted\": %d%s\n", side, f, side, a, side == "parent" ? "," : "}" }' \
                    "$data/$side.failed"
            done
        } >>"$tmp/record"
    fi
done

if [ -n "$record" ]; then
    {
        printf '{"parent_ref": "%s", "parent_commit": "%s", "change_commit": "%s", "uncommitted": %s,\n' \
            "$parent_ref" "$(git rev-parse "$parent_ref")" "$(git rev-parse HEAD)" \
            "$(git diff --quiet HEAD && echo false || echo true)"
        printf ' "pairs": %d, "seed": %d, "run_seconds": %d, "host": {"cpus": %d, "machine": "%s"},\n' \
            "$pairs" "$seed" "$seconds" "$(nproc)" "$(uname -m)"
        printf ' "workloads": {\n'
        awk 'NR > 1 && /^"/ { printf "," } { print }' "$tmp/record"
        printf '}}\n'
    } >"$record"
    echo "recorded: $record"
fi

echo
if [ -s "$tmp/behind" ]; then
    cat "$tmp/behind"
    exit 1
fi
echo "no end-to-end metric is behind by more than its bound in nine tenths of the pairs"
