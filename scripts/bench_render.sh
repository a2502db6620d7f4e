#!/usr/bin/env bash
# Renders a `scripts/bench_pairs.sh --record` JSON file as BENCH.md's
# per-PR medians table: one row per end-to-end metric, one column per
# workload, each cell "ratio (change ahead in k; median gap in parent
# IQRs)"; or every committed record as one trajectory table per workload.
# awk and printf only.
set -euo pipefail

usage() {
    cat <<'EOF'
usage: scripts/bench_render.sh FILE
       scripts/bench_render.sh --trajectory
       scripts/bench_render.sh --check MARKDOWN

FILE is a JSON file `scripts/bench_pairs.sh --record` wrote. Prints a caption
line, a blank line and the table, in the record's metric and workload order.
A ratio is change / parent ("-" where the parent's median is 0); the gap is
|change median - parent median| / parent IQR ("equal" or "inf" where the
IQR is 0).

--trajectory reads every BENCH_PR<N>.json at the repository root (a record
of seed 1, as `bench_pairs.sh --record` writes one per perf PR) and prints,
for each workload in the order the records first name it, a table with one
row per PR, ascending: the change's medians of hops_per_s, peak_mem_mib,
model_err_pct and checkpoint_ms, as recorded ("-" where the PR's record has
no such workload).

--check re-renders every block of MARKDOWN that opens with a line
`<!-- bench_render PATH -->` (PATH relative to the repository root, or
`--trajectory`) and closes with `<!-- end -->`, and exits 1, printing the
difference, if any block is not what its file renders.
EOF
}

render() {
    awk '
        # The number after `"key": ` in `s`.
        function field(s, key,    at) {
            at = index(s, "\"" key "\": ")
            if (at == 0) return ""
            s = substr(s, at + length(key) + 4)
            match(s, /^[^,}]*/)
            return substr(s, 1, RLENGTH)
        }
        /^ "pairs": / { pairs = field($0, "pairs"); seed = field($0, "seed") }
        /^\{"parent_ref": / {
            parent = $0; sub(/^\{"parent_ref": "/, "", parent); sub(/".*/, "", parent)
        }
        # A workload line; every one after the first opens with a comma.
        /^,?"[A-Za-z0-9_]+": \{"metrics": \{/ {
            w = $0; sub(/^,?"/, "", w); sub(/".*/, "", w)
            workloads[++nw] = w
            rest = $0
            while (match(rest, /"[A-Za-z0-9_.]+": \{"better": /)) {
                name = substr(rest, RSTART + 1, RLENGTH - 1)
                sub(/".*/, "", name)
                rest = substr(rest, RSTART + RLENGTH)
                end = index(rest, "}")
                member = substr(rest, 1, end)
                rest = substr(rest, end + 1)
                if (!(name in seen)) { seen[name] = 1; metrics[++nm] = name }
                pm = field(member, "parent_median") + 0; cm = field(member, "change_median") + 0
                iqr = field(member, "parent_q3") - field(member, "parent_q1")
                gap = cm - pm; if (gap < 0) gap = -gap
                ratio = field(member, "ratio")
                cell[name, w] = sprintf("%s (%d; %s)",
                    ratio == "null" ? "-" : sprintf("%.3f", ratio), field(member, "change_ahead"),
                    iqr == 0 ? (gap == 0 ? "equal" : "inf") : sprintf("%.2f", gap / iqr))
            }
        }
        END {
            if (nw == 0) { print "bench_render: no workloads in the record" > "/dev/stderr"; exit 1 }
            printf "Medians of %d runs a side, seed %d, parent `%s`; ratio = change / parent\n", pairs, seed, parent
            printf "(change ahead in k of %d; median gap in parent IQRs):\n\n", pairs
            printf "| metric |"
            for (j = 1; j <= nw; j++) printf " `%s` |", workloads[j]
            printf "\n|---|"
            for (j = 1; j <= nw; j++) printf "---|"
            printf "\n"
            for (i = 1; i <= nm; i++) {
                printf "| `%s` |", metrics[i]
                for (j = 1; j <= nw; j++) {
                    c = (metrics[i], workloads[j]) in cell ? cell[metrics[i], workloads[j]] : "-"
                    printf " %s |", c
                }
                printf "\n"
            }
        }' "$1"
}

# The trajectory tables of the records at repository root $1.
trajectory() {
    local records
    records=$(find "$1" -maxdepth 1 -name 'BENCH_PR*.json' | grep -E '/BENCH_PR[0-9]+\.json$' |
        sed -E 's/.*BENCH_PR([0-9]+)\.json$/\1 &/' | sort -n | cut -d' ' -f2-)
    [ -n "$records" ] || { echo "bench_render: no BENCH_PR<N>.json records" >&2; return 1; }
    # shellcheck disable=SC2086 # one path per line, none with spaces
    awk '
        function field(s, key,    at) {
            at = index(s, "\"" key "\": ")
            if (at == 0) return ""
            s = substr(s, at + length(key) + 4)
            match(s, /^[^,}]*/)
            return substr(s, 1, RLENGTH)
        }
        FNR == 1 {
            pr = FILENAME; sub(/.*BENCH_PR/, "", pr); sub(/\.json$/, "", pr)
            prs[++np] = pr
        }
        /^,?"[A-Za-z0-9_]+": \{"metrics": \{/ {
            w = $0; sub(/^,?"/, "", w); sub(/".*/, "", w)
            if (!(w in named)) { named[w] = 1; workloads[++nw] = w }
            for (i = 1; i <= nm; i++) {
                at = index($0, "\"" metrics[i] "\": {")
                if (at) cell[w, pr, i] = field(substr($0, at), "change_median")
            }
        }
        BEGIN { nm = split("hops_per_s peak_mem_mib model_err_pct checkpoint_ms", metrics, " ") }
        END {
            for (j = 1; j <= nw; j++) {
                if (j > 1) printf "\n"
                printf "`%s`, the change'"'"'s median by PR:\n\n| PR |", workloads[j]
                for (i = 1; i <= nm; i++) printf " `%s` |", metrics[i]
                printf "\n|---|"
                for (i = 1; i <= nm; i++) printf "---|"
                printf "\n"
                for (k = 1; k <= np; k++) {
                    printf "| %s |", prs[k]
                    for (i = 1; i <= nm; i++) {
                        c = (workloads[j], prs[k], i) in cell ? cell[workloads[j], prs[k], i] : "-"
                        printf " %s |", c
                    }
                    printf "\n"
                }
            }
        }' $records
}

case "${1:-}" in
-h | --help)
    usage
    ;;
--check)
    markdown=${2:?--check needs a Markdown file}
    root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
    status=0
    blocks=0
    while IFS= read -r path; do
        blocks=$((blocks + 1))
        case $path in
        --trajectory) expected=$(trajectory "$root") ;;
        *) expected=$(render "$root/$path") ;;
        esac
        actual=$(awk -v open="<!-- bench_render $path -->" '
            $0 == open { inside = 1; next }
            inside && $0 == "<!-- end -->" { exit }
            inside { print }' "$markdown")
        if [ "$expected" != "$actual" ]; then
            echo "bench_render: the block of $path in $markdown is not what it renders:" >&2
            diff <(echo "$expected") <(echo "$actual") >&2 || true
            status=1
        fi
    done < <(sed -n 's/^<!-- bench_render \(.*\) -->$/\1/p' "$markdown")
    echo "bench_render: $blocks block(s) of $markdown checked"
    exit $status
    ;;
--trajectory)
    trajectory "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
    ;;
?*)
    render "$1"
    ;;
*)
    usage >&2
    exit 2
    ;;
esac
