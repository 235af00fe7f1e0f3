#!/usr/bin/env bash
# Builds the benchmark offline and runs it. From the root of a checkout:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line of standard output is the result object
#       (this is the command BENCHMARK.json names)
#   bash benchmark/run.sh --all [--seed N] [--seconds S] [--quick] [--no-pin]
#       every workload, untraced then traced; results in benchmark/out/last.json
#       (--quick measures for 1 s, --no-pin runs on every CPU; either marks the
#       file as not comparable)
#   bash benchmark/run.sh --repeat-check [--seed N] [--seconds S]
#       every workload twice; fails unless the output digests and the decision
#       quality match and every end-to-end metric of the second set is within
#       its bound of the first
#   bash benchmark/run.sh --self-test
#       the harness's own tests
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [[ ! -f Cargo.toml || ! -d crates ]]; then
  echo "run.sh: $root holds no crates/ to build and measure" >&2
  exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
manifest="$here/Cargo.toml"
out="$here/out"
workloads=(campaign_paper select_wide valuation_nested service_tenants)

# The build reads the repository's crates from benchmark/overlay/: a copy of
# Cargo.toml, crates/ and src/ with the two one-line compile fixes the crates
# still need, which this PR may not make in crates/ itself (README.md,
# "Build"). A fix applies only while the line it repairs is still there. Every
# copied file keeps its modification time, the two patched ones too, so cargo
# rebuilds only what changed in the source.
sync_overlay() {
  local scenario=crates/stochastic/src/scenario.rs provider=crates/cloudsim/src/provider.rs
  rm -rf "$here/overlay"
  mkdir "$here/overlay"
  cp -Rp Cargo.toml crates src "$here/overlay/"
  sed -i 's/^\( *let mut integral = 0\.0\);$/\1_f64;/' "$here/overlay/$scenario"
  grep -q 'Debug for CloudProvider' "$provider" ||
    sed -i '/derive(.*Debug/{n;b}; s/^pub struct CloudProvider {$/#[derive(Debug)]\n&/' \
      "$here/overlay/$provider"
  touch -r "$scenario" "$here/overlay/$scenario"
  touch -r "$provider" "$here/overlay/$provider"
}

build() {
  sync_overlay
  # Warnings of the copied crates are not this benchmark's to fix: the build's
  # messages are shown only when it fails.
  local log
  if ! log="$(cargo build --release --offline --quiet --manifest-path "$manifest" 2>&1)"; then
    echo "$log" >&2
    exit 3
  fi
}

bin="$CARGO_TARGET_DIR/release/disar-benchmark"

# glibc keeps the stacks of exited threads in a cache of 40 MiB and unmaps what
# does not fit. `DeployPipeline::run` spawns a scoped thread per job and drops
# its handle, so std calls pthread_detach while the thread may be exiting, and
# glibc 2.36's pthread_detach reads the thread's descriptor (which lives on
# that stack) once more after marking it detached. When the thread exits and
# its stack is unmapped between the two, the process dies of SIGSEGV: about
# one `service_tenants` run in a few hundred (README.md, "Findings"). With a
# cache that holds every stack the run ever has, none is unmapped and the late
# read finds mapped memory. The stacks keep the program's own size.
export GLIBC_TUNABLES="${GLIBC_TUNABLES:+$GLIBC_TUNABLES:}glibc.pthread.stack_cache_size=0x40000000"

# The benchmark runs on one CPU, the last one this shell may use, unless
# --no-pin is given. On the two-CPU virtual machines it targets, ten runs on
# both CPUs spread by 5-17 % (README.md, "How a number is made") and on one by
# 1-6 %, and a bound can be no tighter than the spread. The price: the program
# sees one available thread, so its fan-outs run in sequence and the service's
# threads take turns. --no-pin shows the other side, without steadiness.
pin() {
  local cpu
  cpu="$(taskset -cp $$ 2> /dev/null | sed 's/.*[:, -]//')" || cpu=""
  if [[ "$cpu" =~ ^[0-9]+$ ]]; then
    pinned=(taskset -c "$cpu")
  fi
}

# value_of '<result json>' <metric>
value_of() {
  sed -n "s/.*\"$2\": {\"value\": \([^,]*\),.*/\1/p" <<< "$1"
}

# run_all <seconds> <seed> <file>: every workload, untraced and traced, as one
# JSON document; the untraced logs are kept for the digests.
run_all() {
  local seconds="$1" seed="$2" file="$3" first=1
  mkdir -p "$out"
  printf '{"seed": %s, "seconds": %s, "comparable": %s, "workloads": {' \
    "$seed" "$seconds" "$comparable" > "$file"
  for w in "${workloads[@]}"; do
    for trace in 0 1; do
      "${pinned[@]}" "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        | tee "$file.$w.$trace.log" | sed '$d'
    done
    [[ $first == 1 ]] || printf ', ' >> "$file"
    first=0
    printf '"%s": {"end_to_end": %s, "per_layer": %s}' "$w" \
      "$(tail -n 1 "$file.$w.0.log")" "$(tail -n 1 "$file.$w.1.log")" >> "$file"
  done
  printf '}}\n' >> "$file"
}

mode=single
seed=20160627
seconds=10
comparable=true
passthrough=()
pinned=()
pin
while [[ $# -gt 0 ]]; do
  case "$1" in
    --all|--repeat-check|--self-test) mode="${1#--}"; shift ;;
    --quick) seconds=1; comparable=false; shift ;;
    --no-pin) pinned=(); comparable=false; shift ;;
    --seed) seed="$2"; passthrough+=("$1" "$2"); shift 2 ;;
    --seconds) seconds="$2"; passthrough+=("$1" "$2"); shift 2 ;;
    *) passthrough+=("$1"); shift ;;
  esac
done

case "$mode" in
  single)
    build
    exec "${pinned[@]}" "$bin" "${passthrough[@]}"
    ;;
  self-test)
    sync_overlay
    exec cargo test --offline --manifest-path "$manifest"
    ;;
  all)
    build
    run_all "$seconds" "$seed" "$out/last.json"
    rm -f "$out"/last.json.*.log
    echo "results in $out/last.json (comparable: $comparable)"
    ;;
  repeat-check)
    build
    run_all "$seconds" "$seed" "$out/repeat-1.json"
    run_all "$seconds" "$seed" "$out/repeat-2.json"
    status=0
    for w in "${workloads[@]}"; do
      d1="$(grep -h 'digest' "$out/repeat-1.json.$w.0.log")"
      d2="$(grep -h 'digest' "$out/repeat-2.json.$w.0.log")"
      if [[ "$d1" != "$d2" ]]; then
        echo "FAIL $w: digests differ: $d1 / $d2"
        status=1
      fi
      # Decision quality is a function of the seed and the program.
      t1="$(tail -n 1 "$out/repeat-1.json.$w.1.log")"
      t2="$(tail -n 1 "$out/repeat-2.json.$w.1.log")"
      for name in deadline_miss_pct cost_regret_pct pred_mape_pct; do
        if [[ "$(value_of "$t1" "$name")" != "$(value_of "$t2" "$name")" ]]; then
          echo "FAIL $w $name: $(value_of "$t1" "$name") then $(value_of "$t2" "$name")"
          status=1
        fi
      done
      r1="$(tail -n 1 "$out/repeat-1.json.$w.0.log")"
      r2="$(tail -n 1 "$out/repeat-2.json.$w.0.log")"
      # name, direction and bound of each end-to-end metric, from BENCHMARK.json
      while read -r name better bound; do
        a="$(value_of "$r1" "$name")"
        b="$(value_of "$r2" "$name")"
        verdict="$(awk -v a="$a" -v b="$b" -v bound="$bound" -v better="$better" 'BEGIN {
          worse = (better == "lower") ? (b - a) / a : (a - b) / a
          printf "%s %.4f", (worse <= bound) ? "ok" : "FAIL", worse }')"
        echo "$verdict $w $name: $a then $b (bound $bound)"
        [[ "$verdict" == ok* ]] || status=1
      done < <(sed -n '/"end_to_end"/,/\]/s/.*"name": "\([^"]*\)".*"better": "\([^"]*\)", "bound": \([0-9.]*\).*/\1 \2 \3/p' BENCHMARK.json)
    done
    rm -f "$out"/repeat-*.json.*.log
    exit "$status"
    ;;
esac
