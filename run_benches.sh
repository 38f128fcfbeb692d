#!/bin/sh
# Runs the bench suite.
#
#   run_benches.sh          — full mode: every bench binary in sequence,
#                             stdout collected into bench_output.txt,
#                             stderr (progress logs) into
#                             bench_progress.log, plus the data-parallel
#                             training timing comparison.
#   run_benches.sh --smoke  — CI mode: every bench binary with --smoke,
#                             one JSON record per bench under
#                             bench_smoke/, merged into
#                             bench_smoke_metrics.json by
#                             ci/bench_gate.py. No timing section.
set -u
root=$(cd "$(dirname "$0")" && pwd)
bindir=$root/build/bench

smoke=false
for arg in "$@"; do
  case "$arg" in
    --smoke) smoke=true ;;
    *) echo "usage: $0 [--smoke]" >&2; exit 2 ;;
  esac
done

# Every bench target declared in bench/CMakeLists.txt must exist as a
# built, executable binary before the suite runs. A missing binary used
# to be skipped silently by the glob below, which let a broken bench
# build pass the smoke gate with its metrics simply absent.
expected=$(sed -n 's/^tpr_add_bench(\([A-Za-z0-9_]*\).*/\1/p' \
  "$root/bench/CMakeLists.txt")
if [ -z "$expected" ]; then
  echo "[suite] no tpr_add_bench targets found in bench/CMakeLists.txt" >&2
  exit 1
fi
missing=0
for name in $expected; do
  if [ ! -x "$bindir/$name" ]; then
    echo "[suite] MISSING bench binary: $bindir/$name" >&2
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  echo "[suite] build them first: cmake --build build -j" >&2
  exit 1
fi

if [ "$smoke" = true ]; then
  outdir=$root/bench_smoke
  rm -rf "$outdir"
  mkdir -p "$outdir"
  fail=0
  for b in "$bindir"/bench_*; do
    [ -x "$b" ] || continue
    name=$(basename "$b")
    echo "[suite] smoke $name" >&2
    if ! TPR_BENCH_JSON=$outdir/$name.json "$b" --smoke \
        > "$outdir/$name.out" 2> "$outdir/$name.log"; then
      echo "[suite] FAILED: $name (see $outdir/$name.log)" >&2
      fail=1
    fi
  done
  python3 "$root/ci/bench_gate.py" merge "$outdir" \
    -o "$root/bench_smoke_metrics.json" || fail=1
  echo "[suite] wrote $root/bench_smoke_metrics.json" >&2
  # Floor-gate the batched-serving ratios (higher-is-better, so they
  # live outside bench_baseline.json). Degraded floors cover runners
  # with fewer cores than the bench's 4 workers.
  if ! python3 "$root/ci/bench_gate.py" throughput \
      "$root/bench_smoke_metrics.json" --bench bench_serve_latency \
      --threads 4 \
      --gate serve.batched.speedup_vs_single:5.0:3.5 \
      --gate serve.batched.p99_gain:1.0:1.0; then
    echo "[suite] FAILED: batched-serving throughput gate" >&2
    fail=1
  fi
  # Quantized-rung floors: the sequential and batched EncodeValue ratios
  # (int8 twin against the fp32 encoder, both on the same inference
  # plan), with measured floors and noise margin. Both timings are
  # single-threaded, so no degraded floor is needed. (The >=2x
  # kernel-level int8 claim is retired; DESIGN.md section 14.)
  if ! python3 "$root/ci/bench_gate.py" throughput \
      "$root/bench_smoke_metrics.json" --bench bench_serve_latency \
      --threads 1 \
      --gate serve.quantized.encode_speedup_vs_full:1.2 \
      --gate serve.quantized.batched_encode_speedup_vs_full:1.05; then
    echo "[suite] FAILED: quantized-rung encode-speedup gate" >&2
    fail=1
  fi
  # Drift-adaptation recovery floor: after each injected regime shift the
  # adapted-and-promoted generation must score within 5% of the degraded
  # incumbent on the post-shift golden probe (the smoke-scale fine-tune
  # holds the line; improvement is not promised at this size), in at most
  # one publish per shift (gated exactly via bench_baseline.json).
  if ! python3 "$root/ci/bench_gate.py" throughput \
      "$root/bench_smoke_metrics.json" --bench bench_drift_soak \
      --threads 4 \
      --gate drift.recovery_ratio_min:0.95:0.95; then
    echo "[suite] FAILED: drift recovery gate" >&2
    fail=1
  fi
  # The drift loop's stdout is a timing-free control trace; the full
  # detect -> fine-tune -> canary -> promote sequence (including the
  # mid-fine-tune kill/resume drill) must be byte-identical at 1 and 4
  # threads.
  echo "[suite] drift trace determinism: threads=1 vs 4" >&2
  if TPR_THREADS=1 "$bindir/bench_drift_soak" --smoke \
        > "$outdir/bench_drift_soak.t1.out" 2>/dev/null \
      && TPR_THREADS=4 "$bindir/bench_drift_soak" --smoke \
        > "$outdir/bench_drift_soak.t4.out" 2>/dev/null \
      && cmp -s "$outdir/bench_drift_soak.t1.out" \
                "$outdir/bench_drift_soak.t4.out"; then
    echo "[suite] drift trace identical across thread counts" >&2
  else
    echo "[suite] FAILED: drift trace differs between 1 and 4 threads" >&2
    fail=1
  fi
  # fig7's stdout is timing-free: WSCCL pretraining, its curriculum
  # experts and every optimizer step must come out byte-identical at 1
  # and 4 threads.
  echo "[suite] fig7 determinism: threads=1 vs 4" >&2
  if TPR_THREADS=1 "$bindir/bench_fig7_pretraining" --smoke \
        > "$outdir/bench_fig7_pretraining.t1.out" 2>/dev/null \
      && TPR_THREADS=4 "$bindir/bench_fig7_pretraining" --smoke \
        > "$outdir/bench_fig7_pretraining.t4.out" 2>/dev/null \
      && cmp -s "$outdir/bench_fig7_pretraining.t1.out" \
                "$outdir/bench_fig7_pretraining.t4.out"; then
    echo "[suite] fig7 output identical across thread counts" >&2
  else
    echo "[suite] FAILED: fig7 output differs between 1 and 4 threads" >&2
    fail=1
  fi
  # Under TPR_CKPT_DIR every city trains in its own subdirectory: a run
  # on a fresh directory, and a rerun over it that resumes each city's
  # own completed checkpoint, must both print the 4-thread run's bytes.
  echo "[suite] fig7 under TPR_CKPT_DIR: fresh, then resumed" >&2
  ckdir=$(mktemp -d)
  if TPR_THREADS=4 TPR_CKPT_DIR=$ckdir "$bindir/bench_fig7_pretraining" \
        --smoke > "$outdir/bench_fig7_pretraining.ckpt.out" 2>/dev/null \
      && cmp -s "$outdir/bench_fig7_pretraining.t4.out" \
                "$outdir/bench_fig7_pretraining.ckpt.out" \
      && TPR_THREADS=4 TPR_CKPT_DIR=$ckdir \
        "$bindir/bench_fig7_pretraining" --smoke \
        > "$outdir/bench_fig7_pretraining.resume.out" 2>/dev/null \
      && cmp -s "$outdir/bench_fig7_pretraining.t4.out" \
                "$outdir/bench_fig7_pretraining.resume.out"; then
    echo "[suite] fig7 output identical on fresh and resumed checkpoints" >&2
  else
    echo "[suite] FAILED: fig7 output changes under TPR_CKPT_DIR" >&2
    fail=1
  fi
  rm -rf "$ckdir"
  # Fleet shard-scaling floor: 3 single-worker shards behind the router
  # must deliver >= 2.4x the batched req/s of 1 shard (the median ratio
  # of 3 interleaved 1-shard/3-shard pairs). The degraded
  # floor covers runners with fewer cores than the three shard workers
  # plus the submitting thread (a 1-core host proves nothing about shard
  # parallelism, so it only checks sanity).
  if ! python3 "$root/ci/bench_gate.py" throughput \
      "$root/bench_smoke_metrics.json" --bench bench_fleet_soak \
      --threads 4 \
      --gate fleet.scaling_ratio:2.4:0.5; then
    echo "[suite] FAILED: fleet shard-scaling gate" >&2
    fail=1
  fi
  # The fleet soak's stdout is a timing-free control trace covering the
  # router, every shard's rollout/drift events, and the bitwise
  # clean-vs-bombed isolation verdicts; it must be byte-identical at 1
  # and 4 worker threads per shard.
  echo "[suite] fleet trace determinism: threads=1 vs 4" >&2
  if TPR_THREADS=1 "$bindir/bench_fleet_soak" --smoke \
        > "$outdir/bench_fleet_soak.t1.out" 2>/dev/null \
      && TPR_THREADS=4 "$bindir/bench_fleet_soak" --smoke \
        > "$outdir/bench_fleet_soak.t4.out" 2>/dev/null \
      && cmp -s "$outdir/bench_fleet_soak.t1.out" \
                "$outdir/bench_fleet_soak.t4.out"; then
    echo "[suite] fleet trace identical across thread counts" >&2
  else
    echo "[suite] FAILED: fleet trace differs between 1 and 4 threads" >&2
    fail=1
  fi
  exit $fail
fi

out=$root/bench_output.txt
log=$root/bench_progress.log
: > "$out"
: > "$log"
for b in "$bindir"/bench_*; do
  name=$(basename "$b")
  echo "==================== $name ====================" >> "$out"
  echo "[suite] running $name" >> "$log"
  "$b" >> "$out" 2>> "$log"
  echo "" >> "$out"
done

# ---- Data-parallel training timing ----
# Times one pretraining bench at a reduced scale with TPR_THREADS=1 vs N
# and records the wall-clock speedup. Override the bench, scale, or
# thread count with TPR_TIMING_BENCH / TPR_TIMING_SCALE / TPR_THREADS.
timing_bench=${TPR_TIMING_BENCH:-$bindir/bench_fig7_pretraining}
timing_scale=${TPR_TIMING_SCALE:-0.2}
timing_threads=${TPR_THREADS:-4}
timing_json=$root/BENCH_parallel_training.json
if [ -x "$timing_bench" ]; then
  echo "[suite] timing $(basename "$timing_bench") threads=1 vs $timing_threads" >> "$log"
  t0=$(date +%s.%N)
  TPR_BENCH_SCALE=$timing_scale TPR_THREADS=1 "$timing_bench" \
    > /tmp/tpr_timing_t1.txt 2>> "$log"
  t1=$(date +%s.%N)
  TPR_BENCH_SCALE=$timing_scale TPR_THREADS=$timing_threads "$timing_bench" \
    > /tmp/tpr_timing_tn.txt 2>> "$log"
  t2=$(date +%s.%N)
  # Training is designed to be bitwise identical for any thread count;
  # record whether the two runs printed identical metric tables.
  if cmp -s /tmp/tpr_timing_t1.txt /tmp/tpr_timing_tn.txt; then
    identical=true
  else
    identical=false
  fi
  awk -v b="$(basename "$timing_bench")" -v s="$timing_scale" \
      -v n="$timing_threads" -v t0="$t0" -v t1="$t1" -v t2="$t2" \
      -v ident="$identical" 'BEGIN {
    s1 = t1 - t0; sn = t2 - t1;
    printf "{\n"
    printf "  \"bench\": \"%s\",\n", b
    printf "  \"scale\": %s,\n", s
    printf "  \"threads\": %d,\n", n
    printf "  \"seconds_threads1\": %.3f,\n", s1
    printf "  \"seconds_threadsN\": %.3f,\n", sn
    printf "  \"speedup\": %.3f,\n", (sn > 0 ? s1 / sn : 0)
    printf "  \"identical_metrics\": %s\n", ident
    printf "}\n"
  }' > "$timing_json"
  echo "[suite] wrote $timing_json" >> "$log"
  # Gate the record right away: identical metrics across thread counts
  # and a core-count-aware minimum speedup.
  if ! python3 "$root/ci/bench_gate.py" speedup "$timing_json" >> "$log" 2>&1; then
    echo "[suite] FAILED: parallel-training speedup gate (see $log)" >&2
    exit 1
  fi
else
  echo "[suite] timing bench $timing_bench missing; skipped" >> "$log"
fi
echo "[suite] done" >> "$log"
