#!/usr/bin/env bash
# Run the simulator-core micro-benchmark suite and write the result as
# BENCH_simcore.json, a per-run perf record (CI uploads it as an
# artifact). Nothing is gated here: absolute micro-benchmark rates move
# with the machine, and end-to-end regressions are judged by the
# same-machine A/B in e2ebench/ (see e2ebench/README.md).
#
# Four binaries feed the file:
#   bench_micro_sim   event-core throughput, trace generation, replay
#   bench_recovery    power-up recovery vs dirty-state size, snapshot
#                     save/load throughput and image size
#   bench_ingest      trace ingestion: text parse vs emmctrace-bin
#                     decode records/s, binary encode, CSV import
#   bench_biotracer_overhead (via --bench-json): wall-clock overhead
#                     of the latency-attribution recorder, plus the
#                     bit-identical-MRT cross-check
# Their JSON outputs are merged (benchmark lists concatenated under
# the first binary's context block).
#
# The JSON carries, per benchmark:
#   - items_per_second   events/sec through the event core, trace
#                        generation and replay
#   - sim_recovery_ms / scanned_pages / image_bytes for the recovery
#     and snapshot benches
#
# Usage: scripts/run_benchmarks.sh [output.json]
#   BUILD_DIR=<dir>           build tree to use (default: build)
#   EMMCSIM_BENCH_ARGS=...    extra google-benchmark flags (e.g.
#                             --benchmark_repetitions=5)

set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${1:-BENCH_simcore.json}"
BENCHES=("$BUILD_DIR/bench/bench_micro_sim"
         "$BUILD_DIR/bench/bench_recovery"
         "$BUILD_DIR/bench/bench_ingest")

PARTS=()
for BENCH in "${BENCHES[@]}"; do
    if [ ! -x "$BENCH" ]; then
        echo "error: $BENCH not built (cmake --build $BUILD_DIR --target $(basename "$BENCH"))" >&2
        exit 1
    fi
    PART="$OUT.$(basename "$BENCH").part"
    # shellcheck disable=SC2086  # intentional word splitting of extra args
    "$BENCH" \
        --benchmark_out="$PART" \
        --benchmark_out_format=json \
        ${EMMCSIM_BENCH_ARGS:-}
    PARTS+=("$PART")
done

# bench_biotracer_overhead is not a google-benchmark binary; its
# --bench-json flag emits a compatible part with the attribution
# overhead numbers (and fails the run if attribution perturbs the
# simulated MRT).
BIO="$BUILD_DIR/bench/bench_biotracer_overhead"
if [ ! -x "$BIO" ]; then
    echo "error: $BIO not built (cmake --build $BUILD_DIR --target bench_biotracer_overhead)" >&2
    exit 1
fi
PART="$OUT.bench_biotracer_overhead.part"
"$BIO" 0.2 --bench-json="$PART" > /dev/null
PARTS+=("$PART")

python3 - "$OUT" "${PARTS[@]}" <<'EOF'
import json
import sys

out, first, *rest = sys.argv[1:]
doc = json.load(open(first))
for part in rest:
    doc["benchmarks"].extend(json.load(open(part))["benchmarks"])
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
EOF
rm -f "${PARTS[@]}"

echo "wrote $OUT"
