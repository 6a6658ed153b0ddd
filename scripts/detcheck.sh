#!/usr/bin/env bash
# Determinism check: the dynamic witness of the contract typilus-lint
# enforces statically. Runs the example pipeline twice — once with 1
# thread, once with 4 — and requires every produced artifact and every
# prediction/evaluation output to be byte-identical. A second leg
# kills training at an epoch boundary (exit code 3), resumes from the
# checkpoint, and requires the resumed artifacts to match the
# uninterrupted ones byte-for-byte — including a run whose newest
# checkpoint was corrupted (resume must fall back to the previous
# one). Further legs force the SIMD tile width (TYPILUS_SIMD), the
# naive reference kernels (TYPILUS_NN_NAIVE) and a kill-and-resume run
# at a forced width: artifacts must be byte-identical across kernel
# mode x SIMD width x thread count x resume path. On success it prints
# the sha256 manifest of the reference run (model, index sidecar,
# predict and eval output), so two commits can be checked for
# byte-identical artifacts by diffing their manifests. Run from anywhere;
# operates on the repo root. Expects `cargo build --release` to have
# run (tier1.sh orders it that way) but builds on demand otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
TYPILUS=target/release/typilus
[ -x "$TYPILUS" ] || cargo build --release -p typilus-cli

WORK=$(mktemp -d "${TMPDIR:-/tmp}/typilus-detcheck.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# Small but non-trivial scale: enough files/epochs that a stray
# unordered reduction or map-order leak has room to show up.
"$TYPILUS" gen-corpus --out "$WORK/corpus" --files 24 --seed 7

run() { # run <threads> <outdir> [ENV=value ...]
    local threads=$1 out=$2
    shift 2
    mkdir -p "$out"
    env "$@" TYPILUS_THREADS=$threads "$TYPILUS" train --corpus "$WORK/corpus" \
        --model "$out/model.typilus" \
        --epochs 2 --dim 16 --gnn-steps 2 --seed 7 >"$out/train.out"
    find "$WORK/corpus" -name '*.py' | sort | head -8 |
        env "$@" TYPILUS_THREADS=$threads xargs "$TYPILUS" predict \
            --model "$out/model.typilus" --top 3 >"$out/predict.out"
    env "$@" TYPILUS_THREADS=$threads "$TYPILUS" eval --model "$out/model.typilus" \
        --corpus "$WORK/corpus" >"$out/eval.out"
}

# Kill-and-resume leg: train with checkpointing, die right after the
# checkpoint of epoch $3 (the CLI exits 3 for the injected kill), then
# resume — possibly at a different thread count — and produce the same
# artifacts as an uninterrupted run. With corrupt=yes the newest
# checkpoint is truncated before resuming, so resume must fall back to
# the previous valid one.
run_resumed() { # run_resumed <threads> <outdir> <kill_after_epoch> <corrupt> [ENV=value ...]
    local threads=$1 out=$2 kill_epoch=$3 corrupt=$4
    shift 4
    mkdir -p "$out"
    set +e
    env "$@" TYPILUS_THREADS=$threads "$TYPILUS" train --corpus "$WORK/corpus" \
        --model "$out/model.typilus" --checkpoint-dir "$out/ckpt" \
        --epochs 2 --dim 16 --gnn-steps 2 --seed 7 \
        --kill-after-epoch "$kill_epoch" >"$out/train.out" 2>"$out/train.err"
    local code=$?
    set -e
    if [ "$code" -ne 3 ]; then
        echo "detcheck: injected kill expected exit 3, got $code" >&2
        cat "$out/train.err" >&2
        exit 1
    fi
    if [ -e "$out/model.typilus" ]; then
        echo "detcheck: killed run must not write a model artifact" >&2
        exit 1
    fi
    if [ "$corrupt" = yes ]; then
        local newest
        newest=$(ls "$out/ckpt"/epoch-*.ckpt | sort | tail -1)
        local size
        size=$(wc -c <"$newest")
        head -c "$((size / 2))" "$newest" >"$newest.torn" && mv "$newest.torn" "$newest"
    fi
    env "$@" TYPILUS_THREADS=$threads "$TYPILUS" train --corpus "$WORK/corpus" \
        --model "$out/model.typilus" --checkpoint-dir "$out/ckpt" --resume \
        --epochs 2 --dim 16 --gnn-steps 2 --seed 7 >"$out/train.out"
    find "$WORK/corpus" -name '*.py' | sort | head -8 |
        env "$@" TYPILUS_THREADS=$threads xargs "$TYPILUS" predict \
            --model "$out/model.typilus" --top 3 --out "$out/predict.out"
    env "$@" TYPILUS_THREADS=$threads "$TYPILUS" eval --model "$out/model.typilus" \
        --corpus "$WORK/corpus" >"$out/eval.out"
}

run 1 "$WORK/t1"
run 4 "$WORK/t4"
run_resumed 1 "$WORK/r1" 0 no
run_resumed 4 "$WORK/r4" 0 no
run_resumed 1 "$WORK/rc" 1 yes
# Kernel-variant legs: forced baseline SIMD width, forced widened
# width (clamped to baseline on CPUs without AVX2), naive reference
# kernels, and a kill-and-resume run at the forced baseline width.
run 4 "$WORK/sse2" TYPILUS_SIMD=sse2
run 2 "$WORK/avx2" TYPILUS_SIMD=avx2
run 2 "$WORK/naive" TYPILUS_NN_NAIVE=1
run_resumed 2 "$WORK/rs" 0 no TYPILUS_SIMD=sse2

status=0
check() { # check <artifact> <dir_a> <label_a> <dir_b> <label_b>
    local artifact=$1 a=$2 la=$3 b=$4 lb=$5
    local ha hb
    ha=$(sha256sum "$a/$artifact" | cut -d' ' -f1)
    hb=$(sha256sum "$b/$artifact" | cut -d' ' -f1)
    if [ "$ha" = "$hb" ]; then
        echo "detcheck: $artifact $la vs $lb OK ($ha)"
    else
        echo "detcheck: $artifact DIFFERS: $la $ha vs $lb $hb" >&2
        status=1
    fi
}

# Sharded-index leg: build the mmap-able TypeSpace index sidecar on
# copies of the 1-thread model at 1 vs 4 threads. The rewritten model
# and the sidecar must be byte-identical, the sidecar must pass its
# checksum sweep, and predictions served through the zero-copy view
# must not depend on the thread count either.
for t in 1 4; do
    mkdir -p "$WORK/ix$t"
    cp "$WORK/t1/model.typilus" "$WORK/ix$t/model.typilus"
    TYPILUS_THREADS=$t "$TYPILUS" index --model "$WORK/ix$t/model.typilus" \
        --shards 6 --trees 8 --search-k 64 >"$WORK/ix$t/index.out"
    TYPILUS_THREADS=$t "$TYPILUS" index --model "$WORK/ix$t/model.typilus" \
        --verify >>"$WORK/ix$t/index.out"
    find "$WORK/corpus" -name '*.py' | sort | head -8 |
        TYPILUS_THREADS=$t xargs "$TYPILUS" predict \
            --model "$WORK/ix$t/model.typilus" --top 3 >"$WORK/ix$t/predict.out"
done

for artifact in model.typilus predict.out eval.out; do
    check "$artifact" "$WORK/t1" 1-thread "$WORK/t4" 4-thread
    check "$artifact" "$WORK/t1" 1-thread "$WORK/r1" resumed-1t
    check "$artifact" "$WORK/t1" 1-thread "$WORK/r4" resumed-4t
    check "$artifact" "$WORK/t1" 1-thread "$WORK/rc" resumed-corrupt
    check "$artifact" "$WORK/t1" 1-thread "$WORK/sse2" sse2-4t
    check "$artifact" "$WORK/t1" 1-thread "$WORK/avx2" avx2-2t
    check "$artifact" "$WORK/t1" 1-thread "$WORK/naive" naive-2t
    check "$artifact" "$WORK/t1" 1-thread "$WORK/rs" resumed-sse2
done

for artifact in model.typilus model.typilus.space predict.out; do
    check "$artifact" "$WORK/ix1" index-1t "$WORK/ix4" index-4t
done

if [ "$status" -ne 0 ]; then
    echo "detcheck: FAILED — results depend on thread count, kernel variant or resume path" >&2
    exit "$status"
fi
# The reference run's manifest, for comparing the artifacts of two
# commits (e.g. `diff` this block from a parent and a change).
# predict.out names each input file by path, so its hash is taken with
# this run's temporary directory stripped.
manifest() { # manifest <label> < content
    echo "  $(sha256sum | cut -d' ' -f1)  $1"
}
echo "detcheck: manifest (sha256, 1-thread reference run)"
manifest model.typilus <"$WORK/t1/model.typilus"
manifest model.typilus.space <"$WORK/ix1/model.typilus.space"
sed "s|$WORK/||g" "$WORK/t1/predict.out" | manifest predict.out
manifest eval.out <"$WORK/t1/eval.out"
echo "detcheck: OK"
