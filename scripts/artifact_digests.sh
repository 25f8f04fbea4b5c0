#!/bin/sh
# Run the CLI chain on the bundled toy corpus and print one sha256 line per
# artifact it writes: the vocabulary; the loss log and final checkpoint of a
# plain run, a teacher_forcing_ratio=0.5 run, a freeze_outline=true run and a
# run resumed at epoch 15 of 30; the generations of the plain run's
# checkpoint under greedy, sampling with a sampled latent and recorded
# attention, and beam-8 with a 200-token report cap, where beam search stops
# early in both stages (every outline search after 8 of 20 steps, every
# report search after 52 of 200; without the early stop, 6 outline searches
# would run to 20 and 3 report searches to 96-141); beam-3 generations of
# the freeze_outline run's checkpoint; and the evaluation of the greedy
# generations.
#
# The plain run trains for 400 epochs, so that its checkpoint decodes the
# toy items apart: greedy gives 10 distinct reports for the 10 items (beam-3
# 10, beam-8 10, sampling 8), where 100 epochs gave one report for all of
# them. A fault that decodes one item from another item's encoding then
# changes the generation digests; with one shared report it could not. The
# 40-epoch teacher_forcing_ratio=0.5 run's checkpoint gives one beam-8
# report for all 10 items, so beam-8 decodes the plain run's. On the plain
# run's checkpoint greedy, beam-3 and beam-8 give the same file, so a beam
# that returned the greedy path would move no digest; beam-3 decodes the
# freeze_outline run's checkpoint, where beam-3 and greedy differ. That run
# trains at teacher_forcing_ratio=1, so the tokens scheduled sampling may
# feed cannot move it.
#
#   scripts/artifact_digests.sh WORK_DIR [SRC_DIR]
#
# WORK_DIR is created and must not exist yet. SRC_DIR is the package source
# to run (default: this checkout's src/), so the same chain can run against
# another version's tree. Identical inputs must give identical lists: across
# runs, across PYTHONHASHSEED values, and across versions that leave the
# model's arithmetic alone.
set -eu

[ $# -ge 1 ] && [ $# -le 2 ] || { echo "usage: $0 WORK_DIR [SRC_DIR]" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
src=$(cd "${2:-$root/src}" && pwd)
data="$root/data/toy_corpus.jsonl"
mkdir "$1"
cd "$1"

o2r() { PYTHONPATH="$src" python3 -m outline2report "$@" > /dev/null; }
train() {
  out=$1
  shift
  o2r train --dataset "$data" --vocab vocab.txt --out "$out" \
      --set training.d_emb=32 --set training.d_hid=32 --set training.d_z=8 \
      --set training.batch_size=2 --set training.learning_rate=3e-3 \
      --set training.kl_anneal_steps=500 "$@"
}

o2r build-vocab --dataset "$data" --out vocab.txt
train toy --epochs 400
train forcing --epochs 40 --set training.teacher_forcing_ratio=0.5
train frozen --epochs 40 --set training.freeze_outline=true --set training.gradient_clip_norm=0.5
train resumed --epochs 15
o2r train --dataset "$data" --vocab vocab.txt --out resumed --epochs 30 \
    --resume resumed/checkpoint.o2r 2> /dev/null

generate() {
  run=$1
  out=$2
  shift 2
  o2r generate --checkpoint "$run/checkpoint.o2r" --vocab vocab.txt --input "$data" \
      --out "$out" "$@" 2> /dev/null
}
generate toy greedy.jsonl --greedy
generate frozen beam3.jsonl --beam 3
generate toy beam8.jsonl --beam 8 --max-report-len 200
generate toy sample.jsonl --strategy sample --sample-latent --seed 7
generate toy attention.jsonl --record-attention
PYTHONPATH="$src" python3 -m outline2report evaluate --generated greedy.jsonl \
    --dataset "$data" > evaluate.txt

sha256sum vocab.txt \
    toy/loss_log.csv toy/checkpoint.o2r \
    forcing/loss_log.csv forcing/checkpoint.o2r \
    frozen/loss_log.csv frozen/checkpoint.o2r \
    resumed/loss_log.csv resumed/checkpoint.o2r \
    greedy.jsonl beam3.jsonl beam8.jsonl sample.jsonl attention.jsonl evaluate.txt
