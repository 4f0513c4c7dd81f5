#!/bin/sh
# Smoke run of the installed `fedcast` console script, which the test suite
# never starts (its CLI tests call fedcast.cli.main in-process): generate a
# two-client cohort, run a centralized, a federated, an adaptive-server
# federated config (fedadam over a two-cell server_lr grid, a server rule
# that no benchmark workload runs), a federated config that samples one of
# the two clients a round, so a client skips a round and resumes its Adam
# state, and an individual-setting GRU and RNN config (the two forwards no
# benchmark workload runs) on its CSVs twice each, require each pair of
# output trees to be identical, and report.
# The sampling config runs once more with its two paths listed in reverse
# order, and that tree may differ from the first only in manifest.json,
# which records the paths as written.
# The federated LSTM, GRU and RNN configs run once more under one and then
# two BLAS threads, and those trees may differ only in environment.json.
# Three configs must be refused with exit 2, no traceback and no run
# directory: a malformed synthetic start and a federation section in the
# centralized setting, each naming its field, and a trace whose DownLink is
# all zero, naming its client. A cohort whose RNTI Count is all zero must
# run with fine-tuning, and every JSON artifact must parse strictly.
#
# Usage: sh .github/cli-smoke.sh [WORK_DIR]   (default: a new temporary dir)
set -eu
work=${1:-$(mktemp -d)}
mkdir -p "$work"
cd "$work"

cat > cohort.yaml <<'EOF'
name: smoke-cohort
setting: centralized
output_dir: unused
seeds: [0]
data:
  synthetic:
    seed: 0
    clients:
      - {client_id: bs000, days: 1}
      - {client_id: bs001, days: 1, base_level: 1.2, phase: 1.5}
model: {architecture: mlp, hidden_sizes: [16]}
EOF
fedcast generate --config cohort.yaml --out-dir traces

# refused NAME PATTERN: NAME.yaml must exit 2 with PATTERN on stderr, no
# traceback and no run directory.
refused() {
  status=0
  fedcast run --config "$1.yaml" --output-dir "runs/$1" 2> "$1.err" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q "$2" "$1.err" || grep -q Traceback "$1.err" \
      || [ -e "runs/$1" ]; then
    echo "$1.yaml exited $status:" >&2
    cat "$1.err" >&2
    exit 1
  fi
}

sed 's/{client_id: bs000, days: 1}/{client_id: bs000, days: 1, start: "2018-13-45"}/' \
  cohort.yaml > bad-start.yaml
refused bad-start 'clients\[0\]\.start'

cat > centralized.yaml <<EOF
name: smoke-centralized
setting: centralized
output_dir: runs/centralized
seeds: [0, 1]
data:
  paths:
    - $PWD/traces/bs000.csv
    - $PWD/traces/bs001.csv
model: {architecture: mlp, hidden_sizes: [16]}
training: {max_epochs: 2, patience: 2}
EOF
{ cat centralized.yaml; echo 'federation: {rounds: 2, local_epochs: 1}'; } \
  > unread-federation.yaml
refused unread-federation 'config\.federation: federation .* has no effect'
# the NRMSE of an all-zero DownLink is undefined
mkdir -p zero
awk -F, 'BEGIN { OFS = "," } NR > 1 { $2 = 0 } { print }' traces/bs001.csv \
  > zero/bs001.csv
sed "s#$PWD/traces/bs001.csv#$PWD/zero/bs001.csv#" centralized.yaml > zero-mean.yaml
refused zero-mean 'bs001: DownLink has zero mean'
# an all-zero RNTI Count is no traffic target: the run scores, fine-tunes
# and writes that target's undefined NRMSE as null
mkdir -p zero-rnti
for trace in traces/*.csv; do
  awk -F, 'BEGIN { OFS = "," } NR > 1 { $4 = 0 } { print }' "$trace" \
    > "zero-rnti/${trace#traces/}"
done
{ sed "s#$PWD/traces/#$PWD/zero-rnti/#" centralized.yaml; echo 'fine_tune: true'; } \
  > zero-rnti.yaml
fedcast run --config zero-rnti.yaml --output-dir runs/zero-rnti
cat > federated.yaml <<EOF
name: smoke-federated
setting: federated
output_dir: runs/federated
seeds: [0]
data:
  paths:
    - $PWD/traces/bs000.csv
    - $PWD/traces/bs001.csv
model: {architecture: lstm, recurrent_units: 8, dense_units: 8}
federation: {rounds: 2, local_epochs: 1}
aggregator: {strategy: medianavg}
fine_tune: true
fine_tune_epochs: 1
EOF
cat > adaptive.yaml <<EOF
name: smoke-adaptive
setting: federated
output_dir: runs/adaptive
seeds: [0]
data:
  paths:
    - $PWD/traces/bs000.csv
    - $PWD/traces/bs001.csv
model: {architecture: mlp, hidden_sizes: [16]}
federation: {rounds: 2, local_epochs: 1}
aggregator: {strategy: fedadam}
grid: {server_lr: [0.1, 1.0]}
EOF
# at seed 1 the rounds sample bs001, bs000, bs001: bs001 resumes in round 2
cat > sampled.yaml <<EOF
name: smoke-sampled
setting: federated
output_dir: runs/sampled
seeds: [0, 1]
data:
  paths:
    - $PWD/traces/bs000.csv
    - $PWD/traces/bs001.csv
model: {architecture: mlp, hidden_sizes: [16]}
federation: {rounds: 3, local_epochs: 1, sampling_fraction: 0.5}
aggregator: {strategy: fedavg}
EOF

for cell in gru rnn; do
  cat > "$cell.yaml" <<EOF
name: smoke-$cell
setting: individual
output_dir: runs/$cell
seeds: [0]
data:
  paths:
    - $PWD/traces/bs000.csv
    - $PWD/traces/bs001.csv
model: {architecture: $cell, recurrent_units: 8, dense_units: 8}
training: {max_epochs: 2, patience: 2}
EOF
done

for setting in centralized federated adaptive sampled gru rnn; do
  fedcast run --config "$setting.yaml" --output-dir "runs/$setting-a"
  fedcast run --config "$setting.yaml" --output-dir "runs/$setting-b"
  diff -r "runs/$setting-a" "runs/$setting-b"
done
# swap the two trace names: the same cohort, listed the other way round
sed 's#bs000\.csv#bs00x.csv#; s#bs001\.csv#bs000.csv#; s#bs00x\.csv#bs001.csv#' \
  sampled.yaml > sampled-reversed.yaml
fedcast run --config sampled-reversed.yaml --output-dir runs/sampled-reversed
diff -r -x manifest.json runs/sampled-a runs/sampled-reversed
for setting in federated gru rnn; do
  for threads in 1 2; do
    OPENBLAS_NUM_THREADS=$threads OMP_NUM_THREADS=$threads \
      fedcast run --config "$setting.yaml" --output-dir "runs/$setting-threads-$threads"
  done
  diff -r -x environment.json "runs/$setting-threads-1" "runs/$setting-threads-2"
done
# every JSON artifact parses strictly: no NaN or Infinity tokens
find runs -name '*.json' -exec python3 -c '
import json, sys
def refuse(token):
    raise SystemExit(f"{path}: {token} is not JSON")
for path in sys.argv[1:]:
    with open(path) as fh:
        json.load(fh, parse_constant=refuse)
' {} +
fedcast report --runs runs/centralized-a runs/federated-a runs/adaptive-a \
  runs/sampled-a runs/gru-a runs/rnn-a --out plot.csv
echo "CLI smoke run passed in $work"
