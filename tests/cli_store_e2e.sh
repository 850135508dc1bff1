#!/usr/bin/env bash
# End-to-end check of the `store` subcommands against one generated dataset:
#
#   1. `store build` spills a generated binlog into an ASL3 directory;
#   2. `store info` must render the partition manifest table (per-partition
#      rows/time range/compression) plus the summary line;
#   3. `store analyze` streams windowed preference curves off the store;
#   4. `store export` -> `store build` must reproduce every partition file
#      byte-for-byte (the round-trip golden property);
#   5. a negative --threads is rejected before any work: `store build`
#      writes nothing, and `alpha`/`analyze` fail on the flag before they
#      open their input;
#   6. a --replicates below 1 fails `analyze` and `store analyze` on the
#      flag before they open their input;
#   7. an unknown --action / --class name fails `analyze`, `slices` and
#      `store analyze` with the same message (`slices` and `store analyze`
#      before they open their input);
#   8. every `slices --by` mode applies --action/--class or rejects it by
#      name: `--by dayclass --class C` slices by class, and `--by action
#      --action`, `--by class --class`, `--by month --class` are errors.
#
# Usage: cli_store_e2e.sh <autosens_cli>
set -euo pipefail

CLI="$1"
WORK="$(mktemp -d)"
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

"$CLI" generate --out "$WORK/data.bin" --scale tiny --seed 42 --days 3 >/dev/null

# Small partitions/blocks so the tiny dataset still yields several shards.
"$CLI" store build --in "$WORK/data.bin" --out "$WORK/store" \
    --partition-rows 4096 --block-rows 512 > "$WORK/build.out"
grep -Eq '^wrote [0-9]+ rows in [0-9]+ partitions to ' "$WORK/build.out" || {
  echo "FAIL: store build did not report rows/partitions" >&2
  cat "$WORK/build.out" >&2
  exit 1
}
rows="$(sed -n 's/^wrote \([0-9]*\) rows in .*/\1/p' "$WORK/build.out")"
[[ -f "$WORK/store/MANIFEST" ]] || { echo "FAIL: no MANIFEST written" >&2; exit 1; }

# The partition manifest table: every header column, at least one partition
# row (day-000000 shard 0), and a summary whose row count matches the build.
"$CLI" store info --in "$WORK/store" > "$WORK/info.out"
for column in partition day rows "time range (ms)" "raw MiB" "stored MiB" ratio; do
  grep -q "$column" "$WORK/info.out" || {
    echo "FAIL: store info table lacks column '$column'" >&2
    cat "$WORK/info.out" >&2
    exit 1
  }
done
grep -q 'day-000000\.0' "$WORK/info.out" || {
  echo "FAIL: store info lists no day-000000.0 partition" >&2
  cat "$WORK/info.out" >&2
  exit 1
}
grep -Eq "^[0-9]+ partitions, $rows rows, " "$WORK/info.out" || {
  echo "FAIL: store info summary disagrees with build ($rows rows)" >&2
  cat "$WORK/info.out" >&2
  exit 1
}

# Windowed analysis straight off the store.
"$CLI" store analyze --in "$WORK/store" --window-days 2 > "$WORK/analyze.out"
grep -q 'NLP@500' "$WORK/analyze.out"
grep -Eq '^[0-9]+ windows, ' "$WORK/analyze.out" || {
  echo "FAIL: store analyze produced no summary" >&2
  cat "$WORK/analyze.out" >&2
  exit 1
}

# Round trip: export the store to a binlog, rebuild, compare byte-for-byte.
"$CLI" store export --in "$WORK/store" --out "$WORK/back.bin" --batch 1000 \
    > "$WORK/export.out"
grep -Eq "^exported $rows rows to " "$WORK/export.out"
"$CLI" store build --in "$WORK/back.bin" --out "$WORK/store2" \
    --partition-rows 4096 --block-rows 512 >/dev/null
diff -rq "$WORK/store" "$WORK/store2" >/dev/null || {
  echo "FAIL: rebuilt store differs from the original" >&2
  diff -rq "$WORK/store" "$WORK/store2" >&2 || true
  exit 1
}

# --threads -1 is a named error, raised before the input is read or a pool
# starts: store build leaves no output directory, and a missing input file
# is never reached.
expect_threads_rejected() {
  local name="$1"
  shift
  if "$CLI" "$@" > "$WORK/$name.out" 2> "$WORK/$name.err"; then
    echo "FAIL: $name accepted --threads -1" >&2
    exit 1
  fi
  grep -q -- '--threads must be >= 0' "$WORK/$name.err" || {
    echo "FAIL: $name did not reject --threads -1 by name" >&2
    cat "$WORK/$name.err" >&2
    exit 1
  }
}
expect_threads_rejected store_build store build --in "$WORK/data.bin" \
    --out "$WORK/store_negative" --threads -1
[[ ! -e "$WORK/store_negative" ]] || {
  echo "FAIL: store build wrote output before rejecting --threads -1" >&2
  exit 1
}
expect_threads_rejected alpha alpha --in "$WORK/data.bin" --threads -1
expect_threads_rejected analyze analyze --in "$WORK/missing.bin" --threads -1
expect_threads_rejected alpha_missing alpha --in "$WORK/missing.bin" --threads -1

# --replicates below 1 (or not a number) is a flag error raised before the
# input is opened: with a missing input it comes first.
expect_replicates_rejected() {
  local name="$1" message="$2"
  shift 2
  if "$CLI" "$@" > "$WORK/$name.out" 2> "$WORK/$name.err"; then
    echo "FAIL: $name accepted a bad --replicates" >&2
    exit 1
  fi
  grep -q -- "$message" "$WORK/$name.err" || {
    echo "FAIL: $name did not reject --replicates by name before opening its input" >&2
    cat "$WORK/$name.err" >&2
    exit 1
  }
}
expect_replicates_rejected analyze_replicates '--replicates must be >= 1' \
    analyze --in "$WORK/missing.bin" --confidence --replicates -1
expect_replicates_rejected analyze_replicates_zero '--replicates must be >= 1' \
    analyze --in "$WORK/missing.bin" --confidence --replicates 0
expect_replicates_rejected analyze_replicates_text 'flag --replicates expects an integer' \
    analyze --in "$WORK/missing.bin" --confidence --replicates abc
expect_replicates_rejected store_analyze_replicates '--replicates must be >= 1' \
    store analyze --in "$WORK/missing_store" --confidence --replicates 0

# --action and --class each have one parse, shared by every command.
expect_flag_error() {
  local name="$1" message="$2"
  shift 2
  if "$CLI" "$@" > "$WORK/$name.out" 2> "$WORK/$name.err"; then
    echo "FAIL: $name accepted a bad slice flag" >&2
    exit 1
  fi
  grep -qF -- "$message" "$WORK/$name.err" || {
    echo "FAIL: $name did not report '$message'" >&2
    cat "$WORK/$name.err" >&2
    exit 1
  }
}
expect_flag_error analyze_action 'unknown action type: Bogus' \
    analyze --in "$WORK/data.bin" --action Bogus
expect_flag_error analyze_class 'unknown user class: bogus' \
    analyze --in "$WORK/data.bin" --action SelectMail --class bogus
expect_flag_error slices_action 'unknown action type: Bogus' \
    slices --in "$WORK/missing.bin" --by class --action Bogus
expect_flag_error slices_class 'unknown user class: bogus' \
    slices --in "$WORK/missing.bin" --by action --class bogus
expect_flag_error store_analyze_action 'unknown action type: Bogus' \
    store analyze --in "$WORK/missing_store" --action Bogus
expect_flag_error store_analyze_class 'unknown user class: bogus' \
    store analyze --in "$WORK/missing_store" --class bogus

# A slice flag the --by mode cannot apply is rejected by name, before the
# input is opened.
expect_flag_error slices_by_action_action '--action does not apply to --by action' \
    slices --in "$WORK/missing.bin" --by action --action SelectMail
expect_flag_error slices_by_class_class '--class does not apply to --by class' \
    slices --in "$WORK/missing.bin" --by class --class Business
expect_flag_error slices_by_month_class '--class does not apply to --by month' \
    slices --in "$WORK/missing.bin" --by month --class Business

# --by dayclass applies --class on its own: each class gives its own curves.
for class in none Business Consumer; do
  flags=()
  [[ "$class" == none ]] || flags=(--class "$class")
  "$CLI" slices --in "$WORK/data.bin" --by dayclass "${flags[@]}" \
      > "$WORK/dayclass_$class.out"
done
for pair in "none Business" "none Consumer" "Business Consumer"; do
  read -r a b <<< "$pair"
  if cmp -s "$WORK/dayclass_$a.out" "$WORK/dayclass_$b.out"; then
    echo "FAIL: slices --by dayclass gave the same output for --class $a and $b" >&2
    exit 1
  fi
done

echo "PASS: cli store e2e ($rows rows)"
